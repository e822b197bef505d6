#!/usr/bin/env python3
"""Compare every output of the command line between two revisions.

Extracts ``src`` of BASE (and of HEAD, or takes the working tree) with
``git archive`` and runs each tree's ``python -m qkzconn.cli`` in fresh
processes on one fixed list of runs:

- ``verify all --format json`` at ten configurations, with ``timings``
  removed, and its exit code;
- four exports: ``rmatrix``, ``connection`` at n = 5 with the longest word,
  ``connection`` at n = 3 with ``s1 s2`` and ``decompose --n 4``.

Prints one markdown table: each moved number with its ratio (head / base),
each added, removed or changed key by its JSON path, and for an export only
its first differing field.  Exits 1 if anything moved, 0 if nothing did.

    python scripts/compare_outputs.py BASE [HEAD]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterator, NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]

W0 = "s1 s2 s1 s3 s2 s1 s4 s3 s2 s1"

#: the flags of each ``verify all --format json`` run
VERIFY_CONFIGS = [
    (),
    ("--n", "6"),
    ("--n", "3", "--seed", "11"),
    *(("--seed", seed) for seed in ("1", "2", "3", "1010", "1089")),
    ("--p", "0.85"),
    ("--p", "0.05"),
]

EXPORTS = [
    ("rmatrix",),
    ("connection", "--n", "5", "--w", W0),
    ("connection", "--n", "3", "--w", "s1 s2", "--seed", "3"),
    ("decompose", "--n", "4"),
]

RUNS = [("verify", "all", "--format", "json", *flags) for flags in VERIFY_CONFIGS] + EXPORTS


class Output(NamedTuple):
    code: int
    stdout: str
    stderr: str


class Change(NamedTuple):
    kind: str  # moved, added, removed or changed
    path: str
    base: Any
    head: Any


def extract(rev: str, dest: str) -> str:
    """The root of a tree holding ``src`` of ``rev``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return dest


def run(tree: str, argv: tuple[str, ...]) -> Output:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    done = subprocess.run(
        [sys.executable, "-m", "qkzconn.cli", *argv], cwd=tree, env=env, capture_output=True, text=True
    )
    return Output(done.returncode, done.stdout, done.stderr)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _children(node: dict | list) -> dict[str, Any]:
    # a list of check results is keyed by check id, so a path names the check
    if isinstance(node, dict):
        return {f".{key}": value for key, value in node.items()}
    if node and all(isinstance(item, dict) and "check" in item for item in node):
        return {f"[{item['check']}]": item for item in node}
    return {f"[{i}]": item for i, item in enumerate(node)}


def diff(base: Any, head: Any, path: str = "") -> Iterator[Change]:
    """Each difference of two parsed JSON documents, in document order.

    A number moves when its text changes (so 1 against 1.0 and 0.0 against
    -0.0 move too); a path starts at the document's top-level key.
    """
    if _is_number(base) and _is_number(head):
        if repr(base) != repr(head):
            yield Change("moved", path, base, head)
    elif isinstance(base, (dict, list)) and type(base) is type(head):
        old, new = _children(base), _children(head)
        for key in [*old, *(k for k in new if k not in old)]:
            sub = (path + key).lstrip(".")
            if key not in new:
                yield Change("removed", sub, old[key], None)
            elif key not in old:
                yield Change("added", sub, None, new[key])
            else:
                yield from diff(old[key], new[key], sub)
    elif type(base) is not type(head) or base != head:
        yield Change("changed", path, base, head)


def _last_line(text: str) -> str:
    return (text.strip().splitlines() or [""])[-1]


def compare(argv: tuple[str, ...], base: Output, head: Output) -> list[Change]:
    """What moved in one run: every path of a report, the first of an export."""
    changes = [] if base.code == head.code else [Change("changed", "exit code", base.code, head.code)]
    if base.stdout == head.stdout:
        return changes
    try:
        old, new = json.loads(base.stdout), json.loads(head.stdout)
    except ValueError:
        # no JSON on one side: the last stderr line says why
        return changes + [Change("changed", "stdout", _last_line(base.stderr), _last_line(head.stderr))]
    if argv[0] == "verify":
        old.pop("timings", None)
        new.pop("timings", None)
        return changes + list(diff(old, new))
    first = next(diff(old, new), Change("changed", "bytes", len(base.stdout), len(head.stdout)))
    return changes + [first]


def _cell(value: Any) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    text = text if len(text) <= 60 else text[:57] + "..."
    return text.replace("|", "\\|")


def table(rows: list[tuple[tuple[str, ...], Output, Output, list[Change]]], title: str) -> str:
    lines = [f"### {title}", "", "| run | exit | change | path | base | head |", "|---|---|---|---|---|---|"]
    for argv, base, head, changes in rows:
        name = "`" + " ".join(f'"{a}"' if " " in a else a for a in argv) + "`"
        code = str(base.code) if base.code == head.code else f"{base.code} → {head.code}"
        if not changes:
            lines.append(f"| {name} | {code} | identical | | | |")
        for c in changes:
            before = "" if c.kind == "added" else _cell(c.base)
            after = "" if c.kind == "removed" else _cell(c.head)
            if c.kind == "moved" and c.base:
                ratio = c.head / c.base
                # a move in the last bits reads as 1 at six digits
                after += f" (ratio {ratio:.6g})" if abs(ratio - 1) >= 1e-6 else f" (ratio 1{ratio - 1:+.1e})"
            lines.append(f"| {name} | {code} | {c.kind} | `{c.path}` | {before} | {after} |")
    moved = sum(1 for *_, changes in rows if changes)
    lines += ["", f"{moved} of {len(rows)} runs moved."]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="the revision to compare against")
    parser.add_argument("head", nargs="?", help="the revision to compare (the working tree if omitted)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as base_dir, tempfile.TemporaryDirectory() as head_dir:
        try:
            base_tree = extract(args.base, base_dir)
            head_tree = extract(args.head, head_dir) if args.head else str(ROOT)
        except subprocess.CalledProcessError as exc:
            print(f"error: {_last_line((exc.stderr or b'').decode(errors='replace'))}", file=sys.stderr)
            return 2
        # the two trees of one run side by side: two processes at a time
        with ThreadPoolExecutor(max_workers=2) as pool:
            pairs = [(pool.submit(run, base_tree, a), pool.submit(run, head_tree, a)) for a in RUNS]
            rows = [(a, b.result(), h.result()) for a, (b, h) in zip(RUNS, pairs)]
    rows = [(a, b, h, compare(a, b, h)) for a, b, h in rows]
    print(table(rows, f"qkzconn outputs: {args.base} against {args.head or 'the working tree'}"))
    return 1 if any(changes for *_, changes in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
