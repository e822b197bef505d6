"""Command-line front end: verification sweeps, matrix export, block reports.

Exit codes: 0 all residuals below tolerance, 1 at least one residual
failure, 2 inconclusive (degenerate parameters, exhausted pole resampling,
an elliptic evaluation that hits a pole or leaves the double range, or a
usage error: an unwritable ``--out`` file, or a flag that is unknown, does
not parse or is not finite, each printed as one ``error:`` line).  The
flags are the only input, and each command takes only the flags it reads:
the ``RunConfig`` settings of ``_SETTINGS`` (``rmatrix`` all but ``--n``),
``--out``, and ``verify``'s ``--format``.  The residual tolerance is the
constant ``RunConfig.residual_tol``.
"""

from __future__ import annotations

import argparse
import cmath
import datetime
import functools
import sys

import numpy as np

from . import blocks as blk
from . import connection as conn
from . import serialize
from .checks import SUITES, Report, run_suite
from .elliptic import EllipticError
from .heckespin import HeckeParams, spin_rep
from .params import RunConfig, sample_point
from .symgroup import content_labels, from_word, identity_perm, reduced_word


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number from {text!r}") from exc
    # nan and inf parse, but no evaluation can use them
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite complex number")
    return value


def _parse_phi(text: str) -> tuple[complex, complex, complex]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("phi takes three comma-separated complex numbers")
    return tuple(_parse_complex(t) for t in parts)


def _parse_z(text: str) -> tuple[complex, ...]:
    return tuple(_parse_complex(t) for t in text.split(","))


class UsageError(Exception):
    """A flag value that the run cannot use; exit code 2."""


class _Parser(argparse.ArgumentParser):
    # a flag that does not parse is a usage error: one ``error:`` line
    def error(self, message: str):
        raise UsageError(message)


#: every run setting, keyed by its ``RunConfig`` field and flag ``--key``:
#: how its value parses, and its help; the residual tolerance is no setting
#: but the constant ``RunConfig.residual_tol``
_SETTINGS = {
    "p": (float, "nome in (0, 1)"),
    "kappa": (_parse_complex, "coupling (complex, re+imj)"),
    "phi": (_parse_phi, "twist a,b,c (complex entries)"),
    "n": (int, "number of tensor sites"),
    "seed": (int, "seed for the sweeps"),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    # only the flags that were given: RunConfig holds the defaults
    values = {key: getattr(args, key) for key in _SETTINGS if getattr(args, key, None) is not None}
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _report_payload(report: Report) -> dict:
    """The deterministic report body, and its timing data in ``timings``.

    A NaN or inf residual or detail value is written as null, which strict
    JSON parsers accept, where ``NaN`` would not be.
    """
    cfg = report.config
    phi = cfg.resolved_phi()
    return serialize.finite_or_null({
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "verification_report",
        "config": {
            "p": cfg.p,
            "kappa": serialize.complex_to_pair(complex(cfg.kappa)),
            "phi": [serialize.complex_to_pair(t) for t in phi],
            "n": cfg.n,
            "seed": cfg.seed,
            "residual_tol": cfg.residual_tol,
        },
        "results": [
            {
                "check": r.check,
                "suite": r.suite,
                "law": r.law,
                "residual": r.residual,
                "tol": r.tol,
                "passed": bool(r.passed),
                "status": r.status,
                "detail": r.detail,
            }
            for r in sorted(report.results, key=lambda r: (r.suite, r.check))
        ],
        "exit_code": report.exit_code,
        "timings": {
            "created": datetime.datetime.now().isoformat(),
            "seconds_per_check": {k: round(v, 6) for k, v in sorted(report.timings.items())},
        },
    })


def _report_table(report: Report) -> str:
    lines = [f"{'check':34} {'suite':14} {'status':13} {'residual':>12} {'tol':>9}"]
    for r in sorted(report.results, key=lambda r: (r.suite, r.check)):
        if r.status == "ran":
            status = "pass" if r.passed else "FAIL"
        else:
            status = r.status
        res = "-" if r.residual is None else f"{r.residual:.2e}"
        tol = "-" if r.tol is None else f"{r.tol:.0e}"
        lines.append(f"{r.check:34} {r.suite:14} {status:13} {res:>12} {tol:>9}")
    counts = (
        f"{sum(1 for r in report.results if r.status == 'ran' and r.passed)} passed, "
        f"{len(report.failed)} failed, {len(report.inconclusive)} inconclusive"
    )
    lines.append(counts)
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    report = run_suite(args.suite, cfg)
    payload_text = serialize.dumps(_report_payload(report))
    if args.format == "json":
        _emit(payload_text, args.out)
    else:
        _emit(_report_table(report), args.out)
        if args.out is not None:
            # a file-based table is always accompanied by the JSON report
            with open(args.out + ".json", "w", encoding="utf-8") as handle:
                handle.write(payload_text + "\n")
        for r in report.failed:
            print(f"failed: {r.check} residual={r.residual} tol={r.tol}", file=sys.stderr)
    return report.exit_code


def cmd_rmatrix(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    ep = cfg.elliptic()
    phi = cfg.resolved_phi()
    x = args.x
    probe = complex(0.21, 0.13)
    entries, r_probe, r_back = conn.dyn_r_matrix(ep, [x, probe, -probe], phi)
    unit = r_probe @ r_back
    residuals = {"unitarity_probe": float(np.linalg.norm(unit - np.eye(9)) / 3.0)}
    payload = serialize.dynamical_r_payload(cfg.p, complex(cfg.kappa), phi, x, entries, residuals)
    _emit(serialize.dumps(payload), args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    ep = cfg.elliptic()
    phi = cfg.resolved_phi()
    n = cfg.n
    report = blk.genericity_report(cfg.p, complex(cfg.kappa), phi, n)
    if not report.ok:
        print(f"inconclusive: genericity violations {report.violations[:5]}", file=sys.stderr)
        return 2
    rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
    bases = blk.block_bases(n)
    records = []
    for r in content_labels(n):
        spec = blk.content_block(ep, n, r, phi)
        eigen, signs = blk.block_residuals(rep, r)
        records.append((r, spec, bases[r], eigen, float(np.max([inclusive for _, inclusive, _ in signs]))))
    payload = serialize.decomposition_payload(cfg.p, complex(cfg.kappa), phi, n, records)
    _emit(serialize.dumps(payload), args.out)
    return 0


def _parse_word(text: str, n: int):
    text = text.strip()
    if text in ("", "e"):
        return identity_perm(n)
    letters = []
    for tok in text.replace(",", " ").split():
        if not (tok.startswith("s") and tok[1:].isdecimal()):
            raise UsageError(f"cannot parse word letter {tok!r}; expected e.g. 's1 s2 s1'")
        letters.append(int(tok[1:]))
    try:
        return from_word(n, letters)
    except ValueError as exc:  # a letter s_i outside 1 <= i < n
        raise UsageError(str(exc)) from None


def cmd_connection(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    ep = cfg.elliptic()
    phi = cfg.resolved_phi()
    n = cfg.n
    w = _parse_word(args.w, n)
    z = args.z if args.z is not None else sample_point(cfg.rng(), n, ep.nome)
    if len(z) != n:
        raise UsageError(f"evaluation point needs {n} coordinates, got {len(z)}")
    contents = content_labels(n)
    specs = [blk.content_block(ep, n, r, phi) for r in contents]
    labels = reduced_word(w)
    mats = conn.connection_words(ep, [(spec, labels, z) for spec in specs])
    # computed on its own, not assembled from the blocks, so the two routes
    # of the monodromy can be checked against each other; ``dumps`` writes
    # its 3^n x 3^n rows from the stored blocks
    tensor = conn.tensor_monodromy_words(ep, [(phi, labels, z)])[0]
    payload = serialize.connection_payload(cfg.p, complex(cfg.kappa), phi, z, zip(contents, specs, mats), tensor)
    _emit(serialize.dumps(payload), args.out)
    return 0


def _add_settings(parser: argparse.ArgumentParser, keys=tuple(_SETTINGS)) -> None:
    # the run settings the command reads, and the output file
    for key in keys:
        parse, text = _SETTINGS[key]
        parser.add_argument(f"--{key}", type=parse, help=text)
    parser.add_argument("--out", help="output file (stdout if omitted)")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; parse_args returns a fresh
    # Namespace each time, so one parser serves every call in a process
    parser = _Parser(
        prog="qkzconn",
        description="numerical verification of the elliptic dynamical R-matrix "
        "and the qKZ connection machinery for the three-state supersymmetric chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    _add_settings(p_verify)
    p_verify.add_argument("--format", choices=("json", "table"), default="table", help="report format")
    p_verify.set_defaults(fn=cmd_verify)

    p_rmat = sub.add_parser("rmatrix", help="emit the 9x9 dynamical R-matrix as JSON")
    p_rmat.add_argument("--x", type=_parse_complex, default=complex(0.3, 0.1), help="spectral parameter")
    _add_settings(p_rmat, ("p", "kappa", "phi", "seed"))
    p_rmat.set_defaults(fn=cmd_rmatrix)

    p_dec = sub.add_parser("decompose", help="emit the block decomposition as JSON")
    _add_settings(p_dec)
    p_dec.set_defaults(fn=cmd_decompose)

    p_conn = sub.add_parser("connection", help="emit connection matrices for a word")
    p_conn.add_argument("--w", type=str, default="e", help="word, e.g. 's1 s2 s1' or 'e'")
    p_conn.add_argument("--z", type=_parse_z, default=None, help="evaluation point z1,z2,...")
    _add_settings(p_conn)
    p_conn.set_defaults(fn=cmd_connection)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # a numpy overflow raises, with or without -W error::RuntimeWarning
        with np.errstate(over="raise"):
            return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, EllipticError, OverflowError, FloatingPointError) as exc:
        # degenerate parameters or an evaluation outside the double range
        print(f"inconclusive: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # an --out file that cannot be written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
