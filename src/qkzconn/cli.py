"""Command-line front end: verification sweeps, matrix export, block reports.

Exit codes: 0 all residuals below tolerance, 1 at least one residual
failure, 2 inconclusive (degenerate parameters, exhausted pole resampling,
an elliptic evaluation that hits a pole or leaves the double range, or a
usage error, such as a file that cannot be read or written).
"""

from __future__ import annotations

import argparse
import datetime
import sys

import numpy as np

from . import blocks as blk
from . import connection as conn
from . import serialize
from .checks import SAMPLES, SUITES, Report, run_suite
from .elliptic import EllipticError
from .params import RunConfig, sample_point
from .symgroup import (
    act,
    content_labels,
    content_stabiliser,
    eta_exponent,
    from_word,
    identity_perm,
    leading_index,
    min_coset_reps,
)


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number from {text!r}") from exc


def _parse_phi(text: str) -> tuple[complex, complex, complex]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("phi takes three comma-separated complex numbers")
    return tuple(_parse_complex(t) for t in parts)


def _parse_z(text: str) -> tuple[complex, ...]:
    return tuple(_parse_complex(t) for t in text.split(","))


def _read_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip().strip('"')
    return values


_CONFIG_PARSERS = {
    "p": float,
    "kappa": _parse_complex,
    "phi": _parse_phi,
    "n": int,
    "seed": int,
    "tol": float,
    "out": str,
    "format": str,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            base[key] = _CONFIG_PARSERS[key](raw)
    for key in _CONFIG_PARSERS:
        flag = getattr(args, key if key != "format" else "fmt", None)
        if flag is not None:
            base[key] = flag
    kwargs = dict(
        p=base.get("p", 0.35),
        kappa=base.get("kappa", complex(0.27)),
        phi=base.get("phi"),
        n=base.get("n", 4),
        seed=base.get("seed", 7),
        out=base.get("out"),
        fmt=base.get("format", "table"),
    )
    if "tol" in base:
        kwargs["residual_tol"] = base["tol"]
    return RunConfig(**kwargs)


def _report_payload(report: Report, timestamp: bool = True) -> dict:
    """The deterministic report body; timing data lives in separate fields.

    A NaN or inf residual or detail value is written as null, which strict
    JSON parsers accept, where ``NaN`` would not be.
    """
    cfg = report.config
    phi = cfg.resolved_phi()
    payload = serialize.finite_or_null({
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "verification_report",
        "config": {
            "p": cfg.p,
            "kappa": serialize.complex_to_pair(complex(cfg.kappa)),
            "phi": [serialize.complex_to_pair(t) for t in phi],
            "n": cfg.n,
            "seed": cfg.seed,
            "residual_tol": cfg.residual_tol,
            "samples": SAMPLES,
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
    })
    if timestamp:
        payload["timings"] = {
            "created": datetime.datetime.now().isoformat(),
            "seconds_per_check": {k: round(v, 6) for k, v in sorted(report.timings.items())},
        }
    return payload


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
    if cfg.fmt == "json":
        _emit(payload_text, cfg.out)
    else:
        _emit(_report_table(report), cfg.out)
        if cfg.out is not None:
            # a file-based table is always accompanied by the JSON report
            with open(cfg.out + ".json", "w", encoding="utf-8") as handle:
                handle.write(payload_text + "\n")
        for r in report.failed:
            print(f"failed: {r.check} residual={r.residual} tol={r.tol}", file=sys.stderr)
    return report.exit_code


def cmd_rmatrix(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    ep = cfg.elliptic()
    phi = cfg.resolved_phi()
    x = args.x
    entries = conn.dyn_r_matrix(ep, x, phi)
    probe = complex(0.21, 0.13)
    unit = conn.dyn_r_matrix(ep, probe, phi) @ conn.dyn_r_matrix(ep, -probe, phi)
    residuals = {"unitarity_probe": float(np.linalg.norm(unit - np.eye(9)) / 3.0)}
    payload = serialize.dynamical_r_payload(cfg.p, complex(cfg.kappa), phi, x, entries, residuals)
    _emit(serialize.dumps(payload), cfg.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    from .heckespin import HeckeParams, spin_rep, y_operators

    ep = cfg.elliptic()
    phi = cfg.resolved_phi()
    n = args.n if args.n is not None else cfg.n
    report = blk.genericity_report(cfg.p, complex(cfg.kappa), phi, n)
    if not report.ok:
        print(f"inconclusive: genericity violations {report.violations[:5]}", file=sys.stderr)
        return 2
    rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
    y_ops = y_operators(rep)
    blocks_out = []
    for r in content_labels(n):
        spec = blk.content_block(ep, n, r, phi)
        reps = min_coset_reps(n, content_stabiliser(n, r))
        lead = leading_index(r)
        basis_map = [(act(w, lead), w, (-1) ** eta_exponent(w, r)) for w in reps]
        blocks_out.append(
            {
                "content": r,
                "index_set": spec.index_set,
                "signs": spec.signs,
                "gamma": spec.gamma,
                "basis_map": basis_map,
                "eigen_residual": blk.eigen_residual(rep, r, y_ops),
                "max_sign_residual": max(blk.sign_residual(rep, r, w) for w in reps),
            }
        )
    payload = serialize.decomposition_payload(cfg.p, complex(cfg.kappa), phi, n, blocks_out)
    _emit(serialize.dumps(payload), cfg.out)
    return 0


def _parse_word(text: str, n: int):
    text = text.strip()
    if text in ("", "e"):
        return identity_perm(n)
    letters = []
    for tok in text.replace(",", " ").split():
        if not tok.startswith("s"):
            raise ValueError(f"cannot parse word letter {tok!r}; expected e.g. 's1 s2 s1'")
        letters.append(int(tok[1:]))
    return from_word(n, letters)


def cmd_connection(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    ep = cfg.elliptic()
    phi = cfg.resolved_phi()
    n = args.n if args.n is not None else cfg.n
    try:
        w = _parse_word(args.w, n)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    z = args.z if args.z is not None else sample_point(cfg.rng(), n, ep.nome)
    if len(z) != n:
        print(f"evaluation point needs {n} coordinates, got {len(z)}", file=sys.stderr)
        return 2
    blocks_out = []
    for r in content_labels(n):
        spec = blk.content_block(ep, n, r, phi)
        cm = conn.connection_word(ep, spec, w, z)
        blocks_out.append(
            {
                "content": r,
                "index_set": spec.index_set,
                "signs": spec.signs,
                "gamma": spec.gamma,
                "basis": cm.basis,
                "entries": cm.entries,
            }
        )
    tensor = conn.tensor_monodromy_word(ep, n, phi, w, z)
    payload = serialize.connection_payload(cfg.p, complex(cfg.kappa), phi, z, blocks_out, tensor)
    _emit(serialize.dumps(payload), cfg.out)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=float, default=None, help="nome in (0, 1)")
    parser.add_argument("--kappa", type=_parse_complex, default=None, help="coupling (complex, re+imj)")
    parser.add_argument("--phi", type=_parse_phi, default=None, help="twist a,b,c (complex entries)")
    parser.add_argument("--n", type=int, default=None, help="number of tensor sites")
    parser.add_argument("--seed", type=int, default=None, help="seed for the sweeps")
    parser.add_argument("--tol", type=float, default=None, help="default residual tolerance")
    parser.add_argument("--out", type=str, default=None, help="output file (stdout if omitted)")
    parser.add_argument("--format", dest="fmt", choices=("json", "table"), default=None)
    parser.add_argument("--config", type=str, default=None, help="key=value config file")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qkzconn",
        description="numerical verification of the elliptic dynamical R-matrix "
        "and the qKZ connection machinery for the three-state supersymmetric chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    _add_common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_rmat = sub.add_parser("rmatrix", help="emit the 9x9 dynamical R-matrix as JSON")
    p_rmat.add_argument("--x", type=_parse_complex, default=complex(0.3, 0.1), help="spectral parameter")
    _add_common(p_rmat)
    p_rmat.set_defaults(fn=cmd_rmatrix)

    p_dec = sub.add_parser("decompose", help="emit the block decomposition as JSON")
    _add_common(p_dec)
    p_dec.set_defaults(fn=cmd_decompose)

    p_conn = sub.add_parser("connection", help="emit connection matrices for a word")
    p_conn.add_argument("--w", type=str, default="e", help="word, e.g. 's1 s2 s1' or 'e'")
    p_conn.add_argument("--z", type=_parse_z, default=None, help="evaluation point z1,z2,...")
    _add_common(p_conn)
    p_conn.set_defaults(fn=cmd_connection)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, EllipticError, OverflowError) as exc:
        # degenerate parameters or an evaluation outside the double range
        print(f"inconclusive: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a --config file that cannot be read or an --out file that cannot be written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
