"""One workload in its own process; started by run.py, not by hand.

Protocol on stdout: the line ``ready`` once qkzconn is imported and every
layer has been called once, then (unless ``--probe``) one JSON line with
the run's raw results.  ``--probe`` exits right after ``ready``; run.py
times several probes to measure set-up.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def warm_up() -> None:
    """Import qkzconn and make one minimal call into each layer."""
    import numpy as np

    import qkzconn
    from qkzconn import blocks, checks, cli, connection, elliptic, heckespin, qkz, serialize, symgroup, tensorspace

    if not os.path.abspath(qkzconn.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qkzconn was imported from {qkzconn.__file__}, not from {SRC}")
    ep = elliptic.default_params()
    phi = (0.1 + 0.1j, -0.2 + 0.05j, 0.3 + 0.2j)
    elliptic.coeff_a(ep, 0.2 + 0.1j, 0.1 + 0.05j)
    symgroup.min_coset_reps(3, {1})
    blocks.content_block(ep, 2, symgroup.content_labels(2)[1], phi)
    rep = heckespin.spin_rep(heckespin.HeckeParams(elliptic=ep, n=2), phi)
    tensorspace.two_leg_op(np.eye(9, dtype=complex), 3, 1, 3)
    connection.dyn_r_matrix(ep, 0.3 + 0.1j, phi)
    qkz.transport_word(rep, qkz.translation_word(2, 1), (0.1 + 0.1j, 0.2))
    serialize.dumps({"warm": [1.0, 2.0]})
    checks.list_checks()
    cli.build_config(argparse.Namespace())


def environment(threads: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "program_caches": program_caches(),
    }


def program_caches() -> dict:
    """``cache_info()`` of every memoised function in qkzconn (none in the seed program)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "qkzconn" or name.startswith("qkzconn."):
            for attr, obj in vars(mod).items():
                info = getattr(obj, "cache_info", None)
                if callable(info):
                    out[f"{name}.{attr}"] = info()._asdict()
    return out


def timed_run(stream, seconds: float, cycle: int):
    """Closed loop, one caller: the next request starts when the last one ends.

    Stops at the first whole ``cycle`` of requests after ``seconds``.
    """
    import gate

    tally = gate.Tally()
    deadline = time.perf_counter() + seconds
    for req in stream:
        if tally.attempted % cycle == 0 and time.perf_counter() >= deadline:
            break
        gate.run_request(tally, req)
    return tally


def traced_run(workload: str, stream, trace_path: str):
    """The first cycle of requests: a warm-up pass, an untraced pass, a traced pass.

    The traced minus the untraced pass is the tracing overhead; the warm-up
    pass keeps first-call costs out of both.  Check times come from the
    untraced pass, whose ``Report.timings`` tracing does not inflate.
    """
    import gate
    import spans
    import workloads

    reqs = list(itertools.islice(stream, workloads.CYCLE[workload]))
    tally = gate.Tally()
    for req in reqs:
        gate.run_request(tally, req)
    t0 = time.perf_counter()
    outputs = [gate.run_request(tally, req) for req in reqs]
    untraced_s = time.perf_counter() - t0

    tracer = spans.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    for req in reqs:
        gate.run_request(tally, req, tracer.request_scope)
    traced_s = time.perf_counter() - t0
    tracer.save(trace_path)

    metrics = tracer.layer_metrics()
    metrics.update(check_metrics([o for o in outputs if hasattr(o, "timings")]))
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    return tally, metrics


def check_metrics(reports) -> dict[str, float]:
    """Per-suite check time from ``Report.timings`` and the failed/inconclusive counts."""
    from qkzconn.checks import SUITES

    out = {f"checks.{s}.s": 0.0 for s in SUITES}
    out["checks.failed"] = out["checks.inconclusive"] = 0.0
    for report in reports:
        suite_of = {r.check: r.suite for r in report.results}
        for check, seconds in report.timings.items():
            out[f"checks.{suite_of[check]}.s"] += seconds
        out["checks.failed"] += len(report.failed)
        out["checks.inconclusive"] += len(report.inconclusive)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", help="directory for export files")
    parser.add_argument("--trace-file", help="where the traced run writes its spans")
    args = parser.parse_args()

    warm_up()
    print("ready", flush=True)
    if args.probe:
        return 0

    import workloads

    stream = workloads.STREAMS[args.workload](args.seed, args.scratch)
    result = {"env": environment(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))}
    if args.trace:
        tally, metrics = traced_run(args.workload, stream, args.trace_file)
        result.update(layer_metrics=metrics, trace_file=os.path.relpath(args.trace_file, ROOT))
    else:
        tally = timed_run(stream, args.seconds, workloads.CYCLE[args.workload])
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failures=dict(tally.reasons.most_common(10)),
        latency_s=tally.latency_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
