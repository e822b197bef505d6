"""Benchmark of qkzconn, run from the root of a checkout.

    python3 perfbench/run.py --workload battery --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table
    python3 perfbench/run.py --selftest              # the output gate's self-test

Each workload runs in a worker process of its own (worker.py) as a closed
loop with one caller, with the BLAS thread count pinned.  ``--trace 0``
measures for ``--seconds`` and reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs a fixed number of requests untraced and
then traced and reports the per-layer metrics.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  Per-run records,
span files and export scratch files go to perfbench/out/.

The program is taken from src/ of the same checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("battery", "transport", "export")
#: set-up is timed this many times by probe processes, plus once by the worker
SETUP_PROBES = 9
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 150.0
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))

import gate  # noqa: E402  (perfbench/ is on sys.path as the script's directory)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start worker.py, return (seconds until it printed ``ready``, rest of stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True
    )
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, rest


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def details(workload: str, latency: dict[str, list[float]], attempted: int, failed: int) -> dict:
    """The per-workload figures named after what they time (fail_frac on every workload)."""
    every = [t for times in latency.values() for t in times]
    out = {
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        "request_ms_p50": {"value": statistics.median(every) * 1e3, "unit": "ms", "n": len(every)},
    }
    if workload == "battery":
        out["battery_s"] = {"value": statistics.median(latency["battery"]), "unit": "s", "n": len(latency["battery"])}
    elif workload == "transport":
        out["transport_s"] = {"value": statistics.median(latency["transport"]), "unit": "s", "n": len(latency["transport"])}
    elif workload == "export":
        conn, rmat = latency.get("connection", []), latency.get("rmatrix", [])
        if conn:
            out["connection_export_s"] = {"value": statistics.median(conn), "unit": "s", "n": len(conn)}
        if rmat:
            p99 = percentile(rmat, 99)
            out["rmatrix_ms_p50"] = {"value": statistics.median(rmat) * 1e3, "unit": "ms", "n": len(rmat)}
            out["rmatrix_ms_p99"] = {"value": p99 * 1e3, "unit": "ms", "beyond": sum(t > p99 for t in rmat)}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    os.makedirs(OUT, exist_ok=True)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        setup = []
        if not trace:
            setup = [run_worker(["--probe"], deadline)[0] for _ in range(SETUP_PROBES)]
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        args += ["--scratch", scratch, "--trace-file", os.path.join(OUT, f"spans-{workload}-seed{seed}.npz")]
        ready_s, rest = run_worker(args, deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    raw = json.loads(rest.strip().splitlines()[-1])
    setup.append(ready_s)

    latency = raw["latency_s"]
    every = [t for times in latency.values() for t in times]
    if trace:
        values = raw["layer_metrics"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": raw["peak_rss_mb"],
            "request_ms_mean": statistics.fmean(every) * 1e3,
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"the run produced no value for {missing}")
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "request_seeds": f"[{seed}, i] for request i" if workload != "battery" else "RunConfig() for every battery",
        "seconds": seconds,
        "trace": trace,
        "env": raw["env"],
        "setup_samples_s": setup,
        "details": details(workload, latency, raw["attempted"], raw["failed"]),
        "failures": raw["failures"],
        "trace_file": raw.get("trace_file"),
        "result": result,
    }
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict) -> None:
    env = record["env"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  trace {record['trace']}\n"
        f"  env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
        f"blas_threads {env['blas_threads']}, nproc {env['nproc']}, program caches {env['program_caches'] or 'none'}"
    )
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:38} {m['value']:>16.6g} {m['unit']}")
    for name, d in record["details"].items():
        extra = "".join(f"  {k}={d[k]}" for k in ("n", "beyond") if k in d)
        print(f"  {name:38} {d['value']:>16.6g} {d['unit']}{extra}")
    for reason, count in record["failures"].items():
        print(f"  FAILED x{count}: {reason}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def selftest() -> int:
    """The pure gate self-test, then one live argparse exit 2 through the CLI."""
    tally = gate.selftest()
    print(f"gate self-test: {tally.failed}/{tally.attempted} injected failures counted, fail_frac {tally.fail_frac:.3f}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    try:
        path = os.path.join(scratch, "export.json")
        live = gate.Tally()
        check = workloads.gate_export(gate.check_rmatrix_json)
        for argv in (["rmatrix", "--x", "-0.4+0.1j", "--out", path], ["rmatrix", "--x=-0.4+0.1j", "--out", path]):
            gate.run_request(live, gate.Request("rmatrix", lambda a=argv: workloads.run_cli(a, path), check))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if (live.failed, live.attempted) != (1, 2):
        raise gate.SelfTestError(f"live CLI self-test: {live.failed}/{live.attempted} failed, expected 1/2")
    print(f"live CLI self-test: `--x -0.4+0.1j` counted as failed ({next(iter(live.reasons))}); `--x=-0.4+0.1j` passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "qkzconn", "__init__.py")):
        print(f"no qkzconn sources under {os.path.join(ROOT, 'src')}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        gate.selftest()
        spec = load_spec()
        seconds = float(args.seconds if args.seconds is not None else spec["run_seconds"])
        if seconds <= 0:
            parser.error("--seconds must be positive")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for workload in names:
            records.append(run_workload(workload, args.seed, seconds, args.trace, spec))
            print_record(records[-1])
    except (BenchError, gate.SelfTestError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
