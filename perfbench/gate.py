"""Output gate of the benchmark: decides whether one request failed.

A request fails when it raises, exits with a non-zero code, or returns a
residual that is not finite, is at or above its tolerance, or (for a
negative control) stays below the tolerance it must break.  Exported JSON is
parsed strictly: ``NaN``, ``Infinity`` and numbers that overflow to infinity
are rejected.

This module imports nothing from qkzconn, so its self-test runs before the
program under test is loaded.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from types import SimpleNamespace
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

#: the exported one-letter unitarity residual of ``qkzconn rmatrix``
UNITARITY_PROBE_TOL = 1e-9

Check = Callable[[object], "str | None"]


@dataclass(frozen=True)
class Request:
    """One closed-loop request: ``run`` does the work, ``check`` gates its output."""

    kind: str
    run: Callable[[], object]
    check: Check


@dataclass
class Tally:
    """Attempted and failed requests, with per-kind latencies in seconds."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    latency_s: dict[str, list[float]] = field(default_factory=dict)

    def record(self, kind: str, seconds: float, reason: str | None) -> None:
        self.attempted += 1
        self.latency_s.setdefault(kind, []).append(seconds)
        if reason is not None:
            self.failed += 1
            self.reasons[f"{kind}: {reason}"] += 1

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_request(tally: Tally, req: Request, scope=nullcontext):
    """Time ``req.run()`` inside ``scope(req.kind)``, gate its output, record both.

    Returns the output, or None when the request raised.  The check runs
    outside the timed region and outside ``scope``.
    """
    t0 = time.perf_counter()
    try:
        with scope(req.kind):
            out = req.run()
    except Exception as exc:  # a raising request is a failed request, not a crash
        tally.record(req.kind, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}")
        return None
    seconds = time.perf_counter() - t0
    try:
        reason = req.check(out)
    except Exception as exc:  # malformed output that the check could not read
        reason = f"check raised {type(exc).__name__}: {exc}"
    tally.record(req.kind, seconds, reason)
    return out


def residual_failure(name: str, value, tol: float, negative_control: bool = False) -> str | None:
    """Reason why ``value`` fails against ``tol``, or None when it passes.

    Uses ``math.isfinite`` explicitly: ``max(0.0, nan)`` is 0.0, so a NaN
    folded into a running maximum would read as a pass.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"{name}: residual {value!r} is not a number"
    if not math.isfinite(value):
        return f"{name}: non-finite residual {value!r}"
    if negative_control:
        return None if value > tol else f"{name}: negative control did not break ({value:.3e} <= {tol:.1e})"
    return None if value < tol else f"{name}: residual {value:.3e} >= tol {tol:.1e}"


def first_failure(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


def check_exit_code(code) -> str | None:
    return None if code == 0 else f"exit code {code!r}"


def check_report(report) -> str | None:
    """Gate a ``qkzconn.checks.Report``: exit code 0 and every residual in range.

    Checks whose id contains ``negative-control`` must break their tolerance.
    """
    reason = check_exit_code(report.exit_code)
    if reason is not None:
        return reason
    for r in report.results:
        if r.status != "ran":
            return f"{r.check}: status {r.status}"
        reason = residual_failure(r.check, r.residual, r.tol, "negative-control" in r.check)
        if reason is not None:
            return reason
        if not r.passed:
            return f"{r.check}: reported as failed"
    return None


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"JSON number {text} overflows to {value}")
    return value


def strict_loads(text: str):
    """``json.loads`` that rejects NaN, Infinity and overflowing numbers."""
    return json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float)


def check_rmatrix_json(text: str) -> str | None:
    """Gate the JSON written by ``qkzconn rmatrix``."""
    payload = strict_loads(text)
    entries = payload["entries"]
    if len(entries) != 9 or any(len(row) != 9 for row in entries):
        return "rmatrix entries are not 9x9"
    probe = payload["residuals"]["unitarity_probe"]
    return residual_failure("unitarity_probe", probe, UNITARITY_PROBE_TOL)


class SelfTestError(RuntimeError):
    pass


def _fake_report(residual: float, tol: float, check: str = "fake-check"):
    """A report that claims success, as ``run_suite`` would return it."""
    result = SimpleNamespace(check=check, status="ran", residual=residual, tol=tol, passed=True)
    return SimpleNamespace(exit_code=0, results=[result])


def selftest() -> Tally:
    """Feed known-bad outputs through ``run_request`` and require each to fail.

    Raises SelfTestError when the gate lets one through or rejects the
    known-good request.
    """
    nan = float("nan")
    bad = {
        "nan residual": Request("t", lambda: nan, lambda r: residual_failure("r", r, 1e-9)),
        "nan in a passing report": Request("t", lambda: _fake_report(nan, 1e-9), check_report),
        "residual at tolerance": Request("t", lambda: 1e-9, lambda r: residual_failure("r", r, 1e-9)),
        "negative control that holds": Request(
            "t", lambda: _fake_report(1e-12, 1e-3, "x-negative-control"), check_report
        ),
        "exit code 1": Request("t", lambda: 1, check_exit_code),
        "exit code 2": Request("t", lambda: 2, check_exit_code),
        "exported NaN": Request(
            "t", lambda: '{"entries": [], "residuals": {"unitarity_probe": NaN}}', check_rmatrix_json
        ),
        "exported overflow": Request(
            "t", lambda: '{"entries": [], "residuals": {"unitarity_probe": 1e999}}', check_rmatrix_json
        ),
        "raises": Request("t", lambda: 1 / 0, check_exit_code),
    }
    good = Request("t", lambda: _fake_report(1e-15, 1e-9), check_report)
    tally = Tally()
    for name, req in bad.items():
        before = tally.failed
        run_request(tally, req)
        if tally.failed != before + 1:
            raise SelfTestError(f"gate self-test: {name!r} was not counted as a failure")
    run_request(tally, good)
    if tally.failed != len(bad) or tally.attempted != len(bad) + 1:
        raise SelfTestError(f"gate self-test: {tally.failed}/{tally.attempted} failed, expected {len(bad)}/{len(bad) + 1}")
    return tally
