"""Acceptance gate: every quantitative criterion at its stated tolerance.

Each criterion is a row of ``CRITERIA``: the registered checks that test its
laws, the criterion's tolerance for each check's worst residual, and its
time bound.  The gate reads one ``run_suite("all", RunConfig())`` report, the
battery at the shipped defaults; a criterion passes when each of its checks
passed, each residual meets the criterion's tolerance (a negative control
must exceed it) and the checks' summed run time is within the bound.  One
test per criterion, each printing a single pass/fail line.
"""

import time
from typing import NamedTuple

import pytest

from qkzconn import checks
from qkzconn.params import RunConfig


class Criterion(NamedTuple):
    text: str
    tols: dict[str, float]  # registered check id -> the criterion's tolerance
    seconds: float | None = None  # bound on the checks' summed run time


CRITERIA = {
    1: Criterion("quadratic Hecke relation", {"hecke-relation": 1e-12}, 1e-3),
    2: Criterion(
        "quantum Yang-Baxter equation, Baxterization and unitarity",
        {"qybe": 1e-10, "baxterization-closed-form": 1e-12, "r-unitarity": 1e-10},
        1.0,
    ),
    3: Criterion(
        "block decomposition over n = 2, 3, 4",
        {"dimension-count": 1e-10, "eigen-equations": 1e-10, "sign-map": 1e-10},
        30.0,
    ),
    4: Criterion("spectrum glueing", {"spectrum-glueing": 1e-6}, 10.0),
    5: Criterion(
        "connection cocycle, braid relation and unitarity",
        {"connection-cocycle": 1e-9, "connection-braid": 1e-9, "connection-unitarity": 1e-9},
        60.0,
    ),
    6: Criterion("two-site monodromy is the dynamical R-matrix", {"rank2-dynamical": 1e-9}),
    7: Criterion("three-site control-shift identities", {"rank3-shifted": 1e-9}),
    8: Criterion(
        "braid-form dynamical Yang-Baxter families",
        {
            "dybe-psi": 1e-9,
            "dybe-phi": 1e-9,
            "dybe-xi": 1e-9,
            "dyn-unitarity": 1e-9,
            "dybe-negative-control": 1e-3,
        },
    ),
    9: Criterion("permuted-form dynamical Yang-Baxter equation", {"felder-form": 1e-9}),
    10: Criterion("two-state fixture", {"gl2-fixture": 1e-9}),
    11: Criterion("qKZ flatness and braid limit", {"qkz-flatness": 1e-9, "braid-limit": 1e-10}),
    12: Criterion("sign exponent resolution", {"sign-exponent-variants": 1e-10}),
}


@pytest.fixture(scope="module")
def report():
    return checks.run_suite("all", RunConfig())


def warm_seconds(check_id: str) -> float:
    """Wall time of one call of a registered check body after a warm call."""
    (check,) = [c for c in checks._REGISTRY if c.check_id == check_id]
    ctx = checks.VerifyContext(RunConfig())
    check.fn(ctx, ctx.rng(check_id))
    rng = ctx.rng(check_id)
    t0 = time.perf_counter()
    check.fn(ctx, rng)
    return time.perf_counter() - t0


def gate(num: int, report, seconds: float | None = None) -> None:
    crit = CRITERIA[num]
    results = {r.check: r for r in report.results if r.check in crit.tols}
    assert set(results) == set(crit.tols), f"criterion {num} names unregistered checks"
    ok = True
    parts = []
    for check_id, tol in crit.tols.items():
        r = results[check_id]
        res = float("nan") if r.residual is None else r.residual
        within = res > tol if "negative-control" in check_id else res < tol
        ok = ok and r.passed and r.status == "ran" and within
        parts.append(f"{check_id} {res:.2e}")
    if seconds is None:
        seconds = sum(report.timings[c] for c in crit.tols)
    if crit.seconds is not None:
        ok = ok and seconds < crit.seconds
    text = f"{crit.text}: {', '.join(parts)} in {seconds * 1e3:.3f} ms"
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_hecke_relation(report):
    gate(1, report, seconds=warm_seconds("hecke-relation"))


def test_criterion_02_qybe_and_unitarity(report):
    gate(2, report)


def test_criterion_03_decomposition(report):
    gate(3, report)


def test_criterion_04_spectrum_glueing(report):
    gate(4, report)


def test_criterion_05_connection_laws(report):
    gate(5, report)


def test_criterion_06_rank2_identity(report):
    gate(6, report)


def test_criterion_07_rank3_identities(report):
    gate(7, report)


def test_criterion_08_dybe_families(report):
    gate(8, report)


def test_criterion_09_felder_form(report):
    gate(9, report)


def test_criterion_10_gl2_fixture(report):
    gate(10, report)


def test_criterion_11_qkz_flatness_and_limit(report):
    gate(11, report)


def test_criterion_12_sign_exponent_resolution(report):
    gate(12, report)
