"""The verification machinery itself: registry, resampling, report shape."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qkzconn import checks, qkz
from qkzconn.checks import (
    SUITES,
    ResampleExhausted,
    VerifyContext,
    list_checks,
    run_suite,
)
from qkzconn.elliptic import PoleError
from qkzconn.params import RunConfig, sample_phi, sample_point, sample_scalar


class TestRegistry:
    def test_ids_unique(self):
        ids = [cid for cid, _, _ in list_checks()]
        assert len(ids) == len(set(ids))

    def test_every_suite_populated(self):
        for suite in SUITES:
            assert list_checks(suite)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope", RunConfig(n=2))


class TestResampling:
    def test_pole_retries_then_gives_up(self):
        ctx = VerifyContext(RunConfig(n=2))
        calls = []

        def always_pole(z):
            calls.append(z)
            raise PoleError("synthetic")

        rng = np.random.default_rng(0)
        with pytest.raises(ResampleExhausted):
            ctx.eval_resampling(rng, 2, always_pole, retries=5)
        assert len(calls) == 5

    def test_recovers_after_pole(self):
        ctx = VerifyContext(RunConfig(n=2))
        state = {"first": True}

        def once(z):
            if state["first"]:
                state["first"] = False
                raise PoleError("synthetic")
            return 42.0

        rng = np.random.default_rng(0)
        assert ctx.eval_resampling(rng, 2, once) == 42.0

    def test_per_check_rng_is_stable(self):
        ctx = VerifyContext(RunConfig(n=2, seed=5))
        a = ctx.rng("some-check").uniform(size=3)
        b = ctx.rng("some-check").uniform(size=3)
        c = ctx.rng("other-check").uniform(size=3)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def _sweep(count):
    def draws(ctx, rng):
        for _ in range(count):
            sample_phi(rng), sample_scalar(rng, ctx.ep.nome), sample_scalar(rng, ctx.ep.nome)

    return draws


def _points(site_counts, per_n):
    def draws(ctx, rng):
        for n in site_counts:
            for _ in range(per_n):
                sample_point(rng, n, ctx.ep.nome)

    return draws


def _annulus(ctx, rng):
    for _ in range(200):
        rng.uniform(ctx.ep.nome.p, 1.0), rng.uniform()


#: the draws each batched body made one sample at a time, in that order
#: (no draw at these settings hits a pole, so none is resampled)
SAMPLE_SEQUENCES = {
    "theta-symmetry": _annulus,
    "theta-quasiperiodicity": _annulus,
    "coeff-boundary": lambda ctx, rng: [sample_scalar(rng, ctx.ep.nome) for _ in range(50)],
    "c-ratio-inverse": lambda ctx, rng: [sample_scalar(rng, ctx.ep.nome) for _ in range(20)],
    "dybe-psi": _sweep(checks.SAMPLES),
    "dybe-phi": _sweep(checks.SAMPLES),
    "dybe-xi": _sweep(checks.SAMPLES),
    "dybe-negative-control": _sweep(checks.SAMPLES),
    "felder-form": _sweep(checks.SAMPLES),
    "felder-negative-control": _sweep(5),
    "transport-cocycle": _points((2, 3, 4), 3),
    "qkz-flatness": _points((2, 3, 4), 10),
    "qkz-flatness-negative-control": _points((2,), 5),
}


class TestSampleStreams:
    @pytest.mark.parametrize("check_id", sorted(SAMPLE_SEQUENCES))
    def test_batched_body_consumes_the_one_by_one_stream(self, check_id):
        ctx = VerifyContext(RunConfig(n=4))
        (body,) = [c.fn for c in checks._REGISTRY if c.check_id == check_id]
        rng = ctx.rng(check_id)
        body(ctx, rng)
        replay = ctx.rng(check_id)
        SAMPLE_SEQUENCES[check_id](ctx, replay)
        assert rng.bit_generator.state == replay.bit_generator.state


class TestReport:
    def test_exit_codes(self):
        report = run_suite("elliptic", RunConfig(n=2))
        assert report.exit_code == 0
        assert not report.failed and not report.inconclusive

    def test_degenerate_parameters_short_circuit(self):
        report = run_suite("elliptic", RunConfig(n=2, kappa=0.5))
        assert report.exit_code == 2
        assert report.results[0].status == "inconclusive"
        assert "violations" in report.results[0].detail

    def test_timings_populated(self):
        report = run_suite("elliptic", RunConfig(n=2))
        assert set(report.timings) == {r.check for r in report.results}


class TestVerdictRule:
    """The runner derives each verdict from the registration and the body's output."""

    @pytest.mark.parametrize(
        "check_id, out, status, passed",
        [
            ("some-law", 1e-12, "ran", True),
            ("some-law", 1e-3, "ran", False),
            ("some-negative-control", 1e-12, "ran", False),
            ("some-negative-control", 1.0, "ran", True),
            ("some-law", checks.Verdict(1e-12, {"k": 1}, holds=False), "ran", False),
        ],
    )
    def test_outcome(self, check_id, out, status, passed):
        c = checks._Check(check_id, "hecke", "law", 1e-9, 2, lambda ctx, rng: out)
        result = checks._run_check(VerifyContext(RunConfig(n=2)), c)
        assert (result.status, result.passed, result.tol) == (status, passed, 1e-9)

    def test_skip_below_min_n(self):
        c = checks._Check("needs-three", "hecke", "law", None, 3, lambda ctx, rng: 0.0)
        result = checks._run_check(VerifyContext(RunConfig(n=2)), c)
        assert (result.status, result.passed, result.detail) == ("skipped", True, {"reason": "needs n >= 3"})

    def test_not_generic_is_inconclusive(self):
        def body(ctx, rng):
            raise checks.NotGeneric([["collision", 0, 1]])

        c = checks._Check("generic", "decomposition", "law", 0.5, 2, body)
        result = checks._run_check(VerifyContext(RunConfig(n=2)), c)
        assert result.status == "inconclusive" and result.passed is False
        assert result.detail["violations"] == [["collision", 0, 1]]


class TestNonFiniteResiduals:
    def test_injected_nan_fails_the_check(self, monkeypatch):
        # a NaN after the first draw: plain max(worst, nan) would keep worst
        real = checks.rel_residual
        calls = []

        def nan_on_second_call(a, b):
            calls.append(1)
            return math.nan if len(calls) == 2 else real(a, b)

        monkeypatch.setattr(checks, "rel_residual", nan_on_second_call)
        report = run_suite("dybe", RunConfig(n=2))
        (result,) = [r for r in report.results if r.check == "dyn-unitarity"]
        assert len(calls) > 2
        assert result.passed is False
        assert math.isnan(result.residual)
        assert report.exit_code == 1

    def test_evaluation_errors_are_inconclusive(self, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowError("synthetic")

        monkeypatch.setattr(checks, "coefficients", overflow)
        report = run_suite("elliptic", RunConfig(n=2))
        (result,) = [r for r in report.results if r.check == "coeff-boundary"]
        assert result.status == "inconclusive"
        assert "OverflowError" in result.detail["error"]
        assert report.exit_code == 2


class TestChecksWithoutAssert:
    """Checks must not depend on ``assert``, which ``python -O`` strips."""

    def test_no_assert_statements(self):
        for path in sorted(Path(checks.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not lines, f"{path.name} asserts on lines {lines}"

    def test_wrong_translation_word_fails(self, monkeypatch):
        real = qkz.translation_word
        # the word for e_{j+1} in place of e_j: a wrong word that raises nothing
        monkeypatch.setattr(qkz, "translation_word", lambda n, j: real(n, j % n + 1))
        report = run_suite("qkz", RunConfig(n=2))
        (result,) = [r for r in report.results if r.check == "translation-words"]
        assert result.passed is False
        assert result.detail["failures"] == [(2, 1), (2, 2)]

    def test_zero_braid_limit_residual_fails(self, monkeypatch):
        monkeypatch.setattr(qkz, "braid_limit_residual", lambda rep, lam, depth: 0.0)
        report = run_suite("qkz", RunConfig(n=2))
        (result,) = [r for r in report.results if r.check == "braid-limit"]
        assert result.status == "ran" and result.passed is False
        assert math.isnan(result.detail["slope_relative_error"])
        assert report.exit_code == 1
