"""The verification machinery itself: registry, resampling, report shape."""

import ast
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qkzconn import blocks, checks, cli, connection, elliptic, heckespin, qkz, tensorspace
from qkzconn.checks import (
    SUITES,
    ResampleExhausted,
    VerifyContext,
    list_checks,
    resample_sweep,
    run_suite,
)
from qkzconn.elliptic import PoleError, default_params
from qkzconn.params import (
    RunConfig,
    sample_dynamical,
    sample_phi,
    sample_point,
    sample_point_band,
    sample_scalar,
)
from qkzconn.symgroup import content_labels


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


def _walk(rng, cases, point, evaluate_one, own, retries=5):
    # the one-by-one loop: each draw samples its own parameters, then points
    # until one evaluates without a pole
    out = []
    for n, case in cases:
        mine = own(rng, case)
        for _ in range(retries):
            z = point(rng, n)
            try:
                out.append(evaluate_one(case, mine, z))
                break
            except PoleError:
                continue
        else:
            raise ResampleExhausted(f"{retries} pole hits in a row")
    return out


class TestResampling:
    def test_pole_retries_then_gives_up(self):
        calls = []

        def always_pole(draws):
            calls.append(len(draws))
            raise PoleError("synthetic")

        rng = np.random.default_rng(0)
        with pytest.raises(ResampleExhausted):
            resample_sweep(rng, [(2, None)] * 3, sample_point_band, always_pole)
        # one batch of all three draws, then five points of the first draw alone
        assert calls == [3, 1, 1, 1, 1, 1]

    def test_recovers_after_pole(self):
        rng = np.random.default_rng(0)
        first = sample_point_band(np.random.default_rng(0), 2)

        def pole_at_first_point(draws):
            if any(d.z == first for d in draws):
                raise PoleError("synthetic")
            return [42.0] * len(draws)

        verdict = resample_sweep(rng, [(2, None)], sample_point_band, pole_at_first_point)
        assert verdict == checks.Verdict([42.0], {"draws": 1, "pole_resamples": 1})

    @pytest.mark.parametrize("pole_below", [-0.6, -2.0], ids=["poles", "no-poles"])
    def test_sweep_matches_the_walk(self, pole_below):
        # poles on the draws whose first coordinate lies left of pole_below;
        # the residual depends on the case, the draw's own sample and its point
        def residual(case, own, z):
            if z[0].real < pole_below:
                raise PoleError("synthetic")
            return case + own + abs(sum(z))

        batches = []

        def evaluate(draws):
            batches.append(len(draws))
            return [residual(d.case, d.own, d.z) for d in draws]

        def own(rng, case):
            return rng.uniform()

        cases = [(n, float(k)) for k, n in enumerate([2, 3, 4] * 10)]
        rng, replay = np.random.default_rng(11), np.random.default_rng(11)
        verdict = resample_sweep(rng, cases, sample_point_band, evaluate, own)
        want = _walk(replay, cases, sample_point_band, residual, own)
        assert verdict.residuals == want
        assert verdict.detail["draws"] == len(cases)
        assert rng.bit_generator.state == replay.bit_generator.state
        if pole_below > -1.0:
            assert verdict.detail["pole_resamples"] > 0 and batches[0] == len(cases) and set(batches[1:]) == {1}
        else:
            assert verdict.detail["pole_resamples"] == 0 and batches == [len(cases)]

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


def _perm(rng, n):
    rng.integers(math.factorial(n))


def _blocks_draws(site_counts, per_block, own=lambda rng, n: None):
    def draws(ctx, rng):
        for n in site_counts:
            for _ in content_labels(n):
                for _ in range(per_block(n)):
                    own(rng, n)
                    sample_point_band(rng, n)

    return draws


def _phi_band(n):
    def draws(ctx, rng):
        for _ in range(checks.SAMPLES):
            sample_phi(rng), sample_point_band(rng, n)

    return draws


def _routes(ctx, rng):
    for n in (2, 3):
        for _ in range(4):
            _perm(rng, n), sample_point_band(rng, n)


def _translation(ctx, rng):
    for _ in range(5):
        sample_phi(rng), rng.uniform(-2, 2), rng.uniform(-2, 2), sample_scalar(rng, ctx.ep.nome)


def _annulus(ctx, rng):
    for _ in range(200):
        rng.uniform(ctx.ep.nome.p, 1.0), rng.uniform()


def _spectral(count, per_draw):
    # count draws of per_draw spectral parameters e^(u + 2 pi i v)
    def draws(ctx, rng):
        for _ in range(count * per_draw):
            rng.uniform(-1, 1), rng.uniform()

    return draws


#: the draws each batched body made one sample at a time, in that order
#: (no draw at these settings hits a pole, so none is resampled)
SAMPLE_SEQUENCES = {
    "theta-symmetry": _annulus,
    "theta-quasiperiodicity": _annulus,
    "coeff-boundary": lambda ctx, rng: [sample_scalar(rng, ctx.ep.nome) for _ in range(50)],
    "c-periodicity": lambda ctx, rng: [sample_scalar(rng, ctx.ep.nome) for _ in range(20)],
    "qybe": _spectral(checks.SAMPLES, 2),
    "baxterization-closed-form": _spectral(checks.SAMPLES, 1),
    "r-unitarity": _spectral(checks.SAMPLES, 1),
    "dybe-psi": _sweep(checks.SAMPLES),
    "dybe-phi": _sweep(checks.SAMPLES),
    "dybe-xi": _sweep(checks.SAMPLES),
    "dybe-negative-control": _sweep(checks.SAMPLES),
    "felder-form": _sweep(checks.SAMPLES),
    "felder-negative-control": _sweep(5),
    "connection-cocycle": _blocks_draws((2, 3, 4), lambda n: 3, lambda rng, n: (_perm(rng, n), _perm(rng, n))),
    "connection-braid": _blocks_draws((3,), lambda n: 10),
    "connection-unitarity": _blocks_draws((2, 3, 4), lambda n: n - 1),
    "rank2-dynamical": _phi_band(2),
    "rank3-shifted": _phi_band(3),
    "monodromy-routes": _routes,
    "gl2-fixture": lambda ctx, rng: [
        (sample_scalar(rng, ctx.ep.nome), sample_scalar(rng, ctx.ep.nome), sample_dynamical(rng))
        for _ in range(checks.SAMPLES)
    ],
    "dyn-unitarity": lambda ctx, rng: [(sample_phi(rng), sample_scalar(rng, ctx.ep.nome)) for _ in range(30)],
    "weight-conservation": lambda ctx, rng: [(sample_phi(rng), sample_scalar(rng, ctx.ep.nome)) for _ in range(5)],
    "dynamical-translation": _translation,
    "transport-cocycle": _points((2, 3, 4), 3),
    "qkz-flatness": _points((2, 3, 4), 10),
    "qkz-flatness-negative-control": _points((2,), 5),
}


class TestSampleStreams:
    @pytest.mark.parametrize("check_id", sorted(SAMPLE_SEQUENCES))
    def test_batched_body_consumes_the_one_by_one_stream(self, check_id):
        ctx = VerifyContext(RunConfig(n=4))
        (c,) = [c for c in checks._REGISTRY if c.check_id == check_id]
        rng, replay = ctx.rng(check_id), ctx.rng(check_id)
        # through the runner, which drains the residuals: a generator body
        # draws nothing until they are consumed
        ctx.rng = lambda _: rng
        assert checks._run_check(ctx, c).status == "ran"
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

    @pytest.mark.parametrize("seed", [1, 3, 4])
    def test_no_pole_at_large_p(self, seed):
        # theta is about 6e-8 in size at p = 0.85: under an absolute pole
        # threshold of 1e-10, these seeds read ordinary draws as poles
        report = run_suite("dybe", RunConfig(p=0.85, seed=seed))
        assert not report.inconclusive


#: the checks that drew by hand and went inconclusive at the first pole,
#: before they moved onto ``resample_sweep``, with their draw counts
MOVED = {
    "coeff-boundary": 50, "c-periodicity": 20, "qybe": checks.SAMPLES,
    "baxterization-closed-form": checks.SAMPLES, "r-unitarity": checks.SAMPLES,
    "gl2-fixture": checks.SAMPLES, "dybe-psi": checks.SAMPLES, "dybe-phi": checks.SAMPLES,
    "dybe-xi": checks.SAMPLES, "dybe-negative-control": checks.SAMPLES, "dyn-unitarity": 30,
    "felder-form": checks.SAMPLES, "felder-negative-control": 5, "weight-conservation": 5,
    "dynamical-translation": 5,
}

#: every check whose evaluation can hit a pole: each resamples the point
RESAMPLING = (
    *MOVED, "connection-cocycle", "connection-braid", "connection-unitarity", "rank2-dynamical",
    "rank3-shifted", "monodromy-routes", "transport-cocycle", "qkz-flatness",
    "qkz-flatness-negative-control",
)


class TestSweepDetail:
    def test_resampling_checks_report_their_draws(self):
        results = {r.check: r for r in run_suite("all", RunConfig(n=3)).results}
        # no other check draws a point where it can hit a pole
        assert len(RESAMPLING) == 24
        assert {r.check for r in results.values() if "draws" in r.detail} == set(RESAMPLING)
        for check_id in RESAMPLING:
            detail = results[check_id].detail
            assert detail["pole_resamples"] == 0, check_id
            assert detail["draws"] > 0, check_id
        for check_id, draws in MOVED.items():
            assert results[check_id].detail["draws"] == draws, check_id
        # the draw counts of the loops: three per block of n = 2, 3 and ten per block of n = 3
        assert results["connection-cocycle"].detail["draws"] == 3 * (6 + 10)
        assert results["connection-braid"].detail["draws"] == 10 * 10
        assert results["qkz-flatness"].detail["draws"] == 20
        assert results["transport-cocycle"].detail["draws"] == 3 * 2

    @pytest.mark.parametrize("check_id", sorted(MOVED))
    def test_a_planted_pole_is_resampled(self, monkeypatch, check_id):
        # the first two evaluations raise: the batch of every draw, and then
        # the first point of the walk's first draw, which draws the next point
        real = checks.resample_sweep
        calls = []

        def planted(rng, cases, point, evaluate, own=None):
            def poled(draws):
                calls.append(len(draws))
                if len(calls) <= 2:
                    raise PoleError("planted")
                return evaluate(draws)

            return real(rng, cases, point, poled, own)

        monkeypatch.setattr(checks, "resample_sweep", planted)
        (c,) = [c for c in checks._REGISTRY if c.check_id == check_id]
        result = checks._run_check(VerifyContext(RunConfig(n=3)), c)
        assert result.status == "ran" and result.passed, result.detail
        assert result.detail == {"draws": MOVED[check_id], "pole_resamples": 1}
        assert calls == [MOVED[check_id]] + [1] * (MOVED[check_id] + 1)


class TestStackedProducts:
    """Words of one block dimension multiply on ``tensorspace.column_products``."""

    @staticmethod
    def fake_coefficients(ep, y=(), x=(), u=(), c=()):
        # an elementwise stand-in, so one word alone gets the coefficients it gets in a batch
        y, x, u = (np.asarray(t, dtype=complex) for t in (y, x, u))
        return np.cos(y) + 0.3 * x, np.sin(y - x) - 0.2j, 1.0 + 0.5j * u + u * u, None

    @staticmethod
    def dense_product(letters, gammas, xs):
        # each letter's column data filled into a dense matrix, multiplied
        # left to right as 2-d matrices; column c has the spectral vector gammas[c]
        cols = np.arange(len(gammas))
        mat = np.eye(len(gammas), dtype=complex)
        for letter, x in zip(letters, xs):
            y = gammas[cols, letter.gi] - gammas[cols, letter.gj]
            a, b, unit, _ = TestStackedProducts.fake_coefficients(None, y, x, [x])
            moving = letter.kind == connection._MOVING
            m = np.zeros_like(mat)
            m[cols, cols] = np.where(moving, a, np.where(letter.kind == connection._ODD, unit[0], 1.0))
            m[letter.perm[moving], cols[moving]] = letter.sign[moving] * b[moving]
            mat = mat @ m
        return mat

    @staticmethod
    def points(labels, z):
        # x = z_i - z_(i+1) of each letter at the point moved by the letters before it
        z, xs = list(z), []
        for i in labels:
            xs.append(z[i - 1] - z[i])
            z[i - 1], z[i] = z[i], z[i - 1]
        return np.array(xs, dtype=complex)

    @staticmethod
    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_batch_equals_one_word_products(self, monkeypatch):
        monkeypatch.setattr(connection, "coefficients", self.fake_coefficients)
        ep = default_params()
        phi = (0.11 + 0.05j, -0.23 + 0.17j, 0.31 + 0.09j)
        z2, z3 = (0.3 - 0.1j, -0.2j), (0.1 + 0.2j, -0.3 + 0.1j, 0.25 + 0.05j)
        z4 = (0.1j, 0.2, -0.3 + 0.1j, 0.4 + 0.2j)
        # blocks of dimensions 1, 3, 6 (at n = 3 and 4) and 12, with lengths
        # 0 to 6 mixed within each dimension
        contents = [(3, (3, 0, 0)), (3, (2, 1, 0)), (3, (1, 1, 1)), (4, (2, 2, 0)), (4, (2, 1, 1))]
        spec = {(n, r): blocks.content_block(ep, n, r, phi) for n, r in contents}
        words = [
            (spec[3, (1, 1, 1)], (1, 2, 1), z3),
            (spec[3, (2, 1, 0)], (2,), z3),
            (spec[3, (1, 1, 1)], (), z3),
            (spec[4, (2, 1, 1)], (1, 2, 3, 1, 2, 1), z4),
            (spec[3, (1, 1, 1)], (2, 1), z3[::-1]),
            (spec[4, (2, 2, 0)], (1, 3, 2), z4),
            (spec[3, (2, 1, 0)], (1, 2, 1, 2), z3),
            (spec[4, (2, 1, 1)], (3,), z4),
            (spec[3, (3, 0, 0)], (1, 2), z3),
            (spec[3, (3, 0, 0)], (), z3),
        ]
        batch = connection.connection_words(ep, words)
        assert len(batch) == len(words)
        for word, got in zip(words, batch):
            assert np.array_equal(got, connection.connection_words(ep, [word])[0])
            s, labels, z = word
            table = connection._block_table(s.n, s.index_set, s.signs)
            dim = table.perm.shape[1]
            gammas = np.tile(np.array(s.gamma), (dim, 1))
            want = self.dense_product([table.take(i) for i in labels], gammas, self.points(labels, z))
            assert got.shape == (dim, dim)
            assert self.close(got, want)
        # the tensor route: the content groups of n = 3 (dimensions 1, 3 and 6) and of n = 2
        twords = [(phi, (1, 2, 1), z3), (phi, (2,), z3), (phi, (), z3), (phi, (1,), z2), (phi, (2, 1, 2, 1, 2, 1), z3)]
        tbatch = connection.tensor_monodromy_words(ep, twords)
        for word, got in zip(twords, tbatch):
            (one,) = connection.tensor_monodromy_words(ep, [word])
            assert all(np.array_equal(a, b) for a, b in zip(got.stacks, one.stacks))
            _, labels, z = word
            n = len(z)
            rows = [blocks.content_block(ep, n, r, phi).gamma for r in blocks.block_bases(n)]
            start = 0
            for table, stack in zip(connection._tensor_table(n), got.stacks):
                # the group's k blocks of dimension d as one block-diagonal k*d x k*d matrix
                k, d, _ = stack.shape
                gammas = np.repeat(np.array(rows[start : start + k]), d, axis=0)
                want = self.dense_product([table.take(i) for i in labels], gammas, self.points(labels, z))
                block_diag = np.zeros_like(want)
                for j in range(k):
                    block_diag[j * d : (j + 1) * d, j * d : (j + 1) * d] = stack[j]
                assert self.close(block_diag, want)
                start += k


class TestOneEmbedding:
    """Every local operator of the battery is embedded by its column data."""

    def test_suites_build_no_dense_embedding(self, monkeypatch):
        # two_leg_op, and every name the package imported it under, raises
        real = tensorspace.two_leg_op

        def refuse(*args, **kwargs):
            raise AssertionError("a check embedded a local operator densely")

        for name, module in list(sys.modules.items()):
            if name.startswith("qkzconn") and getattr(module, "two_leg_op", None) is real:
                monkeypatch.setattr(module, "two_leg_op", refuse)
        for suite in ("hecke", "connection", "dybe"):
            report = run_suite(suite, RunConfig(n=3))
            assert report.results and all(r.status == "ran" and r.passed for r in report.results), suite


#: the checks that compare words of the generator letters
WORD_PAIR_CHECKS = ("braid-relations", "affine-relations", "y-commutation", "cross-relations", "ytilde-commutation")


class TestGeneratorOperatorsOffThePath:
    """No check and no transport multiplies the generator operators of
    ``SpinRep``: they are built only for the tests' references and the
    benchmark tracer."""

    @pytest.fixture(autouse=True)
    def refuse_generators(self, monkeypatch):
        def refuse(rep):
            raise AssertionError("the generator operators were built")

        monkeypatch.setattr(heckespin.SpinRep, "_generators", property(refuse))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_battery_passes(self, n):
        report = run_suite("all", RunConfig(n=n))
        min_n = {c.check_id: c.min_n for c in checks._REGISTRY}
        assert len(report.results) == 43
        for r in report.results:
            if n < min_n[r.check]:
                assert r.status == "skipped", r.check
            else:
                assert r.status == "ran" and r.passed, r.check
        # at n = 2 there is no braid pair to evaluate, and an empty set would fail
        ran = {r.check for r in report.results if r.status == "ran"}
        assert ("braid-relations" in ran) == (n >= 3)

    def test_transport_calls_run(self, ep, phi, rng):
        n = 6
        rep = heckespin.spin_rep(heckespin.HeckeParams(elliptic=ep, n=n), phi)
        z = sample_point(rng, n, ep.nome)
        assert qkz.flatness_residual(rep, 1, 6, z) < RunConfig().residual_tol
        assert qkz.braid_limit_residual(rep, (1,) + (0,) * (n - 1), 40.0) < 1e-10


class TestWordPairChecksFail:
    @staticmethod
    def poison(monkeypatch):
        # one NaN in the T_1 column entries of the first content group, which
        # t = 0 carries into the T_1^{-1} letter too, and every transport
        # letter of s_1 as well
        real = VerifyContext.rep

        def poisoned(ctx, n):
            rep = real(ctx, n)
            columns = [cols.copy() for cols in rep.columns]
            columns[0][1, 0, 3, 0] = np.nan
            return dataclasses.replace(rep, columns=tuple(columns))

        monkeypatch.setattr(VerifyContext, "rep", poisoned)

    @staticmethod
    def assert_nan_failures(suite, check_ids):
        report = run_suite(suite, RunConfig())
        results = {r.check: r for r in report.results}
        for check_id in check_ids:
            result = results[check_id]
            assert result.status == "ran" and result.passed is False, check_id
            assert math.isnan(result.residual), check_id
        assert report.exit_code == 1

    def test_planted_nan_fails_every_word_pair_check(self, monkeypatch):
        self.poison(monkeypatch)
        self.assert_nan_failures("hecke", WORD_PAIR_CHECKS)

    def test_planted_nan_in_the_middle_fails_braid_relations(self, monkeypatch):
        # plain max keeps a NaN only in first position
        monkeypatch.setattr(heckespin, "word_pair_residuals", lambda rep, pairs: [1e-16, math.nan, 1e-16])
        report = run_suite("hecke", RunConfig())
        (result,) = [r for r in report.results if r.check == "braid-relations"]
        assert result.status == "ran" and result.passed is False
        assert math.isnan(result.residual)
        assert report.exit_code == 1

    def test_planted_nan_fails_every_transport_pair_check(self, monkeypatch):
        # the transport pairs reduce per content group, with no operator built
        self.poison(monkeypatch)
        self.assert_nan_failures("qkz", ("qkz-flatness", "transport-cocycle", "braid-limit"))


class TestOneShiftedBuilder:
    """Every control-shifted R-matrix of the battery comes from
    ``connection._shifted_r``."""

    def test_sign_error_in_the_builder_fails_every_shifted_check(self, monkeypatch):
        # -a in place of a: every shifted equation breaks, and the negated
        # weights of dybe-negative-control then restore the braid form
        real = connection._shifted_r

        def flipped(ep, phi, factors, family, weights):
            return real(ep, phi, [(arg, -a) for arg, a in factors], family, weights)

        monkeypatch.setattr(connection, "_shifted_r", flipped)
        report = run_suite("all", RunConfig())
        failed = {r.check for r in report.failed}
        shifted = {"dybe-psi", "dybe-phi", "dybe-xi", "felder-form", "gl2-fixture", "rank3-shifted"}
        assert shifted | {"dybe-negative-control"} <= failed
        assert report.exit_code == 1


class TestBlockPass:
    """The eigen and sign checks read one ``blocks.block_residuals`` pass per run."""

    def test_one_column_images_call_per_block(self, monkeypatch):
        real = heckespin.column_images
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(heckespin, "column_images", counted)
        assert run_suite("decomposition", RunConfig()).exit_code == 0
        assert len(calls) == sum(len(content_labels(n)) for n in (2, 3, 4)) == 31

    @pytest.mark.parametrize(
        "row, check_ids", [(1, ("eigen-equations",)), (-1, ("sign-map", "sign-exponent-variants"))]
    )
    def test_planted_nan_image_fails(self, monkeypatch, capsys, row, check_ids):
        # one NaN image after the first in every block: row 1 is the image
        # under Y_2, the last row that under the last T_w.  Plain max keeps a
        # NaN only in first position
        real = heckespin.column_images

        def planted(*args):
            out = real(*args)
            out[row] = np.nan
            return out

        monkeypatch.setattr(heckespin, "column_images", planted)
        report = run_suite("decomposition", RunConfig())
        results = {r.check: r for r in report.results}
        for check_id in check_ids:
            result = results[check_id]
            assert result.status == "ran" and result.passed is False, check_id
            assert math.isnan(result.residual), check_id
        assert report.exit_code == 1
        # the export carries the NaN, which the strict encoder refuses
        assert cli.main(["decompose", "--n", "3"]) == 2
        assert capsys.readouterr().out == ""


class TestCPeriodicity:
    def test_scaled_c_fails(self, monkeypatch):
        # c times (3.7 + 2.1i) e^{|x|}: the factor is even, so it cancels in
        # the odd unit and in -c(x)/c(-x) times its reverse, but not in c(x + 1) = c(x)
        real = checks.coefficients

        def scaled(ep, y=(), x=(), u=(), c=()):
            out_a, out_b, unit, out_c = real(ep, y, x, u, c)
            return out_a, out_b, unit, out_c * (3.7 + 2.1j) * np.exp(np.abs(np.asarray(c, dtype=complex)))

        monkeypatch.setattr(checks, "coefficients", scaled)
        (result,) = [r for r in run_suite("elliptic", RunConfig(n=2)).results if r.check == "c-periodicity"]
        assert result.status == "ran" and result.passed is False
        assert result.residual > 0.05


class TestThetaModular:
    """``theta-modular`` referees the sine product S that the coefficients use."""

    def test_passes(self):
        (result,) = [r for r in run_suite("elliptic", RunConfig(n=2)).results if r.check == "theta-modular"]
        assert result.status == "ran" and result.passed and result.residual < 1e-12

    def test_a_sign_error_in_s_fails_it(self, monkeypatch):
        # S without the sign (-1)^k of its reduction by k: every quotient of
        # the coefficient checks shifts both arguments alike, so they pass,
        # and only the product route sees it
        real = elliptic._sine

        def planted(log_p, y, err=0.0):
            j, yk, sine, mant = real(log_p, y, err)
            return j, yk, sine, mant * (1.0 - 2.0 * np.abs(np.fmod(np.round(y.real), 2.0)))

        monkeypatch.setattr(elliptic, "_sine", planted)
        monkeypatch.setattr(checks, "_sine", planted)
        results = {r.check: r for r in run_suite("elliptic", RunConfig(n=2)).results}
        assert results["theta-modular"].passed is False
        assert results["theta-modular"].residual > 1.0
        assert results["c-periodicity"].passed and results["coeff-boundary"].passed


class TestTransportCocycle:
    """``transport-cocycle`` compares two distinct words for one group element."""

    def test_every_case_compares_two_distinct_words(self, monkeypatch):
        real = qkz.transport_pair_residuals
        batches = []

        def recording(rep, words):
            batches.append([w for w, _ in words])
            return real(rep, words)

        monkeypatch.setattr(qkz, "transport_pair_residuals", recording)
        (check,) = [c for c in checks._REGISTRY if c.check_id == "transport-cocycle"]
        result = checks._run_check(checks.VerifyContext(RunConfig()), check)
        assert result.status == "ran" and result.passed
        assert 0.0 < result.residual < result.tol
        pairs = [pair for words in batches for pair in zip(words[::2], words[1::2])]
        assert sorted({lhs.n for lhs, _ in pairs}) == [2, 3, 4]
        assert len(pairs) >= 9
        for lhs, rhs in pairs:
            probe = tuple(complex(10 * (k + 1), k) for k in range(lhs.n))
            assert lhs.letters != rhs.letters
            assert lhs.point_action(probe) == rhs.point_action(probe)


class TestConnectionBraid:
    def test_two_words_per_draw(self, monkeypatch):
        # s1 s2 s1 against s2 s1 s2; the reduced word of w121 is s1 s2 s1 itself
        real = connection.connection_words
        sizes = []

        def recording(ep, words):
            sizes.append(len(words))
            return real(ep, words)

        monkeypatch.setattr(connection, "connection_words", recording)
        (check,) = [c for c in checks._REGISTRY if c.check_id == "connection-braid"]
        result = checks._run_check(checks.VerifyContext(RunConfig(n=3)), check)
        assert result.status == "ran" and result.passed
        assert sizes == [2 * result.detail["draws"]] == [2 * 10 * 10]


class TestMonodromyRoutes:
    """``monodromy-routes`` compares two constructions that build their letters apart."""

    @staticmethod
    def flip_first_exchange_sign(table):
        # the exchange sign of the first moving column of s_1
        col = int(np.argmax(table.kind[1] == connection._MOVING))
        sign = table.sign.copy()
        sign[1, col] = -sign[1, col]
        return table._replace(sign=sign)

    @staticmethod
    def routes_result():
        results = run_suite("connection", RunConfig()).results
        return next(r for r in results if r.check == "monodromy-routes")

    def test_a_wrong_sign_in_the_tensor_route_fails(self, monkeypatch):
        original = connection._tensor_table

        def patched(n):
            # one sign, in the 6-dimensional block of n = 3 (content (1, 1, 1))
            tables = original(n)
            return tuple(self.flip_first_exchange_sign(t) if n == 3 and t.perm.shape[1] == 6 else t for t in tables)

        assert self.routes_result().passed
        monkeypatch.setattr(connection, "_tensor_table", patched)
        result = self.routes_result()
        assert result.status == "ran" and not result.passed

    def test_a_wrong_sign_in_the_block_route_fails(self, monkeypatch):
        original = connection._block_table

        def patched(n, index_set, signs):
            # one sign, in the block of n = 3 with no index set (content (1, 1, 1))
            table = original(n, index_set, signs)
            return self.flip_first_exchange_sign(table) if (n, index_set) == (3, ()) else table

        monkeypatch.setattr(connection, "_block_table", patched)
        # a fresh cache of the block letters in the tensor basis, built from the patched table
        monkeypatch.setattr(connection, "_scattered_table", functools.cache(connection._scattered_table.__wrapped__))
        result = self.routes_result()
        assert result.status == "ran" and not result.passed


class TestVerdictRule:
    """The runner derives each verdict from the registration and the body's output."""

    @pytest.mark.parametrize(
        "check_id, out, status, passed",
        [
            ("some-law", 1e-12, "ran", True),
            ("some-law", 1e-3, "ran", False),
            ("some-negative-control", 1e-12, "ran", False),
            ("some-negative-control", 1.0, "ran", True),
            ("some-law", checks.Verdict([1e-12], {"k": 1}, holds=False), "ran", False),
        ],
    )
    def test_outcome(self, check_id, out, status, passed):
        # a number r stands for the body's one residual, [r]
        residuals = out if isinstance(out, checks.Verdict) else [out]
        c = checks._Check(check_id, "hecke", "law", 1e-9, 2, lambda ctx, rng: residuals)
        result = checks._run_check(VerifyContext(RunConfig(n=2)), c)
        assert (result.status, result.passed, result.tol) == (status, passed, 1e-9)

    #: the forms a body may return its residuals in
    FORMS = {
        "list": list,
        "array": np.array,
        "generator": lambda values: (v for v in values),
        "verdict": lambda values: checks.Verdict(values, {"k": 1}),
    }

    @classmethod
    def run(cls, check_id, form, values):
        c = checks._Check(check_id, "hecke", "law", 1e-9, 2, lambda ctx, rng: cls.FORMS[form](values))
        return checks._run_check(VerifyContext(RunConfig(n=2)), c)

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize(
        "check_id, values, passed",
        [
            ("some-law", [1e-12, 1e-10, 1e-11], True),
            ("some-law", [1e-12, 1e-3, 1e-11], False),
            ("some-negative-control", [1e-12, 1.0, 1e-11], True),
            ("some-negative-control", [1e-12, 1e-10, 1e-11], False),
        ],
    )
    def test_the_runner_takes_the_largest_residual(self, form, check_id, values, passed):
        result = self.run(check_id, form, values)
        assert (result.status, result.passed, result.residual) == ("ran", passed, max(values))
        assert result.detail == ({"k": 1} if form == "verdict" else {})

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("check_id, value", [("some-law", 1e-12), ("some-negative-control", 1.0)])
    @pytest.mark.parametrize("place", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_residual_anywhere_fails(self, form, check_id, value, place, bad):
        values = [value] * 3
        values[place] = bad
        result = self.run(check_id, form, values)
        assert result.status == "ran" and result.passed is False
        assert math.isnan(result.residual)

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("check_id", ["some-law", "some-negative-control"])
    def test_no_residual_fails(self, form, check_id):
        result = self.run(check_id, form, [])
        assert result.status == "ran" and result.passed is False
        assert math.isnan(result.residual)

    def test_an_error_while_consuming_is_inconclusive(self):
        def body(ctx, rng):
            yield 1e-12
            raise PoleError("synthetic")

        c = checks._Check("lazy", "hecke", "law", 1e-9, 2, body)
        result = checks._run_check(VerifyContext(RunConfig(n=2)), c)
        assert result.status == "inconclusive" and result.passed is False
        assert "PoleError" in result.detail["error"]

    def test_skip_below_min_n(self):
        c = checks._Check("needs-three", "hecke", "law", None, 3, lambda ctx, rng: [0.0])
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

    def test_misspelt_translation_word_fails(self, monkeypatch):
        # the left part reversed, s_1 .. s_{j-1} xi s_{n-1} .. s_j, misses
        # the unit shift from j = 3 on; the check reports it, nothing raises
        def misspelt(n, j):
            left = [qkz.s_letter(i) for i in range(1, j)]
            right = [qkz.s_letter(i) for i in range(n - 1, j - 1, -1)]
            return qkz.affine_word(n, left + [qkz.XI] + right)

        monkeypatch.setattr(qkz, "translation_word", misspelt)
        report = run_suite("qkz", RunConfig())
        (result,) = [r for r in report.results if r.check == "translation-words"]
        assert result.status == "ran" and result.passed is False
        assert result.detail["failures"] == [(3, 3), (4, 3), (4, 4)]
        assert report.exit_code == 1

    def test_zero_braid_limit_residual_fails(self, monkeypatch):
        monkeypatch.setattr(qkz, "braid_limit_residual", lambda rep, lam, depth: 0.0)
        report = run_suite("qkz", RunConfig(n=2))
        (result,) = [r for r in report.results if r.check == "braid-limit"]
        assert result.status == "ran" and result.passed is False
        assert math.isnan(result.detail["slope_relative_error"])
        assert report.exit_code == 1
