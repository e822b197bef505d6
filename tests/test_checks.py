"""The verification machinery itself: registry, resampling, report shape."""

import ast
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from qkzconn import blocks, checks, connection, heckespin, qkz, tensorspace
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
            resample_sweep(rng, [(2, None)] * 3, sample_point_band, always_pole, retries=5)
        # one batch of all three draws, then five points of the first draw alone
        assert calls == [3, 1, 1, 1, 1, 1]

    def test_recovers_after_pole(self):
        rng = np.random.default_rng(0)
        first = sample_point_band(np.random.default_rng(0), 2)

        def pole_at_first_point(draws):
            if any(d.z == first for d in draws):
                raise PoleError("synthetic")
            return [42.0] * len(draws)

        sweep = resample_sweep(rng, [(2, None)], sample_point_band, pole_at_first_point)
        assert sweep == ([42.0], 1)

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
        sweep = resample_sweep(rng, cases, sample_point_band, evaluate, own)
        want = _walk(replay, cases, sample_point_band, residual, own)
        assert sweep.residuals == want
        assert rng.bit_generator.state == replay.bit_generator.state
        if pole_below > -1.0:
            assert sweep.pole_resamples > 0 and batches[0] == len(cases) and set(batches[1:]) == {1}
        else:
            assert sweep.pole_resamples == 0 and batches == [len(cases)]

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
    "dynamical-translation": _translation,
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


#: the checks whose sweeps resample a point on a pole
RESAMPLING = (
    "connection-cocycle", "connection-braid", "connection-unitarity", "rank2-dynamical",
    "rank3-shifted", "monodromy-routes", "transport-cocycle", "qkz-flatness",
    "qkz-flatness-negative-control",
)


class TestSweepDetail:
    def test_resampling_checks_report_their_draws(self):
        results = {r.check: r for s in ("connection", "qkz") for r in run_suite(s, RunConfig(n=3)).results}
        for check_id in RESAMPLING:
            detail = results[check_id].detail
            assert detail["pole_resamples"] == 0, check_id
            assert detail["draws"] > 0, check_id
        # the draw counts of the loops: three per block of n = 2, 3 and ten per block of n = 3
        assert results["connection-cocycle"].detail["draws"] == 3 * (6 + 10)
        assert results["connection-braid"].detail["draws"] == 10 * 10
        assert results["qkz-flatness"].detail["draws"] == 20


class TestStackedProducts:
    """Words of one block dimension multiply on ``tensorspace.column_products``."""

    @staticmethod
    def fake_coefficients(ep, a=((), ()), b=((), ()), u=(), c=()):
        # an elementwise stand-in, so one word alone gets the coefficients it gets in a batch
        ya, xa = (np.asarray(t, dtype=complex) for t in a)
        yb, xb = (np.asarray(t, dtype=complex) for t in b)
        u = np.asarray(u, dtype=complex)
        return np.cos(ya) + 0.3 * xa, np.sin(yb - xb) - 0.2j, 1.0 + 0.5j * u + u * u, None

    @staticmethod
    def dense_product(letters, gammas, xs):
        # each letter's column data filled into a dense matrix, multiplied
        # left to right as 2-d matrices; column c has the spectral vector gammas[c]
        cols = np.arange(len(gammas))
        mat = np.eye(len(gammas), dtype=complex)
        for letter, x in zip(letters, xs):
            y = gammas[cols, letter.gi] - gammas[cols, letter.gj]
            a, b, unit, _ = TestStackedProducts.fake_coefficients(None, (y, x), (y, x), [x])
            moving = letter.kind == connection._MOVING
            m = np.zeros_like(mat)
            m[cols, cols] = np.where(moving, a, np.where(letter.kind == connection._ODD, unit[0], 1.0))
            m[letter.perm[moving], cols[moving]] = letter.sign[moving] * b[moving]
            mat = mat @ m
        return mat

    @staticmethod
    def points(labels, z):
        # x of each letter at the point moved by the letters before it
        return connection._word_plan([(labels, z)])[1][: len(labels), 0]

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
            rows = [blocks.content_block(ep, n, r, phi).gamma for r, _, _ in connection._layout_blocks(n)]
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

    @pytest.mark.parametrize("n", [4, 6])
    def test_battery_passes(self, n):
        report = run_suite("all", RunConfig(n=n))
        assert len(report.results) == 42
        assert all(r.status == "ran" and r.passed for r in report.results)

    def test_transport_calls_run(self, ep, phi, rng):
        n = 6
        rep = heckespin.spin_rep(heckespin.HeckeParams(elliptic=ep, n=n), phi)
        z = sample_point(rng, n, ep.nome)
        assert qkz.flatness_residual(rep, 1, 6, z) < RunConfig().residual_tol
        assert qkz.braid_limit_residual(rep, (1,) + (0,) * (n - 1), 40.0) < 1e-10


class TestWordPairChecksFail:
    def test_planted_nan_fails_every_word_pair_check(self, monkeypatch):
        # one NaN in the T_1 column entries of the first content group, which
        # t = 0 carries into the T_1^{-1} letter too
        real = VerifyContext.rep

        def poisoned(ctx, n):
            rep = real(ctx, n)
            columns = [cols.copy() for cols in rep.columns]
            columns[0][1, 0, 3, 0] = np.nan
            return dataclasses.replace(rep, columns=tuple(columns))

        monkeypatch.setattr(VerifyContext, "rep", poisoned)
        report = run_suite("hecke", RunConfig())
        results = {r.check: r for r in report.results}
        for check_id in WORD_PAIR_CHECKS:
            result = results[check_id]
            assert result.status == "ran" and result.passed is False, check_id
            assert math.isnan(result.residual), check_id
        assert report.exit_code == 1


class TestTransportCocycle:
    """``transport-cocycle`` compares two distinct words for one group element."""

    def test_every_case_compares_two_distinct_words(self, monkeypatch):
        real = qkz.transport_words
        batches = []

        def recording(rep, words):
            batches.append([w for w, _ in words])
            return real(rep, words)

        monkeypatch.setattr(qkz, "transport_words", recording)
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
