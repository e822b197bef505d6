"""Block data, joint-eigenvector checks and the glued spectrum."""

import math
import types

import numpy as np
import pytest

from qkzconn import blocks, connection, heckespin
from qkzconn.blocks import (
    PrincipalSeriesSpec,
    block_residuals,
    character_values,
    content_block,
    dimension_count,
    genericity_report,
    greedy_match_distance,
    predicted_y_tilde_spectrum,
    spectrum_match_residual,
    validate_spec,
)
from qkzconn.elliptic import pow_p
from qkzconn.symgroup import content, content_labels, content_stabiliser, eta_exponent, min_coset_reps, rep_of_index
from qkzconn.tensorspace import block_layout, tensor_index


def half_period(ep):
    return -1j * math.pi / ep.nome.log_p


class TestBlockData:
    def test_unmixed_block(self, ep, phi):
        n = 3
        spec = content_block(ep, n, (3, 0, 0), phi)
        assert spec.index_set == (1, 2)
        assert spec.signs == (1, 1)
        validate_spec(ep, spec)

    def test_all_singletons(self, ep, phi):
        spec = content_block(ep, 3, (1, 1, 1), phi)
        assert spec.index_set == ()
        want = (
            2 * half_period(ep) + phi[2],
            half_period(ep) + phi[1],
            half_period(ep) + phi[0],
        )
        assert np.allclose(spec.gamma, want)

    def test_two_even_one_odd(self, ep, phi):
        spec = content_block(ep, 3, (0, 2, 1), phi)
        assert spec.index_set == (2,)
        assert spec.signs == (1,)
        k = ep.kappa
        want = (
            2 * half_period(ep) + phi[2],
            half_period(ep) + phi[1] + k,
            half_period(ep) + phi[1] - k,
        )
        assert np.allclose(spec.gamma, want)

    def test_membership_always_holds(self, ep, phi):
        for n in (2, 3, 4):
            for r in content_labels(n):
                validate_spec(ep, content_block(ep, n, r, phi))

    def test_sign_pattern(self, ep, phi):
        spec = content_block(ep, 5, (1, 1, 3), phi)
        # indices below the odd-entry count carry the minus sign
        for i, s in zip(spec.index_set, spec.signs):
            assert s == (-1 if i < 3 else 1)

    def test_rejects_bad_content(self, ep, phi):
        with pytest.raises(ValueError):
            content_block(ep, 3, (1, 1, 2), phi)

    @pytest.mark.parametrize("kappa", [0.27, 0.3 - 0.05j, complex(0.27, 0.0), complex(0.0, -0.0)])
    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    def test_batched_spectral_vectors_are_the_scalar_ones_bit_for_bit(self, rng, n, kappa, monkeypatch):
        # the spectral vectors tensor_monodromy_words plans, for repeated and
        # distinct twists, against those content_block builds one at a time,
        # signed zeros of the twist included: one _block_gamma_raw call per
        # distinct twist and content, one vector per block of the layout
        ep = types.SimpleNamespace(nome=types.SimpleNamespace(log_p=-1.05), kappa=kappa)
        phis = [tuple(complex(*rng.normal(size=2)) for _ in range(3)) for _ in range(3)]
        phis += [(complex(-0.0, 0.0), complex(0.0, -0.0), 0j), (0j, 0j, 0j), phis[0], phis[2]]
        calls, plan = [], []

        def counted(*args):
            calls.append(args)
            return blocks._block_gamma_raw(*args)

        def captured(ep, words):
            plan.extend(words)
            raise StopIteration

        monkeypatch.setattr(connection, "_block_gamma_raw", counted)
        monkeypatch.setattr(connection, "_products", captured)
        with pytest.raises(StopIteration):
            connection.tensor_monodromy_words(ep, [(phi, (1,), tuple(0.1j * k for k in range(n))) for phi in phis])
        rs = list(blocks.block_bases(n))
        assert len(calls) == 5 * len(rs)
        got = np.array([gamma for _, _, _, gamma in plan], dtype=complex)
        want = np.array([[content_block(ep, n, r, phi).gamma for r in rs] for phi in phis])
        assert got.shape == want.shape == (len(phis), len(rs), n)
        assert got.tobytes() == want.tobytes()
        # the parts are the content groups of the layout, which read the blocks in turn
        layout = block_layout(n)
        for _, _, parts, _ in plan:
            assert [(t.perm.shape[1], d) for t, d in parts] == [(idx.size, idx.shape[1]) for idx in layout.index]


class TestBlockBases:
    """``block_bases(n)`` against references built apart from it."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_basis_map(self, n):
        bases = blocks.block_bases(n)
        layout = block_layout(n)
        # one entry per block, in layout order
        rows = [row for idx in layout.index for row in idx]
        assert len(bases) == len(rows)
        for (r, basis), row in zip(bases.items(), rows):
            assert sorted(layout.digits[row[0]].tolist()) == sorted([0] * r[0] + [1] * r[1] + [2] * r[2])
            assert basis.reps == tuple(sorted(basis.reps))
            assert basis.reps == min_coset_reps(n, content_stabiliser(n, r))
            assert len(basis.images) == len(basis.places) == len(basis.signs) == len(basis.strict_signs) == len(row)
            for w, image, place, sign, strict in zip(*basis):
                assert content(image) == r
                assert rep_of_index(image) == w
                assert place == layout.pos[tensor_index(image)]
                assert sign == (-1) ** eta_exponent(w, r)
                assert strict == (-1) ** eta_exponent(w, r, inclusive=False)
                assert type(place) is int and type(sign) is int and type(strict) is int
            assert sorted(basis.places) == list(range(len(row)))

    def test_built_once_and_read_only(self):
        assert blocks.block_bases(3) is blocks.block_bases(3)
        with pytest.raises(TypeError):
            blocks.block_bases(3)[(3, 0, 0)] = None


class TestCharacter:
    def test_plus_sign_value(self, ep, phi):
        spec = content_block(ep, 2, (2, 0, 0), phi)
        q = pow_p(ep, -ep.kappa)
        vals = character_values(ep, spec)
        assert dict(vals.t_values)[1] == pytest.approx(q)

    def test_minus_sign_value(self, ep, phi):
        spec = content_block(ep, 2, (0, 0, 2), phi)
        q = pow_p(ep, -ep.kappa)
        vals = character_values(ep, spec)
        assert dict(vals.t_values)[1] == pytest.approx(-1.0 / q)

    def test_half_period_flips_sign(self, ep, phi):
        gamma_j = phi[2] + half_period(ep)
        spec = PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=(gamma_j, 0.1 + 0.2j))
        vals = character_values(ep, spec)
        assert vals.y_values[0] == pytest.approx(-pow_p(ep, -phi[2]))

    def test_rejects_membership_violation(self, ep):
        bad = PrincipalSeriesSpec(n=2, index_set=(1,), signs=(1,), gamma=(0.3, 0.1))
        with pytest.raises(ValueError):
            character_values(ep, bad)


class TestDecomposition:
    def test_dimension_identity(self):
        for n in range(2, 7):
            assert dimension_count(n) == 3**n

    def test_unmixed_eigenvalues(self, ep, phi, reps):
        # content (n, 0, 0): all eigenvalues are q^(n+1-2j) p^(-phi_1)
        n = 3
        rep = reps[n]
        spec = content_block(ep, n, (n, 0, 0), phi)
        q = pow_p(ep, -ep.kappa)
        for j in range(1, n + 1):
            want = q ** (n + 1 - 2 * j) * pow_p(ep, -phi[0])
            assert pow_p(ep, -spec.gamma[j - 1]) == pytest.approx(want)

    def test_eigen_residuals(self, reps):
        for n, rep in reps.items():
            for r in content_labels(n):
                assert block_residuals(rep, r)[0] < 1e-10

    def test_sign_residuals_exhaustive(self, reps):
        for n, rep in reps.items():
            for r in content_labels(n):
                _, got = block_residuals(rep, r)
                assert [w for w, _, _ in got] == list(min_coset_reps(n, content_stabiliser(n, r)))
                assert all(inclusive < 1e-10 for _, inclusive, _ in got)

    def test_sign_residual_strict_variant_fails(self, reps):
        rep = reps[3]
        hits = 0
        for r in content_labels(3):
            if r[2] != 1:
                continue
            hits += sum(strict > 1.0 for _, _, strict in block_residuals(rep, r)[1])
        assert hits > 0

    def test_sign_residual_precondition(self, reps):
        # the content must be a content label of the representation's n
        with pytest.raises(ValueError):
            block_residuals(reps[3], (0, 2, 2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sign_residuals_are_one_product_call_per_block(self, reps, n, monkeypatch):
        # the Y_j, the T_i (i in I) and every T_w of a block act on the
        # leading vector in one spin_images call, and no product operator is built
        calls = []
        images = heckespin.spin_images

        def recorded(rep, rows, sides, source):
            calls.append(rows.shape[1])
            return images(rep, rows, sides, source)

        monkeypatch.setattr(blocks, "spin_images", recorded)
        monkeypatch.setattr(heckespin, "spin_products", None)
        for r in content_labels(n):
            calls.clear()
            block_residuals(reps[n], r)
            index_set = content_stabiliser(n, r)
            assert calls == [n + len(index_set) + len(min_coset_reps(n, index_set))]

    def test_rank5_exhaustive(self, ep, phi):
        # every block of n = 5, the largest site count the Tier-1 run covers whole
        from qkzconn.heckespin import HeckeParams, spin_rep

        n = 5
        rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
        labels = content_labels(n)
        assert len(labels) == 21
        for r in labels:
            eigen, signs = block_residuals(rep, r)
            assert eigen < 1e-10
            assert all(inclusive < 1e-10 for _, inclusive, _ in signs)


class TestSpectrum:
    def test_multiset_size(self, ep, phi):
        for n in (2, 3):
            for j in range(1, n + 1):
                assert len(predicted_y_tilde_spectrum(ep, n, phi, j)) == 3**n

    def test_matches_numerics(self, reps):
        for n in (2, 3, 4):
            for j in range(1, n + 1):
                assert spectrum_match_residual(reps[n], j) < 1e-6

    def test_greedy_match_rejects(self):
        assert greedy_match_distance([1.0, 2.0], [1.0, 2.5]) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            greedy_match_distance([1.0], [1.0, 2.0])

    @staticmethod
    def loop_distance(predicted, observed):
        # the reference: the Python loop the vectorised form replaced, with
        # its max(worst, d) (which drops a NaN) kept apart as the matched list
        remaining = list(observed)
        matched = []
        for val in predicted:
            dists = [abs(val - o) for o in remaining]
            k = int(np.argmin(dists))
            matched.append(dists[k])
            remaining.pop(k)
        return matched

    @pytest.mark.parametrize("size", [9, 27, 81, 243])
    @pytest.mark.parametrize("ties", [False, True])
    def test_greedy_match_equals_the_loop(self, size, ties):
        rng = np.random.default_rng(size)
        for _ in range(10):
            predicted = [complex(v) for v in rng.normal(size=size) + 1j * rng.normal(size=size)]
            observed = np.array(predicted)[rng.permutation(size)] + 1e-9 * rng.normal(size=size)
            if ties:
                # rounding leaves equal values and equal distances to choose among
                predicted = [complex(round(v.real, 1), round(v.imag, 1)) for v in predicted]
                observed = np.round(observed, 1)
            want = max(self.loop_distance(predicted, list(observed)))
            assert greedy_match_distance(predicted, list(observed)) == want

    def test_greedy_match_equals_the_loop_on_spectra(self, ep, phi, reps):
        for n in (2, 3, 4):
            for j in range(1, n + 1):
                lam = tuple(int(k == j) for k in range(1, n + 1))
                observed = list(heckespin.y_tilde(reps[n], lam).eigvals())
                predicted = predicted_y_tilde_spectrum(ep, n, phi, j)
                assert greedy_match_distance(predicted, observed) == max(self.loop_distance(predicted, observed))

    @pytest.mark.parametrize("place", [0, 1, 2])
    def test_greedy_match_keeps_a_nan(self, place):
        predicted = [1.0, 2.0, 3.0]
        predicted[place] = math.nan
        assert 0.0 in self.loop_distance(predicted, [1.0, 2.0, 3.0])
        assert math.isnan(greedy_match_distance(predicted, [1.0, 2.0, 3.0]))


class TestGenericity:
    def test_default_parameters_clean(self, phi):
        for n in (2, 3, 4):
            assert genericity_report(0.35, 0.27, phi, n).ok

    def test_zero_coupling_flagged(self, phi):
        report = genericity_report(0.35, 0.0, phi, 2)
        assert not report.ok
        assert ("coupling", 0) in report.violations

    @pytest.mark.parametrize("kappa", [1e308, complex(0.27, math.nan)])
    def test_non_finite_coupling_rejected(self, phi, kappa):
        # 2 Re kappa overflows at 1e308; a NaN part has no lattice distance
        with pytest.raises(ValueError, match="kappa"):
            genericity_report(0.35, kappa, phi, 2)

    def test_equal_twists_collide(self, phi):
        degenerate = (phi[0], phi[0], phi[2])
        report = genericity_report(0.35, 0.27, degenerate, 2)
        assert not report.ok
        kinds = {v[0] for v in report.violations}
        assert "collision" in kinds
        # the colliding labels differ only by exchanging the two even values
        a, b = next(v[1:] for v in report.violations if v[0] == "collision")
        ra, rb = report.labels[a][0], report.labels[b][0]
        assert ra[2] == rb[2] and {ra[:2], rb[:2]} == {ra[:2], (ra[1], ra[0])}

    @pytest.mark.parametrize(
        "kappa, twists, n, count",
        [
            (0.0, None, 3, None),
            (0.27, "equal", 3, None),
            (0.25, (0.0, 0.5, 1.0), 4, 1811),
            (0.1, (0.2, 0.5, -0.4), 4, 368),
        ],
        ids=["zero-coupling", "equal-twists", "1811-violations", "368-violations"],
    )
    def test_matches_the_scan_over_the_window(self, phi, kappa, twists, n, count):
        # the report against a scan of every exponent of the window, violation
        # by violation and in the same order: kappa = 0, equal twists, and
        # two twists with many resonances
        if twists is None:
            twists = phi
        elif twists == "equal":
            twists = (phi[0], phi[0], phi[2])
        got = genericity_report(0.35, kappa, twists, n).violations
        assert got == window_scan(0.35, kappa, twists, n)
        assert got
        if count is not None:
            assert len(got) == count


def window_scan(p, kappa, phi, n, window=20, tol=1e-8):
    """The violations of ``genericity_report``, found by a Python scan of
    every label pair and every exponent of the window."""
    log_p = math.log(p)
    kappa = complex(kappa)
    out = []
    t = 2.0 * kappa.real
    if abs(t - round(t)) <= tol:
        out.append(("coupling", int(round(t))))
    s_vectors = [s for _, _, s in blocks._spectral_labels(log_p, kappa, phi, n)]
    comp = np.array(s_vectors, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        unit = np.exp((comp[None, :, :] - comp[:, None, :]) * log_p)
        collide = np.all(np.abs(unit - 1.0) <= tol, axis=2)
    for a in range(len(comp)):
        for b in range(a + 1, len(comp)):
            if collide[a, b]:
                out.append(("collision", a, b))
    partials = np.array([[sum(s[:i]) for i in range(1, n)] for s in s_vectors], dtype=complex)
    for i in range(n - 1):
        col = partials[:, i]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.exp((col[None, :] - col[:, None]) * log_p)
            for m in range(-window, window + 1):
                if m == 0:
                    continue
                for a, b in np.argwhere(np.abs(vals / (p**m) - 1.0) <= tol):
                    out.append(("resonance", int(a), int(b), i + 1, m))
    return tuple(out)
