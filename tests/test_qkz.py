"""Transport cocycle: words, flatness and the braid limit."""

import math

import numpy as np
import pytest

from qkzconn.elliptic import PoleError, default_params
from qkzconn.heckespin import HeckeParams, baxter_denominator, baxterize, braid_matrix, spin_rep, y_tilde
from qkzconn.params import sample_point
from qkzconn.qkz import (
    XI,
    AffineWord,
    affine_word,
    braid_limit_residual,
    braid_limit_slope,
    flatness_residual,
    s_letter,
    translation_defect,
    translation_word,
    translation_power_word,
    transport_word,
    transport_words,
)
from qkzconn.tensorspace import block_layout, letter_table, permutation_op, rel_residual, tensor_index

from qkzconn.elliptic import pow_p
from qkzconn.heckespin import perk_schultz
from test_blockop import dense_generators


def point(rng, n, ep):
    return sample_point(rng, n, ep.nome)


class TestAffineWords:
    def test_free_reduction(self):
        w = affine_word(3, [XI, ("xi", -1), s_letter(1)])
        assert w.letters == (("s", 1),)

    def test_rotation_action(self):
        w = affine_word(3, [XI])
        assert w.point_action((10.0, 20.0, 30.0)) == (31.0, 10.0, 20.0)
        assert w.inverse().point_action((10.0, 20.0, 30.0)) == (20.0, 30.0, 9.0)

    def test_inverse(self):
        w = affine_word(3, [s_letter(2), XI])
        assert (w * w.inverse()).letters == (("s", 2), ("s", 2))
        z = (1.0, 2.0, 3.0)
        assert (w * w.inverse()).point_action(z) == z

    def test_letter_validation(self):
        with pytest.raises(ValueError):
            affine_word(3, [s_letter(3)])
        with pytest.raises(ValueError):
            AffineWord(3, (("xi", 2),))

    def test_translation_words_all_sites(self):
        for n in range(2, 9):
            for j in range(1, n + 1):
                w = translation_word(n, j)
                z = tuple(float(7 * k) for k in range(n))
                moved = w.point_action(z)
                want = tuple(v + (1.0 if k == j - 1 else 0.0) for k, v in enumerate(z))
                assert moved == want

    def test_translation_words_are_reduced(self):
        # tau(e_j) = s_{j-1} .. s_1 xi s_{n-1} .. s_j: n - 1 simple reflections and one xi
        for n in range(2, 8):
            for j in range(1, n + 1):
                w = translation_word(n, j)
                assert len(w.letters) == n
                assert sum(kind == "s" for kind, _ in w.letters) == n - 1
                assert w.letters.count(XI) == 1
                assert translation_defect(w, j) == 0.0

    def test_translation_power_word(self):
        w = translation_power_word(3, (2, 0, -1))
        z = (5.0, 6.0, 7.0)
        assert w.point_action(z) == (7.0, 6.0, 6.0)


class TestTransport:
    def test_xi_letter_is_rotation(self, reps, rng, ep):
        rep = reps[3]
        z = point(rng, 3, ep)
        assert np.array_equal(transport_word(rep, affine_word(3, [XI]), z).dense(), rep.zeta.dense())
        assert np.array_equal(transport_word(rep, affine_word(3, [("xi", -1)]), z).dense(), rep.zeta_inv.dense())

    def test_s_letter_matches_local_r(self, reps, rng, ep):
        # the one-letter transport is the permuted Baxterized matrix at p^(z_i - z_{i+1})
        rep = reps[3]
        q = rep.params.q
        z = point(rng, 3, ep)
        for i in (1, 2):
            got = transport_word(rep, affine_word(3, [s_letter(i)]), z).dense()
            local = permutation_op() @ perk_schultz(pow_p(ep, z[i - 1] - z[i]), q)
            want = np.kron(np.kron(np.eye(3 ** (i - 1)), local), np.eye(3 ** (2 - i)))
            assert rel_residual(got, want) < 1e-12

    def test_empty_word(self, reps, rng, ep):
        rep = reps[2]
        z = point(rng, 2, ep)
        assert np.array_equal(transport_word(rep, affine_word(2, []), z).dense(), np.eye(9))

    def test_word_and_free_reduction_agree(self, reps, rng, ep):
        rep = reps[2]
        z = point(rng, 2, ep)
        w1 = affine_word(2, [s_letter(1), XI, ("xi", -1), s_letter(1), XI])
        w2 = affine_word(2, [s_letter(1), s_letter(1), XI])
        assert rel_residual(transport_word(rep, w1, z), transport_word(rep, w2, z)) < 1e-13

    def test_group_element_invariance(self, reps, rng, ep):
        # two distinct words for the same translation transport identically
        for n in (2, 3):
            rep = reps[n]
            alt = conjugate_translation_word(n, 1)
            probe = tuple(float(11 * k) for k in range(n))
            assert alt.letters != translation_word(n, 1).letters
            assert alt.point_action(probe) == translation_word(n, 1).point_action(probe)
            z = point(rng, n, ep)
            got = transport_word(rep, alt, z)
            want = transport_word(rep, translation_word(n, 1), z)
            assert rel_residual(got, want) < 1e-10

    def test_unitarity_of_simple_letter(self, reps, rng, ep):
        rep = reps[3]
        z = point(rng, 3, ep)
        w = affine_word(3, [s_letter(1), s_letter(1)])
        assert rel_residual(transport_word(rep, w, z).dense(), np.eye(27)) < 1e-12


def conjugate_translation_word(n, j):
    """tau(e_j) as the conjugate of tau(e_n) = s_{n-1} .. s_1 xi by the cycle
    s_j .. s_{n-1}: 3n - 2j letters for the group element of ``translation_word(n, j)``."""
    cycle = affine_word(n, [s_letter(i) for i in range(j, n)])
    return cycle * translation_word(n, n) * cycle.inverse()


class TestReducedTranslationWords:
    def test_transport_equals_the_conjugate_words(self, ep, phi, rng):
        # by the cocycle property the reduced and the conjugate word transport
        # alike; only the rounding of the longer product differs
        for n in range(2, 6):
            rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
            z = point(rng, n, ep)
            words = [(w, z) for j in range(1, n + 1) for w in (translation_word(n, j), conjugate_translation_word(n, j))]
            mats = transport_words(rep, words)
            for j, (reduced, conjugate) in enumerate(zip(mats[::2], mats[1::2]), start=1):
                assert len(conjugate_translation_word(n, j).letters) == 3 * n - 2 * j
                assert rel_residual(reduced, conjugate) < 1e-12


def batch_words(n):
    """Words of different lengths with xi and xi^{-1} letters: every translation
    pair, a bare rotation and the empty word."""
    words = [translation_word(n, i) * translation_word(n, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return words + [affine_word(n, [("xi", -1), s_letter(1)]), affine_word(n, [])]


def dense_transport(rep, word, z):
    """Left-to-right product of dense one-letter matrices from BlockOp.dense()."""
    n, q, ep = rep.n, rep.params.q, rep.params.elliptic
    out = np.eye(3**n, dtype=complex)
    for k, (kind, val) in enumerate(word.letters):
        if kind == "xi":
            letter = (rep.zeta if val == 1 else rep.zeta_inv).dense()
        else:
            # the point moved by the inverse of the prefix before letter k
            cur = affine_word(n, word.letters[:k]).inverse().point_action(z)
            t = pow_p(ep, cur[val - 1] - cur[val])
            letter = (rep.t_inv_ops[val - 1].dense() - t * rep.t_ops[val - 1].dense()) / (1.0 / q - q * t)
        out = out @ letter
    return out


@pytest.fixture(scope="module")
def rep5(ep, phi):
    return spin_rep(HeckeParams(elliptic=ep, n=5), phi)


class TestBaxterPoleRule:
    """The Baxterized matrices and the transport letters read a pole of
    1/q - q z by one rule, relative to the terms that cancel there."""

    @pytest.mark.parametrize("offset, pole", [(1e-11, True), (1e-6, False)])
    def test_one_rule_where_the_terms_are_large(self, phi, offset, pole):
        # |1/q| is about 1e3 at kappa = -6.58 and p = 0.35; at z = (1 + offset) / q^2
        # |1/q - q z| is about 1e3 offset: 1e-8 reads as a pole, 1e-3 does not
        ep = default_params(0.35, -6.58)
        hp = HeckeParams(elliptic=ep, n=2)
        q = hp.q
        z = (1.0 + offset) / q**2
        den, mask = baxter_denominator(z, q)
        assert 900.0 < abs(1.0 / q) < 1100.0
        assert bool(mask) is pole and abs(den) == pytest.approx(offset / abs(q), rel=1e-3)
        # the transport letter s_1 at z_1 - z_2 = x reads t = p^x = z
        x = np.log(z) / ep.nome.log_p
        word = (affine_word(2, [s_letter(1)]), (x, 0.0))
        rep = spin_rep(hp, phi)
        evaluations = (
            lambda: perk_schultz(z, q),
            lambda: baxterize(braid_matrix(q), z, q),
            lambda: transport_words(rep, [word]),
        )
        for evaluate in evaluations:
            if pole:
                with pytest.raises(PoleError):
                    evaluate()
            else:
                evaluate()


class TestTransportWords:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_batch_equals_one_word_calls_and_dense_product(self, reps, rep5, rng, ep, n):
        rep = rep5 if n == 5 else reps[n]
        words = batch_words(n)
        points = [point(rng, n, ep) for _ in words]
        batch = transport_words(rep, list(zip(words, points)))
        assert len(batch) == len(words)
        for word, z, got in zip(words, points, batch):
            one = transport_word(rep, word, z)
            assert all(np.array_equal(a, b) for a, b in zip(got.stacks, one.stacks))
            assert rel_residual(got.dense(), dense_transport(rep, word, z)) < 1e-13

    def test_empty_batch(self, reps):
        assert transport_words(reps[2], []) == []

    def test_pole_in_one_word_names_its_letter(self, reps, ep):
        # 1/q - q p^x vanishes at x = 2 kappa; the second word's letter 1 (s_1)
        # is read at s_2 z = (z_1, z_3, z_2), so z_1 - z_3 = 2 kappa puts it on the pole
        rep = reps[3]
        z_pole = (2 * ep.kappa + 0.1j, 0.3 + 0.2j, 0.1j)
        fine = (0.1 + 0.05j, -0.3 + 0.1j, 0.2 + 0.3j)
        words = [(translation_word(3, 1), fine), (affine_word(3, [s_letter(2), s_letter(1)]), z_pole)]
        with pytest.raises(PoleError) as err:
            transport_words(rep, words)
        assert "word 1" in str(err.value)
        assert "letter 1 ('s', 1)" in str(err.value)
        assert err.value.factor == "1/q - q*p^(z_i - z_{i+1})"
        # the same word alone raises the same pole
        with pytest.raises(PoleError):
            transport_word(rep, *words[1])
        transport_word(rep, *words[0])

    def test_site_count_mismatch(self, reps, rng, ep):
        with pytest.raises(ValueError):
            transport_words(reps[3], [(translation_word(2, 1), point(rng, 2, ep))])


class TestLetterColumns:
    """The stored column entries are the generators, two entries per column."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_generators_are_two_entries_per_column(self, ep, phi, n):
        # each generator rebuilt densely from rep.columns at the rows the
        # letter table names equals the independent dense generator
        rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
        t, t_inv, zeta, zeta_inv = dense_generators(ep, phi, n)
        refs = [(1, 0, zeta), (2, 0, zeta_inv)]
        refs += [(2 + i, 0, t_inv[i - 1]) for i in range(1, n)] + [(2 + i, 1, t[i - 1]) for i in range(1, n)]
        layout = block_layout(n)
        for row, side, ref in refs:
            rebuilt = np.zeros_like(ref)
            for idx, perms, cols in zip(layout.index, letter_table(n), rep.columns):
                flat = idx.reshape(-1)  # the tensor index of each flat place of the group
                rebuilt[flat, flat] = cols[side, 0, row]
                rebuilt[flat[perms[row]], flat] += cols[side, 1, row]
            assert np.array_equal(rebuilt, ref)
        for cols in rep.columns:
            # the identity, and no T_i-side entries for the identity and zeta^{+-1}
            assert np.array_equal(cols[0, :, 0], np.stack([np.ones(cols.shape[-1]), np.zeros(cols.shape[-1])]))
            assert not cols[1, :, :3].any()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_moves_the_multi_indices(self, n):
        # row 1 rotates (a_1 .. a_n) to (a_n a_1 .. a_{n-1}), row 2 back, row 2 + i swaps a_i, a_{i+1}
        layout = block_layout(n)
        moves = [lambda a: a, lambda a: a[-1:] + a[:-1], lambda a: a[1:] + a[:1]]
        moves += [lambda a, i=i: a[: i - 1] + (a[i], a[i - 1]) + a[i + 1 :] for i in range(1, n)]
        for idx, perms in zip(layout.index, letter_table(n)):
            d = idx.shape[1]
            for move, perm in zip(moves, perms):
                for flat, target in enumerate(perm):
                    alpha = tuple(int(v) + 1 for v in layout.digits[idx.reshape(-1)[flat]])
                    assert idx[flat // d, target % d] == tensor_index(move(alpha))
                    assert target // d == flat // d


class TestFlatness:
    def test_equal_indices_trivial(self, reps, rng, ep):
        rep = reps[3]
        z = point(rng, 3, ep)
        assert flatness_residual(rep, 2, 2, z) == 0.0

    def test_all_pairs(self, reps, rng, ep):
        for n in (2, 3, 4):
            rep = reps[n]
            for _ in range(3):
                z = point(rng, n, ep)
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        assert flatness_residual(rep, i, j, z) < 1e-9

    def test_negative_control(self, reps, rng, ep):
        # dropping the cocycle shift breaks commutativity
        rep = reps[2]
        w1, w2 = translation_word(2, 1), translation_word(2, 2)
        worst = 0.0
        for _ in range(5):
            z = point(rng, 2, ep)
            lhs = transport_word(rep, w1, z) @ transport_word(rep, w2, z)
            rhs = transport_word(rep, w2, z) @ transport_word(rep, w1, z)
            worst = max(worst, rel_residual(lhs, rhs))
        assert worst > 1e-3


class TestBraidLimit:
    def test_trivial_exponent(self, reps):
        assert braid_limit_residual(reps[2], (0, 0), 10.0) == 0.0

    @pytest.mark.parametrize("depth", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_depth_that_is_not_positive_and_finite(self, reps, depth):
        with pytest.raises(ValueError, match="depth"):
            braid_limit_residual(reps[2], (1, 0), depth)

    def test_deep_convergence(self, reps):
        assert braid_limit_residual(reps[2], (1, 0), 40.0) < 1e-10

    def test_monotone_decay(self, reps, rng):
        rep = reps[3]
        for _ in range(3):
            lam = tuple(int(v) for v in rng.integers(-1, 2, size=3))
            if not any(lam):
                lam = (1, 0, -1)
            assert braid_limit_residual(rep, lam, 20.0) > braid_limit_residual(rep, lam, 40.0)

    def test_geometric_rate(self, reps, ep):
        log_p = ep.nome.log_p
        for n in (2, 3):
            rep = reps[n]
            lam = (1,) + (0,) * (n - 1)
            r6 = braid_limit_residual(rep, lam, 6.0)
            r12 = braid_limit_residual(rep, lam, 12.0)
            slope = (math.log(r12) - math.log(r6)) / 6.0
            assert abs(slope - log_p) / abs(log_p) < 0.2

    def test_slope_window_is_6_and_12_at_the_default_nome(self, reps, ep):
        lam = (1, 0)
        r6, r12 = (braid_limit_residual(reps[2], lam, d) for d in (6.0, 12.0))
        assert ep.nome.p == 0.35
        assert braid_limit_slope(reps[2], lam) == (math.log(r12) - math.log(r6)) / 6.0

    @pytest.mark.parametrize("p", [0.02, 0.85])
    def test_slope_window_scales_with_p(self, p, phi):
        # depths 6 and 12 read the slope from rounding at p = 0.02 and from
        # the subleading terms at p = 0.85; the window a, 2a reads log p
        ep = default_params(p)
        rep = spin_rep(HeckeParams(elliptic=ep, n=3), phi)
        slope = braid_limit_slope(rep, (1, 0, 0))
        assert abs(slope - ep.nome.log_p) / abs(ep.nome.log_p) < 0.05

    def test_limit_is_y_tilde(self, reps):
        # at a deep point the transport matches the closed-form operator entrywise
        rep = reps[2]
        lam = (1, -1)
        word = translation_power_word(2, lam)
        z = (0.0, 35.0)
        got = transport_word(rep, word, z)
        assert rel_residual(got, y_tilde(rep, lam)) < 1e-9
