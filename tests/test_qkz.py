"""Transport cocycle: words, flatness and the braid limit."""

import math

import numpy as np
import pytest

from qkzconn.heckespin import y_tilde
from qkzconn.params import sample_point
from qkzconn.qkz import (
    XI,
    XI_INV,
    AffineWord,
    affine_word,
    braid_limit_residual,
    flatness_residual,
    s_letter,
    translation_word,
    translation_power_word,
    transport_letter,
    transport_word,
)
from qkzconn.tensorspace import permutation_op, rel_residual

from qkzconn.elliptic import pow_p
from qkzconn.heckespin import perk_schultz


def point(rng, n, ep):
    return sample_point(rng, n, ep.nome)


class TestAffineWords:
    def test_free_reduction(self):
        w = affine_word(3, [XI, XI_INV, s_letter(1)])
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
        for n in range(2, 6):
            for j in range(1, n + 1):
                w = translation_word(n, j)
                z = tuple(float(7 * k) for k in range(n))
                moved = w.point_action(z)
                want = tuple(v + (1.0 if k == j - 1 else 0.0) for k, v in enumerate(z))
                assert moved == want

    def test_translation_power_word(self):
        w = translation_power_word(3, (2, 0, -1))
        z = (5.0, 6.0, 7.0)
        assert w.point_action(z) == (7.0, 6.0, 6.0)


class TestTransport:
    def test_xi_letter_is_rotation(self, reps, rng, ep):
        rep = reps[3]
        z = point(rng, 3, ep)
        assert np.array_equal(transport_letter(rep, XI, z), rep.zeta)
        assert np.array_equal(transport_letter(rep, XI_INV, z), rep.zeta_inv)

    def test_s_letter_matches_local_r(self, reps, rng, ep):
        # the one-letter transport is the permuted Baxterized matrix at p^(z_i - z_{i+1})
        rep = reps[3]
        q = rep.params.q
        z = point(rng, 3, ep)
        for i in (1, 2):
            got = transport_letter(rep, s_letter(i), z)
            local = permutation_op() @ perk_schultz(pow_p(ep, z[i - 1] - z[i]), q)
            want = np.kron(np.kron(np.eye(3 ** (i - 1)), local), np.eye(3 ** (2 - i)))
            assert rel_residual(got, want) < 1e-12

    def test_empty_word(self, reps, rng, ep):
        rep = reps[2]
        z = point(rng, 2, ep)
        assert np.array_equal(transport_word(rep, affine_word(2, []), z), np.eye(9))

    def test_word_and_free_reduction_agree(self, reps, rng, ep):
        rep = reps[2]
        z = point(rng, 2, ep)
        w1 = affine_word(2, [s_letter(1), XI, XI_INV, s_letter(1), XI])
        w2 = affine_word(2, [s_letter(1), s_letter(1), XI])
        assert rel_residual(transport_word(rep, w1, z), transport_word(rep, w2, z)) < 1e-13

    def test_group_element_invariance(self, reps, rng, ep):
        # two distinct words for the same translation transport identically
        for n in (2, 3):
            rep = reps[n]
            base = affine_word(n, [s_letter(i) for i in range(n - 1, 0, -1)] + [XI])
            xi_w = affine_word(n, [XI])
            alt = xi_w * base * xi_w.inverse()
            probe = tuple(float(11 * k) for k in range(n))
            assert alt.point_action(probe) == translation_word(n, 1).point_action(probe)
            z = point(rng, n, ep)
            got = transport_word(rep, alt, z)
            want = transport_word(rep, translation_word(n, 1), z)
            assert rel_residual(got, want) < 1e-10

    def test_unitarity_of_simple_letter(self, reps, rng, ep):
        rep = reps[3]
        z = point(rng, 3, ep)
        w = affine_word(3, [s_letter(1), s_letter(1)])
        assert rel_residual(transport_word(rep, w, z), np.eye(27)) < 1e-12


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

    def test_limit_is_y_tilde(self, reps):
        # at a deep point the transport matches the closed-form operator entrywise
        rep = reps[2]
        lam = (1, -1)
        word = translation_power_word(2, lam)
        z = (0.0, 35.0)
        got = transport_word(rep, word, z)
        assert rel_residual(got, y_tilde(rep, lam)) < 1e-9
