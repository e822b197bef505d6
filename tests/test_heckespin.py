"""Braid matrix, Baxterization and the commuting operator families."""

import itertools

import numpy as np
import pytest

from qkzconn.elliptic import PoleError, pow_p
from qkzconn.heckespin import (
    HeckeParams,
    baxterize,
    braid_matrix,
    cross_relation_residual,
    hecke_residual,
    perk_schultz,
    qybe_residual,
    spin_rep,
    t_word,
    y_operator,
    y_operators,
    y_power,
    y_tilde,
)
from qkzconn.tensorspace import (
    controlled_op,
    permutation_op,
    rel_residual,
    tensor_index,
    two_leg_op,
)

#: (d, n, a, b): every leg pair a < b for n = 2..4, at both site dimensions
LEG_PAIRS = [(d, n, a, b) for d in (3, 2) for n in (2, 3, 4) for a in range(1, n + 1) for b in range(a + 1, n + 1)]


def local_op(q, d):
    """The braid matrix on three-state sites, a random complex 4x4 matrix on two-state sites."""
    if d == 3:
        return braid_matrix(q)
    gen = np.random.default_rng(11)
    return gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))


@pytest.fixture(scope="module")
def q(ep):
    return HeckeParams(elliptic=ep, n=2).q


def basis_vec(alpha):
    v = np.zeros(3 ** len(alpha), dtype=complex)
    v[tensor_index(alpha)] = 1.0
    return v


class TestBraidMatrix:
    def test_column_21(self, q):
        b = braid_matrix(q)
        got = b @ basis_vec((2, 1))
        assert np.allclose(got, basis_vec((1, 2)))

    def test_column_33(self, q):
        b = braid_matrix(q)
        got = b @ basis_vec((3, 3))
        assert np.allclose(got, -basis_vec((3, 3)) / q)

    def test_column_13(self, q):
        b = braid_matrix(q)
        got = b @ basis_vec((1, 3))
        want = (q - 1 / q) * basis_vec((1, 3)) - basis_vec((3, 1))
        assert np.allclose(got, want)

    def test_hecke_residual_zero(self, q):
        assert hecke_residual(braid_matrix(q), q) < 1e-12

    def test_hecke_residual_detects(self):
        eye = np.eye(9, dtype=complex)
        assert hecke_residual(eye, 1.0) < 1e-15
        assert hecke_residual(eye, 2.0) > 0.1

    def test_twist_commutes_exactly(self, ep, phi, q):
        d = np.diag([pow_p(ep, -t) for t in phi])
        dd = np.kron(d, d)
        b = braid_matrix(q)
        assert np.array_equal(dd @ b != 0, b @ dd != 0)
        assert np.max(np.abs(dd @ b - b @ dd)) < 1e-15


class TestBaxterization:
    def test_matches_closed_form(self, q, rng):
        b = braid_matrix(q)
        for _ in range(20):
            z = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
            assert np.max(np.abs(baxterize(b, z, q) - perk_schultz(z, q))) < 1e-12

    def test_value_at_one_is_permutation(self, q):
        # B^{-1} - B is a scalar, so the operand is the identity and the
        # permutation factor survives
        assert np.max(np.abs(baxterize(braid_matrix(q), 1.0, q) - permutation_op())) < 1e-14

    def test_coefficient_values_at_one(self, q):
        r = perk_schultz(1.0, q)
        assert r[1, 1] == 0.0  # b(1) = 0
        assert abs(r[1, 3] - 1.0) < 1e-15  # c_+(1) = 1
        assert abs(r[3, 1] - 1.0) < 1e-15  # c_-(1) = 1
        assert abs(r[8, 8] - 1.0) < 1e-15  # w(1) = 1

    def test_braid_limit_scalar(self, q):
        b = braid_matrix(q)
        want = permutation_op() @ b
        assert np.max(np.abs(q * baxterize(b, 1e8, q) - want)) < 1e-7

    def test_pole(self, q):
        with pytest.raises(PoleError):
            baxterize(braid_matrix(q), 1.0 / q**2, q)

    def test_qybe(self, q, rng):
        for _ in range(20):
            x = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
            y = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
            assert qybe_residual(lambda z: perk_schultz(z, q), x, y) < 1e-10

    def test_qybe_trivial_and_negative(self, q, rng):
        eye = np.eye(9, dtype=complex)
        assert qybe_residual(lambda z: eye, 0.3, 0.7) == 0.0
        bad = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        assert qybe_residual(lambda z: bad, 0.3, 0.7) > 1e-3

    def test_unitarity(self, q, rng):
        p_op = permutation_op()
        eye = np.eye(9, dtype=complex)
        for _ in range(20):
            z = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
            r21 = p_op @ perk_schultz(z, q) @ p_op
            assert rel_residual(r21 @ perk_schultz(1.0 / z, q), eye) < 1e-10


class TestSpinRep:
    def test_rotation_n2(self, ep, phi):
        rep = spin_rep(HeckeParams(elliptic=ep, n=2), phi)
        d = np.diag([pow_p(ep, -t) for t in phi])
        want = permutation_op() @ np.kron(np.eye(3), d)
        assert np.max(np.abs(rep.zeta - want)) < 1e-14

    def test_braid_relations(self, reps):
        rep = reps[4]
        for i in (1, 2):
            lhs = rep.t(i) @ rep.t(i + 1) @ rep.t(i)
            rhs = rep.t(i + 1) @ rep.t(i) @ rep.t(i + 1)
            assert rel_residual(lhs, rhs) < 1e-12
        assert rel_residual(rep.t(1) @ rep.t(3), rep.t(3) @ rep.t(1)) < 1e-12

    def test_affine_relations(self, reps):
        for n, rep in reps.items():
            for i in range(1, n - 1):
                assert rel_residual(rep.zeta @ rep.t(i), rep.t(i + 1) @ rep.zeta) < 1e-12
            z2 = rep.zeta @ rep.zeta
            assert rel_residual(z2 @ rep.t(n - 1), rep.t(1) @ z2) < 1e-12

    def test_conjugation_by_rotation(self, reps):
        rep = reps[3]
        got = rep.zeta @ rep.t(1) @ rep.zeta_inv
        assert rel_residual(got, rep.t(2)) < 1e-12

    def test_hecke_inverse_is_exact(self, reps):
        for rep in reps.values():
            for i in range(1, rep.n):
                assert rel_residual(rep.t(i) @ rep.t_inv(i), np.eye(rep.dim)) < 1e-13

    def test_relations_rank5(self, ep, phi):
        rep = spin_rep(HeckeParams(elliptic=ep, n=5), phi)
        for i in (1, 2, 3):
            lhs = rep.t(i) @ rep.t(i + 1) @ rep.t(i)
            rhs = rep.t(i + 1) @ rep.t(i) @ rep.t(i + 1)
            assert rel_residual(lhs, rhs) < 1e-12
        assert rel_residual(rep.t(1) @ rep.t(4), rep.t(4) @ rep.t(1)) < 1e-12
        for i in (1, 2, 3):
            assert rel_residual(rep.zeta @ rep.t(i), rep.t(i + 1) @ rep.zeta) < 1e-12
        z2 = rep.zeta @ rep.zeta
        assert rel_residual(z2 @ rep.t(4), rep.t(1) @ z2) < 1e-12


class TestYFamily:
    def test_n2_factorizations(self, reps):
        rep = reps[2]
        assert rel_residual(y_operator(rep, 1), rep.zeta @ rep.t(1)) < 1e-14
        assert rel_residual(y_operator(rep, 2), rep.t_inv(1) @ rep.zeta) < 1e-14

    def test_commutation(self, reps):
        for rep in reps.values():
            ys = y_operators(rep)
            for a in range(len(ys)):
                for b in range(a + 1, len(ys)):
                    assert rel_residual(ys[a] @ ys[b], ys[b] @ ys[a]) < 1e-10

    def test_product_commutes_with_generators(self, reps):
        rep = reps[3]
        prod = y_power(rep, (1, 1, 1))
        for i in (1, 2):
            assert rel_residual(prod @ rep.t(i), rep.t(i) @ prod) < 1e-11

    def test_eigenvalue_on_leading_vector(self, ep, phi, reps):
        # content (1, 0, 1): the leading vector picks up -p^(-phi_3)
        rep = reps[2]
        v = basis_vec((3, 1))
        got = y_operator(rep, 1) @ v
        want = -pow_p(ep, -phi[2]) * v
        assert np.max(np.abs(got - want)) < 1e-13

    def test_cross_relations(self, reps):
        rep2, rep3 = reps[2], reps[3]
        assert cross_relation_residual(rep2, 1, (1, 1)) < 1e-14  # symmetric exponent
        assert cross_relation_residual(rep2, 1, (1, 0)) < 1e-10
        assert cross_relation_residual(rep3, 2, (0, 1, 0)) < 1e-10

    def test_y_tilde_trivial(self, reps):
        rep = reps[3]
        assert rel_residual(y_tilde(rep, (0, 0, 0)), np.eye(rep.dim)) < 1e-14

    def test_y_tilde_n2_form(self, ep, reps):
        rep = reps[2]
        got = y_tilde(rep, (1, 0))
        want = pow_p(ep, -ep.kappa) * rep.t(1) @ y_operator(rep, 2) @ rep.t_inv(1)
        assert rel_residual(got, want) < 1e-13

    def test_y_tilde_commuting_family(self, reps, rng):
        rep = reps[3]
        for _ in range(5):
            lam = tuple(int(v) for v in rng.integers(-1, 2, size=3))
            mu = tuple(int(v) for v in rng.integers(-1, 2, size=3))
            a, b = y_tilde(rep, lam), y_tilde(rep, mu)
            assert rel_residual(a @ b, b @ a) < 1e-10

    def test_t_word_longest(self, reps):
        rep = reps[3]
        w0 = (3, 2, 1)
        got = t_word(rep, w0)
        want = rep.t(1) @ rep.t(2) @ rep.t(1)
        assert rel_residual(got, want) < 1e-13


class TestTensorHelpers:
    def test_two_leg_matches_adjacent(self, q):
        b = braid_matrix(q)
        want = np.kron(np.kron(np.eye(3), b), np.eye(3))
        assert np.max(np.abs(two_leg_op(b, 4, 2, 3) - want)) < 1e-15

    @pytest.mark.parametrize("d, n, a, b", LEG_PAIRS)
    def test_two_leg_brute_force(self, q, d, n, a, b):
        op = local_op(q, d)
        m = two_leg_op(op, n, a, b)
        # basis order: the first leg is the most significant digit
        digits = list(itertools.product(range(d), repeat=n))
        rest = [k for k in range(n) if k not in (a - 1, b - 1)]
        for col, a_in in enumerate(digits):
            for row, a_out in enumerate(digits):
                want = 0.0
                if all(a_out[k] == a_in[k] for k in rest):
                    want = op[a_out[a - 1] * d + a_out[b - 1], a_in[a - 1] * d + a_in[b - 1]]
                assert abs(m[row, col] - want) < 1e-15

    @pytest.mark.parametrize("d", [3, 2])
    @pytest.mark.parametrize("a, b, control", [(1, 2, 3), (2, 3, 1), (1, 3, 2)])
    def test_controlled_op_sums_projected_embeddings(self, q, d, a, b, control):
        ops = [local_op(q, d) * (j + 1) + j * np.eye(d * d) for j in range(d)]
        want = np.zeros((d**3, d**3), dtype=complex)
        for j in range(d):
            on_j = [1.0 if alpha[control - 1] == j else 0.0 for alpha in itertools.product(range(d), repeat=3)]
            want += two_leg_op(ops[j], 3, a, b) @ np.diag(on_j)
        assert np.array_equal(controlled_op(ops, 3, a, b, control), want)
