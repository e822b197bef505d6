"""Content-block operators against dense references written out here.

The references embed the braid matrix with ``two_leg_op`` and build the
rotation-with-twist entry by entry, so they share no code with the block
construction in ``spin_rep``.
"""

import itertools

import numpy as np
import pytest

from qkzconn.elliptic import pow_p
from qkzconn import heckespin
from qkzconn.heckespin import (
    HeckeParams,
    braid_matrix,
    cross_relation_residual,
    rho_vector,
    spin_products,
    spin_rep,
    y_tilde,
)
from qkzconn.qkz import affine_word, translation_power_word, translation_word, transport_word
from qkzconn.symgroup import reduced_word
from qkzconn.tensorspace import block_layout, frob, rel_residual, tensor_index, two_leg_columns, two_leg_op


def dense_generators(ep, phi, n):
    """T_i, T_i^{-1} (from two_leg_op), zeta and zeta^{-1} (entry by entry) as dense matrices."""
    q = HeckeParams(elliptic=ep, n=n).q
    b = braid_matrix(q)
    b_inv = b - (q - 1.0 / q) * np.eye(9)
    t = [two_leg_op(b, n, i, i + 1) for i in range(1, n)]
    t_inv = [two_leg_op(b_inv, n, i, i + 1) for i in range(1, n)]
    zeta = np.zeros((3**n, 3**n), dtype=complex)
    zeta_inv = np.zeros((3**n, 3**n), dtype=complex)
    for alpha in itertools.product((1, 2, 3), repeat=n):
        c = pow_p(ep, -complex(phi[alpha[-1] - 1]))
        col = tensor_index(alpha)
        row = tensor_index((alpha[-1],) + alpha[:-1])
        zeta[row, col] = c
        zeta_inv[col, row] = 1.0 / c
    return t, t_inv, zeta, zeta_inv


def dense_product(mats, dim):
    out = np.eye(dim, dtype=complex)
    for m in mats:
        out = out @ m
    return out


def dense_y(gens, n):
    """Y_1 .. Y_n as dense products of the dense generators."""
    t, t_inv, zeta, _ = gens
    return [
        dense_product([t_inv[i - 1] for i in range(j - 1, 0, -1)] + [zeta] + [t[i - 1] for i in range(n - 1, j - 1, -1)], 3**n)
        for j in range(1, n + 1)
    ]


def blockop_product(rep, factors):
    """The BlockOp matmul chain of the factors, left to right, from the empty word."""
    out = spin_products(rep, [[]])[0]
    for f in factors:
        out = out @ f
    return out


def y_word(n, lam):
    """The ``spin_products`` word of Y^lam."""
    return heckespin._family_letters(n, lam)


def content_mask(n):
    """True where the row and column multi-indices have different contents."""
    key = np.array([tuple(alpha.count(v) for v in (1, 2, 3)) for alpha in itertools.product((1, 2, 3), repeat=n)])
    return np.any(key[:, None, :] != key[None, :, :], axis=-1)


@pytest.fixture(scope="module", params=[3, 4, 5])
def sized(request, ep, phi):
    """(n, rep, dense generators) for n = 3, 4, 5."""
    n = request.param
    return n, spin_rep(HeckeParams(elliptic=ep, n=n), phi), dense_generators(ep, phi, n)


class TestGenerators:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_block_diagonal_and_equal_to_dense(self, ep, phi, n):
        rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
        t, t_inv, zeta, zeta_inv = dense_generators(ep, phi, n)
        off = content_mask(n)
        pairs = [(rep.t_ops[i - 1], t[i - 1]) for i in range(1, n)]
        pairs += [(rep.t_inv_ops[i - 1], t_inv[i - 1]) for i in range(1, n)]
        pairs += [(rep.zeta, zeta), (rep.zeta_inv, zeta_inv)]
        for op, ref in pairs:
            assert np.max(np.abs(ref[off])) == 0.0
            assert np.array_equal(op.dense(), ref)

    def test_shape_and_storage(self, reps):
        rep = reps[4]
        layout = block_layout(4)
        assert rep.zeta.shape == (81, 81)
        assert sum(idx.size for idx in layout.index) == 81
        assert rep.zeta.nbytes == 16 * sum(idx.shape[0] * idx.shape[1] ** 2 for idx in layout.index)
        assert rep.t_ops[0].layout is rep.zeta.layout is layout

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_leg_is_the_dense_embedding_on_its_blocks(self, rng, n):
        # a random op that keeps the content of its two legs, on every leg
        # pair: the dense embedding is zero between contents, and its two
        # entries per column are those of ``two_leg_columns``
        content = [sorted(divmod(k, 3)) for k in range(9)]
        keeps = np.array([[cr == cc for cc in content] for cr in content])
        op = np.where(keeps, rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)), 0.0)
        off = content_mask(n)
        layout = block_layout(n)
        alphas = list(itertools.product((1, 2, 3), repeat=n))
        for a, b in itertools.combinations(range(1, n + 1), 2):
            ref = two_leg_op(op, n, a, b)
            assert np.max(np.abs(ref[off])) == 0.0
            got = np.zeros_like(ref)
            for idx, (perm, (diag, swap)) in zip(layout.index, two_leg_columns(op, n, a, b)):
                flat = idx.reshape(-1)
                for col, row, d, s in zip(flat, flat[perm], diag, swap):
                    moved = list(alphas[col])
                    moved[a - 1], moved[b - 1] = moved[b - 1], moved[a - 1]
                    assert row == tensor_index(moved)
                    got[col, col] += d
                    got[row, col] += s
            assert np.array_equal(got, ref)


class TestArithmetic:
    def test_matches_dense(self, reps, rng):
        rep = reps[3]
        a, b = rep.t_ops[0], rep.zeta
        da, db = a.dense(), b.dense()
        c = complex(rng.normal(), rng.normal())
        assert np.allclose((a @ b).dense(), da @ db, rtol=0, atol=1e-14)
        assert np.array_equal((a + b).dense(), da + db)
        assert np.array_equal((a - b).dense(), da - db)
        assert np.array_equal((c * a).dense(), c * da)
        assert np.array_equal((a * c).dense(), c * da)
        assert np.array_equal((a / c).dense(), da / c)
        assert frob(a) == pytest.approx(np.linalg.norm(da), rel=1e-15)

    def test_eigvals_are_the_dense_spectrum(self, reps):
        (y,) = spin_products(reps[3], [y_word(3, (1, 0, 0))])
        got = np.sort_complex(y.eigvals())
        want = np.sort_complex(np.linalg.eigvals(y.dense()))
        assert got.shape == (27,)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_no_silent_mixing(self, reps):
        rep = reps[3]
        with pytest.raises(TypeError):
            rep.t_ops[0] @ np.eye(27)
        with pytest.raises(TypeError):
            np.eye(27) - rep.t_ops[0]
        with pytest.raises(ValueError):
            rep.t_ops[0] @ reps[2].t_ops[0]


class TestProductsAgainstDense:
    def test_t_word_longest(self, sized):
        n, rep, (t, _, _, _) = sized
        # w0 = s_1 (s_2 s_1) (s_3 s_2 s_1) ..., in one batch with shorter words
        word = [i for k in range(1, n) for i in range(k, 0, -1)]
        want = dense_product([t[i - 1] for i in word], 3**n)
        s1 = (2, 1) + tuple(range(3, n + 1))
        ident = tuple(range(1, n + 1))
        perms = [tuple(range(n, 0, -1)), s1, ident]
        got_w0, got_s1, got_e = spin_products(rep, [[(2 + i, 1) for i in reduced_word(w)] for w in perms])
        assert rel_residual(got_w0.dense(), want) < 1e-13
        assert np.array_equal(got_s1.dense(), t[0])
        assert np.array_equal(got_e.dense(), np.eye(3**n))

    def test_y_operators(self, sized):
        n, rep, (t, t_inv, zeta, _) = sized
        ys = spin_products(rep, [y_word(n, [int(k == j) for k in range(1, n + 1)]) for j in range(1, n + 1)])
        for j, y in enumerate(ys, start=1):
            mats = [t_inv[i - 1] for i in range(j - 1, 0, -1)] + [zeta] + [t[i - 1] for i in range(n - 1, j - 1, -1)]
            assert rel_residual(y.dense(), dense_product(mats, 3**n)) < 1e-13

    def test_y_power_negative_exponent(self, sized):
        n, rep, gens = sized
        y = dense_y(gens, n)
        lam = (-1,) + (0,) * (n - 2) + (2,)
        want = np.linalg.inv(y[0]) @ y[-1] @ y[-1]
        assert rel_residual(spin_products(rep, [y_word(n, lam)])[0].dense(), want) < 1e-13

    def test_y_tilde(self, ep, sized):
        n, rep, gens = sized
        t = gens[0]
        lam = (1,) + (0,) * (n - 2) + (-1,)
        tw0 = dense_product([t[i - 1] for k in range(1, n) for i in range(k, 0, -1)], 3**n)
        y = dense_y(gens, n)
        # w0 reverses the exponents: Y^{w0 lam} = Y_1^{-1} Y_n
        pairing = sum(r * l for r, l in zip(rho_vector(n, ep.kappa), lam))
        want = pow_p(ep, -pairing) * tw0 @ np.linalg.inv(y[0]) @ y[-1] @ np.linalg.inv(tw0)
        assert rel_residual(y_tilde(rep, lam).dense(), want) < 1e-13

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_y_tilde_is_the_dense_conjugate(self, ep, phi, n):
        # p^{-(rho, lam)} tw0 @ Y^{w0 lam} @ inv(tw0), every factor from the dense generators
        rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
        gens = dense_generators(ep, phi, n)
        dim = 3**n
        tw0 = dense_product([gens[0][i - 1] for i in reduced_word(tuple(range(n, 0, -1)))], dim)
        y = dense_y(gens, n)
        for lam in [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,), (2, -1) + (0,) * (n - 2), tuple(range(n))[::-1]]:
            powers = [np.linalg.matrix_power(yj if e >= 0 else np.linalg.inv(yj), abs(e)) for yj, e in zip(y, lam[::-1])]
            pairing = sum(r * l for r, l in zip(rho_vector(n, ep.kappa), lam))
            want = pow_p(ep, -pairing) * tw0 @ dense_product(powers, dim) @ np.linalg.inv(tw0)
            assert rel_residual(y_tilde(rep, lam).dense(), want) < 1e-12

    def test_y_tilde_is_the_blockop_conjugate_at_n6(self, ep, phi):
        # too large for dense products: p^{-(rho, lam)} T_w0 Y^{w0 lam} T_w0^{-1}
        # from BlockOp matmuls of the generators: T_w0 is rep.t along a reduced
        # word of w0 and T_w0^{-1} rep.t_inv along the reversed word; Y_j and
        # Y_j^{-1} are the matmuls of their generator words
        n = 6
        rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
        w0 = reduced_word(tuple(range(n, 0, -1)))
        tw0 = blockop_product(rep, [rep.t_ops[i - 1] for i in w0])
        tw0_inv = blockop_product(rep, [rep.t_inv_ops[i - 1] for i in reversed(w0)])
        y = [
            blockop_product(rep, [rep.t_inv_ops[i - 1] for i in range(j - 1, 0, -1)] + [rep.zeta] + [rep.t_ops[i - 1] for i in range(n - 1, j - 1, -1)])
            for j in range(1, n + 1)
        ]
        y_inv = [
            blockop_product(rep, [rep.t_inv_ops[i - 1] for i in range(j, n)] + [rep.zeta_inv] + [rep.t_ops[i - 1] for i in range(1, j)])
            for j in range(1, n + 1)
        ]
        gen = np.random.default_rng(6)
        lams = [tuple(s * int(k == j) for k in range(n)) for j in range(n) for s in (1, -1)]
        lams += [tuple(int(v) for v in gen.integers(-1, 2, size=n)) for _ in range(4)]
        for lam in lams:
            pairing = sum(r * l for r, l in zip(rho_vector(n, ep.kappa), lam))
            # Y^{w0 lam} = Y_1^{lam_n} .. Y_n^{lam_1}
            powers = [(y if e > 0 else y_inv)[j] for j, e in enumerate(lam[::-1]) for _ in range(abs(e))]
            want = pow_p(ep, -pairing) * (tw0 @ blockop_product(rep, powers) @ tw0_inv)
            assert rel_residual(y_tilde(rep, lam), want) < 1e-12

    def test_transport_of_translation_word(self, ep, sized, rng):
        n, rep, (t, t_inv, zeta, zeta_inv) = sized
        q = rep.params.q
        word = translation_word(n, 1) * translation_power_word(n, (0,) * (n - 1) + (-1,))
        z = tuple(complex(rng.uniform(-1, 1), rng.uniform(0, 1)) for _ in range(n))
        want = np.eye(3**n, dtype=complex)
        cur = z
        for kind, val in word.letters:
            if kind == "xi":
                letter = zeta if val == 1 else zeta_inv
            else:
                x = pow_p(ep, cur[val - 1] - cur[val])
                letter = (t_inv[val - 1] - x * t[val - 1]) / (1.0 / q - q * x)
            want = want @ letter
            cur = affine_word(n, [(kind, val)]).inverse().point_action(cur)
        assert rel_residual(transport_word(rep, word, z).dense(), want) < 1e-13

    def test_cross_relation_residual(self, sized):
        n, rep, gens = sized
        t = gens[0]
        q = rep.params.q
        y = dense_y(gens, n)
        eye = np.eye(3**n)
        for i in range(1, n):
            lam = (1,) * i + (0,) * (n - i)  # lam_i = 1, lam_{i+1} = 0
            s_lam = lam[: i - 1] + (0, 1) + lam[i + 1 :]
            y_lam = dense_product([y[j] for j in range(n) if lam[j]], 3**n)
            y_slam = dense_product([y[j] for j in range(n) if s_lam[j]], 3**n)
            clear = eye - np.linalg.inv(y[i - 1]) @ y[i]
            lhs = (t[i - 1] @ y_lam - y_slam @ t[i - 1]) @ clear
            rhs = (q - 1.0 / q) * (y_lam - y_slam)
            scale = max(np.linalg.norm(t[i - 1] @ y_lam @ clear), np.linalg.norm(rhs), 1.0)
            want = np.linalg.norm(lhs - rhs) / scale
            assert abs(cross_relation_residual(rep, i, lam) - want) < 1e-13
