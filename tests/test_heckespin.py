"""Braid matrix, Baxterization and the commuting operator families."""

import itertools

import numpy as np
import pytest

from qkzconn import heckespin
from qkzconn.elliptic import PoleError, pow_p
from qkzconn.heckespin import (
    HeckeParams,
    baxterize,
    braid_matrix,
    cross_relation_residual,
    hecke_residual,
    perk_schultz,
    qybe_residual,
    spin_images,
    spin_products,
    spin_rep,
    word_pair_residuals,
    y_tilde,
)
from qkzconn.symgroup import content_labels, leading_index, reduced_word
from qkzconn.tensorspace import (
    block_layout,
    neighbour_columns,
    permutation_op,
    rel_residual,
    tensor_index,
    two_leg_columns,
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


#: the entries of a 9x9 operator that keep the content of its two legs
KEEPS = np.array([[sorted(divmod(r, 3)) == sorted(divmod(c, 3)) for c in range(9)] for r in range(9)])


def y_words(n):
    """The ``_family_letters`` words of Y_1 .. Y_n."""
    return [heckespin._family_letters(n, [int(k == j) for k in range(n)]) for j in range(n)]


def y_ops(rep):
    """Y_1 .. Y_n, the ``spin_products`` of their words."""
    return spin_products(rep, y_words(rep.n))


def basis_vec(alpha):
    v = np.zeros(3 ** len(alpha), dtype=complex)
    v[tensor_index(alpha)] = 1.0
    return v


class TestHeckeParams:
    def test_q_is_computed_once_with_the_same_bits(self, ep, monkeypatch):
        calls = []

        def counted(ep_, x):
            calls.append(x)
            return pow_p(ep_, x)

        monkeypatch.setattr(heckespin, "pow_p", counted)
        params = HeckeParams(elliptic=ep, n=3)
        assert [params.q for _ in range(3)] == [pow_p(ep, -ep.kappa)] * 3
        assert len(calls) == 1


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
        draws = [[np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform()) for _ in "xy"] for _ in range(20)]
        r = np.array([[perk_schultz(z, q) for z in (x, x * y, y)] for x, y in draws])
        stacked = qybe_residual(r[:, 0], r[:, 1], r[:, 2])
        assert stacked.shape == (20,)
        assert np.all(stacked < 1e-10)
        one = [qybe_residual(*r[k]) for k in range(20)]
        assert all(isinstance(v, float) for v in one)
        assert np.max(np.abs(stacked - one)) <= 1e-16

    def test_qybe_matches_the_dense_products(self, q):
        # the column route against R12, R13 and R23 embedded densely
        r_x, r_xy, r_y = (perk_schultz(z, q) for z in (0.3 + 0.2j, (0.3 + 0.2j) * (0.7 - 0.4j), 0.7 - 0.4j))
        r12, r13, r23 = two_leg_op(r_x, 3, 1, 2), two_leg_op(r_xy, 3, 1, 3), two_leg_op(r_y, 3, 2, 3)
        want = rel_residual(r12 @ r13 @ r23, r23 @ r13 @ r12)
        assert want < 1e-14
        bad = r_xy + np.diag(np.arange(9.0))
        got = qybe_residual(r_x, bad, r_y)
        want = rel_residual(r12 @ two_leg_op(bad, 3, 1, 3) @ r23, r23 @ two_leg_op(bad, 3, 1, 3) @ r12)
        assert want > 1e-3 and abs(got - want) <= 1e-13 * want

    def test_qybe_trivial_and_negative(self, q, rng):
        eye = np.eye(9, dtype=complex)
        assert qybe_residual(eye, eye, eye) == 0.0
        # a random operator that keeps the content of its two legs
        bad = np.where(KEEPS, rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)), 0.0)
        assert qybe_residual(bad, bad, bad) > 1e-3

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
        assert np.max(np.abs(rep.zeta.dense() - want)) < 1e-14

    def test_braid_relations(self, reps):
        rep = reps[4]
        for i in (1, 2):
            lhs = rep.t_ops[i - 1] @ rep.t_ops[i] @ rep.t_ops[i - 1]
            rhs = rep.t_ops[i] @ rep.t_ops[i - 1] @ rep.t_ops[i]
            assert rel_residual(lhs, rhs) < 1e-12
        assert rel_residual(rep.t_ops[0] @ rep.t_ops[2], rep.t_ops[2] @ rep.t_ops[0]) < 1e-12

    def test_affine_relations(self, reps):
        for n, rep in reps.items():
            for i in range(1, n - 1):
                assert rel_residual(rep.zeta @ rep.t_ops[i - 1], rep.t_ops[i] @ rep.zeta) < 1e-12
            z2 = rep.zeta @ rep.zeta
            assert rel_residual(z2 @ rep.t_ops[n - 2], rep.t_ops[0] @ z2) < 1e-12

    def test_conjugation_by_rotation(self, reps):
        rep = reps[3]
        got = rep.zeta @ rep.t_ops[0] @ rep.zeta_inv
        assert rel_residual(got, rep.t_ops[1]) < 1e-12

    def test_hecke_inverse_is_exact(self, reps):
        for rep in reps.values():
            for i in range(1, rep.n):
                assert rel_residual((rep.t_ops[i - 1] @ rep.t_inv_ops[i - 1]).dense(), np.eye(rep.dim)) < 1e-13

    def test_relations_rank5(self, ep, phi):
        rep = spin_rep(HeckeParams(elliptic=ep, n=5), phi)
        for i in (1, 2, 3):
            lhs = rep.t_ops[i - 1] @ rep.t_ops[i] @ rep.t_ops[i - 1]
            rhs = rep.t_ops[i] @ rep.t_ops[i - 1] @ rep.t_ops[i]
            assert rel_residual(lhs, rhs) < 1e-12
        assert rel_residual(rep.t_ops[0] @ rep.t_ops[3], rep.t_ops[3] @ rep.t_ops[0]) < 1e-12
        for i in (1, 2, 3):
            assert rel_residual(rep.zeta @ rep.t_ops[i - 1], rep.t_ops[i] @ rep.zeta) < 1e-12
        z2 = rep.zeta @ rep.zeta
        assert rel_residual(z2 @ rep.t_ops[3], rep.t_ops[0] @ z2) < 1e-12


class TestYFamily:
    def test_n2_factorizations(self, reps):
        y1, y2 = y_ops(reps[2])
        assert rel_residual(y1, reps[2].zeta @ reps[2].t_ops[0]) < 1e-14
        assert rel_residual(y2, reps[2].t_inv_ops[0] @ reps[2].zeta) < 1e-14

    def test_commutation(self, reps):
        for rep in reps.values():
            ys = y_ops(rep)
            for a in range(len(ys)):
                for b in range(a + 1, len(ys)):
                    assert rel_residual(ys[a] @ ys[b], ys[b] @ ys[a]) < 1e-10

    def test_product_commutes_with_generators(self, reps):
        rep = reps[3]
        (prod,) = spin_products(rep, [heckespin._family_letters(3, (1, 1, 1))])
        for i in (1, 2):
            assert rel_residual(prod @ rep.t_ops[i - 1], rep.t_ops[i - 1] @ prod) < 1e-11

    def test_eigenvalue_on_leading_vector(self, ep, phi, reps):
        # content (1, 0, 1): the leading vector picks up -p^(-phi_3)
        rep = reps[2]
        v = basis_vec((3, 1))
        got = y_ops(rep)[0].dense() @ v
        want = -pow_p(ep, -phi[2]) * v
        assert np.max(np.abs(got - want)) < 1e-13

    def test_cross_relations(self, reps):
        rep2, rep3 = reps[2], reps[3]
        assert cross_relation_residual(rep2, 1, (1, 1)) < 1e-14  # symmetric exponent
        assert cross_relation_residual(rep2, 1, (1, 0)) < 1e-10
        assert cross_relation_residual(rep3, 2, (0, 1, 0)) < 1e-10

    def test_y_tilde_trivial(self, reps):
        rep = reps[3]
        assert rel_residual(y_tilde(rep, (0, 0, 0)).dense(), np.eye(rep.dim)) < 1e-14

    def test_y_tilde_n2_form(self, ep, reps):
        rep = reps[2]
        got = y_tilde(rep, (1, 0))
        want = pow_p(ep, -ep.kappa) * rep.t_ops[0] @ y_ops(rep)[1] @ rep.t_inv_ops[0]
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
        (got,) = spin_products(rep, [[(2 + i, 1) for i in reduced_word(w0)]])
        want = rep.t_ops[0] @ rep.t_ops[1] @ rep.t_ops[0]
        assert rel_residual(got, want) < 1e-13


def blockop_product(rep, factors):
    """The BlockOp matmul chain of the factors, left to right, from the empty word."""
    out = spin_products(rep, [[]])[0]
    for f in factors:
        out = out @ f
    return out


def recording(monkeypatch):
    """Record the word lengths of every product pass, the private generator
    behind both ``spin_products`` and ``word_pair_residuals``."""
    calls = []
    products = heckespin._group_products

    def recorded(rep, words, *args):
        calls.append([len(w) for w in words])
        return products(rep, words, *args)

    monkeypatch.setattr(heckespin, "_group_products", recorded)
    return calls


class TestYTildeWord:
    """``y_tilde`` is one product of the X_j letters, with no T_w0 letter."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_one_product_of_n_letters_per_unit(self, ep, phi, n, monkeypatch):
        rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
        calls = recording(monkeypatch)
        gen = np.random.default_rng(n)
        lams = [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,), (2, -1) + (0,) * (n - 2)]
        lams += [tuple(int(v) for v in gen.integers(-2, 3, size=n)) for _ in range(3)]
        for lam in lams:
            calls.clear()
            y_tilde(rep, lam)
            assert calls == [[n * sum(abs(e) for e in lam)]]
        # lam = 0 is the empty word, which the padding makes the exact identity
        calls.clear()
        got = y_tilde(rep, (0,) * n)
        assert calls == [[0]]
        assert np.array_equal(got.dense(), pow_p(ep, 0.0) * np.eye(3**n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_family_letters_spell_y_and_its_conjugate(self, reps, n):
        # the letters of Y_j^e are the BlockOp matmuls of the generators in
        # Y_j = T_{j-1}^{-1} .. T_1^{-1} zeta T_{n-1} .. T_j, or of those in
        # Y_j^{-1} = T_j^{-1} .. T_{n-1}^{-1} zeta^{-1} T_1 .. T_{j-1}; those
        # of X_j^e are T_w0 Y_{n+1-j}^e T_w0^{-1}, with T_w0^{-1} the T_i^{-1}
        # along the reversed word of w0
        rep = reps[n]
        w0 = reduced_word(tuple(range(n, 0, -1)))
        tw0 = blockop_product(rep, [rep.t_ops[i - 1] for i in w0])
        tw0_inv = blockop_product(rep, [rep.t_inv_ops[i - 1] for i in reversed(w0)])

        def y_ref(j, e):
            word = [rep.t_inv_ops[i - 1] for i in range(j - 1, 0, -1)] + [rep.zeta] + [rep.t_ops[i - 1] for i in range(n - 1, j - 1, -1)]
            if e < 0:
                word = [rep.t_inv_ops[i - 1] for i in range(j, n)] + [rep.zeta_inv] + [rep.t_ops[i - 1] for i in range(1, j)]
            return blockop_product(rep, abs(e) * word)

        for j in range(1, n + 1):
            for e in (1, -1, 2):
                lam = [e * (k == j) for k in range(1, n + 1)]
                words = [heckespin._family_letters(n, lam, opposite) for opposite in (False, True)]
                y_word, x_word = spin_products(rep, words)
                assert rel_residual(y_word, y_ref(j, e)) < 1e-13
                assert rel_residual(x_word, tw0 @ y_ref(n + 1 - j, e) @ tw0_inv) < 1e-13


class TestSpinProducts:
    """``spin_products`` is the one product of spin-representation words."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_y_operators_are_one_product_call(self, ep, phi, n, monkeypatch):
        # the words Y_a Y_b and Y_b Y_a of every pair a < b, both sides of
        # every pair in one call, and the batch of all n Y_j words, each its
        # one-word call value for value
        rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
        words = y_words(n)
        pairs = [(words[a] + words[b], words[b] + words[a]) for a, b in itertools.combinations(range(n), 2)]
        calls = recording(monkeypatch)
        residuals = word_pair_residuals(rep, pairs)
        assert calls == [[2 * n] * (2 * len(pairs))]
        assert len(residuals) == len(pairs) and max(residuals, default=0.0) < 1e-10
        for y, word in zip(spin_products(rep, words), words):
            (one,) = spin_products(rep, [word])
            assert all(np.array_equal(a, b) for a, b in zip(y.stacks, one.stacks))

    def test_padded_batch_equals_one_word_calls(self, reps, rng):
        # words of different lengths, the empty word among them, with random
        # t and den on their letters and t = 0, den = 1 on the pads: each
        # product is its one-word call bit for bit
        n = 3
        rep = reps[n]
        letters = [(1, 0), (2, 0)] + [(2 + i, side) for i in (1, 2) for side in (0, 1)]
        words = [[letters[k] for k in rng.integers(len(letters), size=m)] for m in (5, 0, 2, 7)]
        shape = (7, len(words))
        t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        den = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for w, word in enumerate(words):
            t[len(word) :, w], den[len(word) :, w] = 0.0, 1.0
        batch = spin_products(rep, words, t, den)
        for w, word in enumerate(words):
            (one,) = spin_products(rep, [word], t[: max(1, len(word)), w : w + 1], den[: max(1, len(word)), w : w + 1])
            assert all(np.array_equal(a, b) for a, b in zip(batch[w].stacks, one.stacks))
        assert np.array_equal(spin_products(rep, [[]])[0].dense(), np.eye(27))


class TestWordPairResiduals:
    """``word_pair_residuals`` compares the two words of each pair."""

    def test_each_value_is_the_rel_residual_of_its_products(self, reps, rng):
        rep = reps[3]
        letters = [(1, 0), (2, 0)] + [(2 + i, side) for i in (1, 2) for side in (0, 1)]
        words = [[letters[k] for k in rng.integers(len(letters), size=m)] for m in (4, 0, 3, 6)]
        pairs = [(words[0], words[1]), (words[2], words[3]), (words[3], words[3])]
        got = word_pair_residuals(rep, pairs)
        want = [rel_residual(*spin_products(rep, pair)) for pair in pairs]
        assert got == pytest.approx(want, rel=1e-15, abs=4e-16)
        assert got[2] == 0.0

    def test_a_misspelled_pair_fails(self, reps):
        # T_1 T_2 against T_2 T_1: neighbouring generators do not commute
        t1, t2 = (3, 1), (4, 1)
        (residual,) = word_pair_residuals(reps[3], [([t1, t2], [t2, t1])])
        assert residual >= 1e-3


class TestSpinImages:
    """``spin_images`` applies words of generator letters to one basis vector."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_images_are_the_product_columns(self, ep, phi, n):
        # zeta^{+-1} (the rotation, whose column permutation is no
        # involution), T_i^{+-1}, the empty word and words of mixed lengths in
        # one call, applied to every block's leading vector: each image is the
        # column of the same word's product, and zero outside the block
        rep = spin_rep(HeckeParams(elliptic=ep, n=n), phi)
        letters = [(1, 0), (2, 0)] + [(2 + i, side) for i in range(1, n) for side in (0, 1)]
        gen = np.random.default_rng(n)
        words = [[letter] for letter in letters] + [[]]
        words += [[letters[k] for k in gen.integers(len(letters), size=m)] for m in (2, 5, 9)]
        layout = block_layout(n)
        prods = [p.dense() for p in spin_products(rep, words)]
        for r in content_labels(n):
            src = tensor_index(leading_index(r))
            block = layout.index[layout.group[src]][layout.block[src]]
            images = spin_images(rep, *heckespin._padded(words), src)
            assert images.shape == (len(words), block.size)
            for img, prod in zip(images, prods):
                col = prod[:, src].copy()
                assert np.max(np.abs(img - col[block])) <= 1e-14 * max(1.0, np.max(np.abs(col)))
                col[block] = 0.0
                assert not col.any()
            assert np.array_equal(images[len(letters)], np.eye(block.size)[layout.pos[src]])


class TestGeneratorColumns:
    """``spin_rep`` writes the T_i and T_i^{-1} columns of all neighbour pairs
    with one gather per side; they are the per-pair ``two_leg_columns``."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stacked_columns_are_the_per_pair_columns(self, ep, phi, n):
        params = HeckeParams(elliptic=ep, n=n)
        q = params.q
        b = braid_matrix(q)
        b_inv = b - (q - 1.0 / q) * np.eye(9, dtype=complex)
        columns = spin_rep(params, phi).columns
        for side, op in enumerate((b_inv, b)):
            for i in range(1, n):
                for cols, (_, want) in zip(columns, two_leg_columns(op, n, i, i + 1), strict=True):
                    assert cols[side, :, 2 + i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_neighbour_columns_of_a_random_operator(self, n):
        gen = np.random.default_rng(40 + n)
        op = np.where(KEEPS, gen.normal(size=(9, 9)) + 1j * gen.normal(size=(9, 9)), 0.0)
        stacked = neighbour_columns(op, n)
        for i in range(1, n):
            for got, (_, want) in zip(stacked, two_leg_columns(op, n, i, i + 1), strict=True):
                assert got[:, i - 1].tobytes() == want.tobytes()

    def test_content_changing_operator_raises_the_same_error(self, ep, phi):
        params = HeckeParams(elliptic=ep, n=3)
        op = braid_matrix(params.q)
        op[1, 2] = 1.0  # v1 v3 -> v1 v2 changes the pair's content
        with pytest.raises(ValueError) as stacked:
            heckespin._generator_columns(params, op, phi)
        with pytest.raises(ValueError) as per_pair:
            two_leg_columns(op, 3, 1, 2)
        assert str(stacked.value) == str(per_pair.value) == "the operator changes the content of its two legs"

    @pytest.mark.parametrize("control", [None, 3])
    def test_one_content_changing_operator_in_a_stack_raises(self, q, control):
        # a (2, 3) stack of operators that keep content, but for one entry of one
        ops = np.broadcast_to(braid_matrix(q), (2, 3, 9, 9)).copy()
        ops[1, 2, 1, 2] = 1.0  # v1 v3 -> v1 v2 changes the pair's content
        with pytest.raises(ValueError, match="changes the content"):
            two_leg_columns(ops, 3, 1, 2, control)
        two_leg_columns(ops[:1], 3, 1, 2, control)


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

    @pytest.mark.parametrize("m", [3, 2])
    @pytest.mark.parametrize("a, b, control", [(1, 2, 3), (2, 3, 1), (1, 3, 2)])
    def test_controlled_op_sums_projected_embeddings(self, q, m, a, b, control):
        # m operators for the control values v_1 .. v_m; a column whose
        # control leg holds a value past them reads the zero operator
        ops = [braid_matrix(q) * (j + 1) + j * np.eye(9) for j in range(m)]
        want = np.zeros((27, 27), dtype=complex)
        for j in range(m):
            on_j = [1.0 if alpha[control - 1] == j else 0.0 for alpha in itertools.product(range(3), repeat=3)]
            want += two_leg_op(ops[j], 3, a, b) @ np.diag(on_j)
        assert np.array_equal(columns_dense(3, two_leg_columns(ops, 3, a, b, control)), want)

    def test_control_leg_must_lie_outside_the_pair(self, q):
        ops = [braid_matrix(q)] * 3
        for control in (1, 2, 4):
            with pytest.raises(ValueError):
                two_leg_columns(ops, 3, 1, 2, control)
        with pytest.raises(ValueError):
            two_leg_columns(ops, 3, 2, 4, 1)

    @pytest.mark.parametrize("d", [3, 2])
    def test_stacked_embeddings_equal_per_item_calls(self, q, d):
        # a (2, 4) stack of local operators
        gen = np.random.default_rng(5)
        shape = (2, 4, d * d, d * d)
        ops = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        legs = two_leg_op(ops, 4, 2, 4)
        assert legs.shape == (2, 4, d**4, d**4)
        for s in np.ndindex(2, 4):
            assert np.array_equal(legs[s], two_leg_op(ops[s], 4, 2, 4))

    @pytest.mark.parametrize("control", [None, 2])
    def test_stacked_columns_equal_per_item_calls(self, control):
        # a (2, 4) stack of operators, or of control triples of them, that keep content
        gen = np.random.default_rng(5)
        shape = (2, 4) + (() if control is None else (3,)) + (9, 9)
        ops = np.where(KEEPS, gen.normal(size=shape) + 1j * gen.normal(size=shape), 0.0)
        stacked = two_leg_columns(ops, 3, 1, 3, control)
        for s in np.ndindex(2, 4):
            for (perm, entries), (want_perm, want) in zip(stacked, two_leg_columns(ops[s], 3, 1, 3, control), strict=True):
                assert entries.shape == (2, 4) + want.shape
                assert perm is want_perm and np.array_equal(entries[s], want)
        if control is not None:
            on_j = [[float(alpha[1] == j) for alpha in itertools.product(range(3), repeat=3)] for j in range(3)]
            want = sum(two_leg_op(ops[1, 2, j], 3, 1, 3) @ np.diag(on_j[j]) for j in range(3))
            assert np.array_equal(columns_dense(3, [(p, e[1, 2]) for p, e in stacked]), want)


def columns_dense(n, columns):
    """The dense matrix of the column data of ``two_leg_columns``, placed by ``block_layout``."""
    out = np.zeros((3**n, 3**n), dtype=complex)
    for idx, (perm, (diag, swap)) in zip(block_layout(n).index, columns):
        flat = idx.reshape(-1)
        out[flat, flat] += diag
        out[flat[perm], flat] += swap
    return out
