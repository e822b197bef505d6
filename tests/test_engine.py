"""The product engine and the pair reduction: ``column_products`` against its
allocating form, the index range of every permutation it gathers by, and the
pair laws that reduce per content group with no operator built."""

import dataclasses
import math

import numpy as np
import pytest

from qkzconn import connection, heckespin, qkz
from qkzconn.blocks import content_block
from qkzconn.heckespin import HeckeParams, spin_products, spin_rep, word_pair_residuals, y_tilde
from qkzconn.params import sample_point
from qkzconn.symgroup import content_labels
from qkzconn.tensorspace import (
    BlockOp,
    _column_perms,
    _leg_swap,
    block_layout,
    column_products,
    letter_table,
    pair_residuals,
    rel_residual,
)

SITES = range(2, 7)


def allocating_column_products(perm, a, b, d):
    """``column_products`` as it was before the scratch stack: a new gather
    at every letter, with np.take's default mode."""
    nw, kd = perm.shape[1:]
    mat = np.zeros((nw, kd, d), dtype=complex)
    rows = mat.reshape(nw * kd, d)
    src = (perm + kd * np.arange(nw)[:, None]).reshape(len(perm), nw * kd)
    every = np.arange(nw * kd)
    rows[every, src[0] % d] = b[0].reshape(-1)
    rows[every, every % d] = a[0].reshape(-1)
    for pos in range(1, len(perm)):
        moved = np.take(rows, src[pos], axis=0).reshape(nw, kd, d)
        moved *= b[pos, :, :, None]
        mat *= a[pos, :, :, None]
        mat += moved
    return mat.reshape(nw, kd // d, d, d).swapaxes(-1, -2)


def random_columns(gen, positions, words, k, d):
    # block-preserving random column permutations and their two entries,
    # b = 0 at the fixed points
    shape = (positions, words, k * d)
    perm = np.concatenate([j * d + gen.permuted(np.broadcast_to(np.arange(d), shape[:2] + (d,)), axis=-1) for j in range(k)], axis=-1)
    a = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    b = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    b[perm == np.arange(k * d)] = 0.0
    return perm, a, b


def assert_permutes_its_blocks(perm, d):
    # each row is a permutation of range(k*d) that keeps every block of d places
    perm = np.asarray(perm).reshape(-1, np.shape(perm)[-1])
    places = np.arange(perm.shape[-1])
    for row in perm:
        assert np.array_equal(np.sort(row), places)
        assert np.array_equal(row // d, places // d)


class TestColumnProducts:
    @pytest.mark.parametrize("d", [1, 3, 12, 60])
    def test_equals_the_allocating_loop_bit_for_bit(self, d):
        gen = np.random.default_rng(d)
        for words in range(1, 6):
            for positions in range(1, 10):
                perm, a, b = random_columns(gen, positions, words, int(gen.integers(1, 4)), d)
                got = column_products(perm, a, b, d)
                want = allocating_column_products(perm, a, b, d)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (words, positions)


class TestGatherIndexRange:
    """``column_products`` gathers with mode="clip", which would clamp a bad
    index silently: every permutation that reaches it must be one of the
    places of its own blocks."""

    @pytest.mark.parametrize("n", SITES)
    def test_letter_table(self, n):
        for idx, perms in zip(block_layout(n).index, letter_table(n)):
            assert perms.shape == (n + 2, idx.size)
            assert_permutes_its_blocks(perms, idx.shape[1])

    @pytest.mark.parametrize("n", SITES)
    def test_leg_swaps_of_two_leg_and_neighbour_columns(self, n):
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                for idx, perm in zip(block_layout(n).index, _column_perms(n, _leg_swap(n, a, b))):
                    assert_permutes_its_blocks(perm, idx.shape[1])

    @pytest.mark.parametrize("n", SITES)
    def test_connection_tables(self, ep, phi, n):
        for idx, table in zip(block_layout(n).index, connection._tensor_table(n)):
            assert_permutes_its_blocks(table.perm, idx.shape[1])
        for r in content_labels(n):
            spec = content_block(ep, n, r, phi)
            table = connection._block_table(n, spec.index_set, spec.signs)
            assert_permutes_its_blocks(table.perm, table.perm.shape[1])

    def test_r_matrix_permutation(self):
        assert_permutes_its_blocks(connection._R_PERM, 9)


@pytest.fixture(scope="module")
def all_reps(ep, phi):
    return {n: spin_rep(HeckeParams(elliptic=ep, n=n), phi) for n in SITES}


def random_words(gen, n, count, longest):
    letters = [(1, 0), (2, 0)] + [(2 + i, side) for i in range(1, n) for side in (0, 1)]
    return [[letters[k] for k in gen.integers(len(letters), size=gen.integers(0, longest + 1))] for _ in range(count)]


class TestPairPath:
    """The pair laws equal ``rel_residual`` of the materialised operators."""

    @staticmethod
    def materialised(rep, pairs, *args):
        prods = spin_products(rep, [word for pair in pairs for word in pair], *args)
        return [rel_residual(lhs, rhs) for lhs, rhs in zip(prods[::2], prods[1::2])]

    @pytest.mark.parametrize("n", SITES)
    def test_word_pair_residuals_of_laws(self, all_reps, n):
        # Y_a Y_b against Y_b Y_a, and the braid relations of the T_i
        rep = all_reps[n]
        ys = [heckespin._family_letters(n, [int(k == j) for k in range(n)]) for j in range(n)]
        t = heckespin._t
        pairs = [(ys[a] + ys[b], ys[b] + ys[a]) for a in range(n) for b in range(a + 1, n)]
        pairs += [([t(i), t(i + 1), t(i)], [t(i + 1), t(i), t(i + 1)]) for i in range(1, n - 1)]
        want = self.materialised(rep, pairs)
        assert max(want) < 1e-12
        assert word_pair_residuals(rep, pairs) == pytest.approx(want, rel=0.0, abs=4e-16)

    @pytest.mark.parametrize("n", SITES)
    def test_word_pair_residuals_of_random_words(self, all_reps, n):
        # words that obey no law, with and without random t and den: the
        # residuals are of order 1 and agree to rounding
        gen = np.random.default_rng(100 + n)
        rep = all_reps[n]
        words = random_words(gen, n, 6, 7)
        pairs = list(zip(words[::2], words[1::2]))
        shape = (max(1, *map(len, words)), len(words))
        t = 0.1 * (gen.normal(size=shape) + 1j * gen.normal(size=shape))
        den = 1.0 + 0.1 * (gen.normal(size=shape) + 1j * gen.normal(size=shape))
        for args in ((), (t, den)):
            want = self.materialised(rep, pairs, *args)
            assert word_pair_residuals(rep, pairs, *args) == pytest.approx(want, rel=1e-15, abs=4e-16)

    @pytest.mark.parametrize("n", SITES)
    def test_flatness_residual(self, all_reps, ep, n):
        gen = np.random.default_rng(200 + n)
        rep = all_reps[n]
        z = sample_point(gen, n, ep.nome)
        for i, j in ((1, n), (1, 2)):
            want = rel_residual(*qkz.transport_words(rep, qkz.flatness_words(n, i, j, z)))
            assert qkz.flatness_residual(rep, i, j, z) == pytest.approx(want, rel=0.0, abs=4e-16)

    @pytest.mark.parametrize("n", SITES)
    def test_braid_limit_residual(self, all_reps, n):
        rep = all_reps[n]
        for lam in ((1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,), (1,) + (0,) * (n - 2) + (-1,)):
            for depth in (6.0, 40.0):
                z = tuple(complex((k - 1) * depth) for k in range(1, n + 1))
                want = rel_residual(qkz.transport_word(rep, qkz.translation_power_word(n, lam), z), y_tilde(rep, lam))
                assert qkz.braid_limit_residual(rep, lam, depth) == pytest.approx(want, rel=0.0, abs=4e-16)

    def test_empty_batches(self, all_reps):
        assert word_pair_residuals(all_reps[3], []) == []
        assert qkz.transport_pair_residuals(all_reps[3], []) == []

    def test_no_operator_is_built(self, all_reps, ep, monkeypatch):
        rep = all_reps[6]
        z = sample_point(np.random.default_rng(6), 6, ep.nome)
        words = random_words(np.random.default_rng(7), 6, 4, 5)
        built = []
        init = BlockOp.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(BlockOp, "__init__", counting)
        qkz.flatness_residual(rep, 1, 6, z)
        qkz.braid_limit_residual(rep, (1, 0, 0, 0, 0, 0), 40.0)
        word_pair_residuals(rep, list(zip(words[::2], words[1::2])))
        assert built == []
        spin_products(rep, words[:1])
        assert len(built) == 1


class TestNonFinite:
    """A non-finite norm or difference gives NaN, in either order."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rel_residual_ndarray(self, bad):
        zero, poisoned = np.zeros((2, 2)), np.full((2, 2), bad)
        assert math.isnan(rel_residual(zero, poisoned))
        assert math.isnan(rel_residual(poisoned, zero))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rel_residual_blockop(self, all_reps, bad):
        (op,) = spin_products(all_reps[2], [[(3, 1)]])
        zero = op * 0.0
        poisoned = BlockOp(op.layout, (np.full_like(s, bad) if g == 0 else s for g, s in enumerate(op.stacks)))
        for lhs, rhs in ((zero, poisoned), (poisoned, zero), (op, poisoned), (poisoned, op)):
            assert math.isnan(rel_residual(lhs, rhs))
        assert rel_residual(zero, zero) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_pair_reduction(self, bad):
        zero, poisoned = np.zeros((2, 2)), np.full((2, 2), bad, dtype=complex)
        stack = np.stack([zero, poisoned, poisoned, zero, zero, zero])
        assert np.isnan(pair_residuals([stack])[:2]).all()
        assert pair_residuals([stack])[2] == 0.0

    def test_word_pair_residuals(self, all_reps):
        rep = all_reps[3]
        columns = [cols.copy() for cols in rep.columns]
        columns[0][1, 0, 3, 0] = np.nan
        poisoned = dataclasses.replace(rep, columns=tuple(columns))
        t1, t2 = (3, 1), (4, 1)
        got = word_pair_residuals(poisoned, [([t1], [t2]), ([t2], [t1]), ([t2], [t2])])
        assert math.isnan(got[0]) and math.isnan(got[1])
        assert got[2] == 0.0
