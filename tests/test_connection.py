"""Connection matrices, the tensor-basis monodromy and the dynamical R-matrix."""

import itertools
import math

import numpy as np
import pytest

from qkzconn.blocks import PrincipalSeriesSpec, _block_gamma_raw, block_bases, content_block
from qkzconn.connection import (
    PHI_FAMILY,
    PSI_FAMILY,
    XI_FAMILY,
    connection_words,
    dual_position,
    dybe_residual,
    dyn_r_matrix,
    felder_residual,
    shifted_r_apply,
    tensor_monodromy_from_blocks_words,
    tensor_monodromy_words,
)
from qkzconn import connection, elliptic
from qkzconn.elliptic import POLE_TOL, PoleError, coeff_a, coefficients
from qkzconn.params import sample_dynamical, sample_phi, sample_point_band, sample_scalar
from qkzconn.symgroup import (
    act,
    compose,
    content_labels,
    identity_perm,
    inverse,
    min_coset_reps,
    reduced_word,
    simple,
)
from qkzconn.tensorspace import (
    WEIGHTS,
    BlockOp,
    block_layout,
    multi_indices,
    permutation_op,
    rel_residual,
    tensor_index,
    two_leg_op,
)


def half_period(ep):
    return -1j * math.pi / ep.nome.log_p


def band_z(rng, n):
    return sample_point_band(rng, n)


#: the even two-site basis vectors v_a v_b with a, b in {1, 2}
EVEN = [tensor_index((a, b)) for a in (1, 2) for b in (1, 2)]


def even(r):
    # the restriction of a (stack of) 9x9 matrices to the even two-site basis
    return r[..., EVEN, :][..., EVEN]


def fixture_phi(y, phi3=0.0):
    # phi_1 - phi_2 = y exactly
    return (y / 2, -y / 2, phi3)


def word_product(ep, spec, w, z):
    # the block matrix of w along its reduced word
    (m,) = connection_words(ep, [(spec, reduced_word(w), z)])
    return m


class TestConnectionSimple:
    def test_full_parabolic_is_scalar_one(self, ep, phi):
        n = 3
        spec = content_block(ep, n, (n, 0, 0), phi)  # all signs +
        m = connection_words(ep, [(spec, (1,), (0.3 + 0.1j, 0.1, -0.2 + 0.05j))])[0]
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(1.0)

    def test_rank2_empty_index_pattern(self, ep, rng):
        gamma = (0.31 + 0.12j, -0.17 + 0.21j)
        spec = PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=gamma)
        z = band_z(rng, 2)
        x = z[0] - z[1]
        y = gamma[0] - gamma[1]
        m = connection_words(ep, [(spec, (1,), z)])[0]
        assert min_coset_reps(2, spec.index_set) == ((1, 2), (2, 1))
        want = np.array(
            [
                [coeff_a(ep, y, x), coefficients(ep, -y, x)[1]],
                [coefficients(ep, y, x)[1], coeff_a(ep, -y, x)],
            ]
        )
        assert np.allclose(m, want, atol=1e-13)

    def test_pole_names_the_letter(self, ep, rng):
        # gamma difference y = 1 puts theta(p^1) = 0 in the A-denominator
        spec = PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=(0.5, -0.5))
        with pytest.raises(PoleError) as err:
            connection_words(ep, [(spec, (1,), band_z(rng, 2))])
        assert "s_1" in str(err.value)
        assert err.value.factor == "p^y"
        assert err.value.magnitude < POLE_TOL

    def test_unitarity(self, ep, phi, rng):
        for n in (2, 3):
            for r in content_labels(n):
                spec = content_block(ep, n, r, phi)
                for i in range(1, n):
                    z = band_z(rng, n)
                    m1 = connection_words(ep, [(spec, (i,), z)])[0]
                    m2 = connection_words(ep, [(spec, (i,), act(simple(n, i), z))])[0]
                    assert rel_residual(m1 @ m2, np.eye(m1.shape[0])) < 1e-9

    def test_off_diagonal_sparsity(self, ep, phi, rng):
        n, r = 3, (1, 1, 1)
        spec = content_block(ep, n, r, phi)
        m = connection_words(ep, [(spec, (1,), band_z(rng, n))])[0]
        ni = dual_position(n, 1)
        basis = min_coset_reps(n, spec.index_set)
        for a, wa in enumerate(basis):
            for b, wb in enumerate(basis):
                if a == b:
                    continue
                if wa != compose(simple(n, ni), wb):
                    assert m[a, b] == 0.0


class TestConnectionWord:
    def test_identity_word(self, ep, phi, rng):
        spec = content_block(ep, 3, (1, 1, 1), phi)
        m = word_product(ep, spec, identity_perm(3), band_z(rng, 3))
        assert np.array_equal(m, np.eye(6))

    def test_braid_relation(self, ep, phi, rng):
        n = 3
        for r in content_labels(n):
            spec = content_block(ep, n, r, phi)
            z = band_z(rng, n)
            lhs = connection_words(ep, [(spec, (1,), z)])[0]
            lhs = lhs @ connection_words(ep, [(spec, (2,), act(simple(n, 1), z))])[0]
            lhs = lhs @ connection_words(ep, [(spec, (1,), act(compose(simple(n, 2), simple(n, 1)), z))])[0]
            rhs = connection_words(ep, [(spec, (2,), z)])[0]
            rhs = rhs @ connection_words(ep, [(spec, (1,), act(simple(n, 2), z))])[0]
            rhs = rhs @ connection_words(ep, [(spec, (2,), act(compose(simple(n, 1), simple(n, 2)), z))])[0]
            assert rel_residual(lhs, rhs) < 1e-9
            # both reduced words of the longest element give the same matrix
            w0 = (3, 2, 1)
            assert rel_residual(word_product(ep, spec, w0, z), lhs) < 1e-9

    def test_cocycle(self, ep, phi, rng):
        n = 3
        spec = content_block(ep, n, (1, 1, 1), phi)
        perms = [(2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1)]
        for _ in range(5):
            w1 = perms[rng.integers(len(perms))]
            w2 = perms[rng.integers(len(perms))]
            z = band_z(rng, n)
            lhs = word_product(ep, spec, compose(w1, w2), z)
            rhs = word_product(ep, spec, w1, z) @ word_product(ep, spec, w2, act(inverse(w1), z))
            assert rel_residual(lhs, rhs) < 1e-9


    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_word_is_product_of_letters(self, ep, phi, rng, n):
        # every content, along the reduced word of the longest element
        w0 = tuple(range(n, 0, -1))
        for r in content_labels(n):
            spec = content_block(ep, n, r, phi)
            z = band_z(rng, n)
            want = np.eye(len(min_coset_reps(n, spec.index_set)), dtype=complex)
            zcur = z
            for i in reduced_word(w0):
                want = want @ connection_words(ep, [(spec, (i,), zcur)])[0]
                zcur = act(simple(n, i), zcur)
            assert rel_residual(word_product(ep, spec, w0, z), want) < 1e-13

    def test_words_share_one_batch(self, ep, phi, rng):
        n = 3
        spec = content_block(ep, n, (1, 1, 1), phi)
        z = band_z(rng, n)
        words = [(spec, (1, 2, 1), z), (spec, (2,), act(simple(n, 1), z)), (spec, (), z)]
        got = connection_words(ep, words)
        assert rel_residual(got[0], word_product(ep, spec, (3, 2, 1), z)) < 1e-13
        assert rel_residual(got[1], connection_words(ep, [(spec, (2,), act(simple(n, 1), z))])[0]) < 1e-13
        assert np.array_equal(got[2], np.eye(6))

    @pytest.mark.parametrize("labels", [(0,), (3,), (-1,), (1, 0, 2)])
    def test_rejects_a_letter_out_of_range(self, ep, phi, rng, labels):
        # label 0 would be the identity row of a letter table, and -1 its last row
        z = band_z(rng, 3)
        with pytest.raises(ValueError, match="out of range"):
            connection_words(ep, [(content_block(ep, 3, (1, 1, 1), phi), labels, z)])
        with pytest.raises(ValueError, match="out of range"):
            tensor_monodromy_words(ep, [(phi, labels, z)])


class TestTensorMonodromy:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_spectral_vectors_are_those_of_content_block(self, ep, rng, n):
        # the tensor route reads each block's gamma without building its spec
        log_p = ep.nome.log_p
        for _ in range(3):
            phi = sample_phi(rng)
            for r in content_labels(n):
                assert _block_gamma_raw(log_p, ep.kappa, phi, n, r) == content_block(ep, n, r, phi).gamma

    def test_rank2_equals_dynamical_r(self, ep, rng):
        for _ in range(5):
            phi = sample_phi(rng)
            z = band_z(rng, 2)
            (m,) = tensor_monodromy_words(ep, [(phi, (1,), z)])
            r = dyn_r_matrix(ep, z[0] - z[1], phi)
            assert rel_residual(m.dense(), r) < 1e-9

    def test_worked_case_single_content(self, ep, phi, rng):
        # the action on v1 x v3 x v2 carries the argument
        # phi_3 - phi_2 + half period, with a minus sign on the exchange term
        n, i = 3, 1
        z = band_z(rng, n)
        x = z[0] - z[1]
        (m,) = tensor_monodromy_words(ep, [(phi, (i,), z)])
        beta = (1, 3, 2)
        col = m.dense()[:, tensor_index(beta)]
        y = phi[2] - phi[1] + half_period(ep)
        assert col[tensor_index(beta)] == pytest.approx(coeff_a(ep, y, x))
        assert col[tensor_index((1, 2, 3))] == pytest.approx(-coefficients(ep, y, x)[1])
        assert np.count_nonzero(col) == 2

    def test_worked_case_repeated_content(self, ep, phi, rng):
        # on v2 x v3 x v2 the argument gains + kappa
        n, i = 3, 1
        z = band_z(rng, n)
        x = z[0] - z[1]
        (m,) = tensor_monodromy_words(ep, [(phi, (i,), z)])
        beta = (2, 3, 2)
        col = m.dense()[:, tensor_index(beta)]
        y = phi[2] - phi[1] + half_period(ep) + ep.kappa
        assert col[tensor_index(beta)] == pytest.approx(coeff_a(ep, y, x))
        assert col[tensor_index((2, 2, 3))] == pytest.approx(-coefficients(ep, y, x)[1])

    def test_diagonal_cases(self, ep, phi, rng):
        n, i = 3, 1
        z = band_z(rng, n)
        x = z[0] - z[1]
        (m,) = tensor_monodromy_words(ep, [(phi, (i,), z)])
        for beta, want in (
            ((3, 1, 1), 1.0),  # equal even entries at the dual pair
            ((1, 3, 3), -coefficients(ep, c=x)[3] / coefficients(ep, c=-x)[3]),  # equal odd entries
        ):
            idx = tensor_index(beta)
            assert m.dense()[idx, idx] == pytest.approx(want)

    def test_routes_agree(self, ep, phi, rng):
        for n in (2, 3):
            for w in [simple(n, 1), (tuple(range(n, 0, -1)))]:
                z = band_z(rng, n)
                words = [(phi, reduced_word(w), z)]
                (a,), (b,) = tensor_monodromy_words(ep, words), tensor_monodromy_from_blocks_words(ep, words)
                assert rel_residual(a, b) < 1e-9

    @pytest.mark.parametrize("n", [4, 5])
    def test_routes_agree_at_the_export_size(self, ep, phi, rng, n):
        # the longest element, as the CLI export computes it; the battery's
        # monodromy-routes stops at n = 3
        words = [(phi, reduced_word(tuple(range(n, 0, -1))), band_z(rng, n))]
        (a,), (b,) = tensor_monodromy_words(ep, words), tensor_monodromy_from_blocks_words(ep, words)
        for m in (a, b):
            assert isinstance(m, BlockOp)
            assert m.layout is block_layout(n)
        assert rel_residual(a, b) < 1e-12

    def test_rank3_shift_identities(self, ep, rng):
        for _ in range(5):
            phi = sample_phi(rng)
            z = band_z(rng, 3)
            (m1,) = tensor_monodromy_words(ep, [(phi, (1,), z)])
            s1 = shifted_r_apply(ep, 3, 2, z[0] - z[1], phi, PSI_FAMILY, ep.kappa, control=1)
            assert rel_residual(m1, s1) < 1e-9
            (m2,) = tensor_monodromy_words(ep, [(phi, (2,), z)])
            s2 = shifted_r_apply(ep, 3, 1, z[1] - z[2], phi, PSI_FAMILY, -ep.kappa, control=3)
            assert rel_residual(m2, s2) < 1e-9


#: the signed-zero twists of the spectral-vector tests: equal values, distinct bytes
ZERO_TWISTS = [(complex(-0.0, 0.0), complex(0.0, -0.0), 0j), (0j, 0j, 0j)]


def stand_in_coefficients(ep, y=(), x=(), u=(), c=()):
    # an elementwise stand-in for elliptic.coefficients, finite at y = 0,
    # where the zero twists put the real coefficients on a pole
    y, x, u = (np.asarray(t, dtype=complex) for t in (y, x, u))
    return np.cos(y) + 0.3 * x, np.sin(y - x) - 0.2j, 1.0 + 0.5j * u + u * u, None


class TestScatteredBlockRoute:
    """``tensor_monodromy_from_blocks_words`` against its construction block by
    block: each block's word from ``connection_words`` on its ``content_block``,
    moved to the tensor basis with the places and signs of ``block_bases(n)``."""

    @staticmethod
    def words(rng, twists):
        # one call mixing n, word lengths and twists: the empty word, one
        # letter, a random permutation and the longest element
        words = []
        for n in (2, 3, 4, 5):
            perms = [identity_perm(n), simple(n, n - 1), tuple(int(k) + 1 for k in rng.permutation(n))]
            for w, phi in itertools.product(perms + [tuple(range(n, 0, -1))], twists):
                words.append((phi, reduced_word(w), band_z(rng, n)))
        rng.shuffle(words)
        return words

    @staticmethod
    def scattered(ep, phi, labels, z):
        n = len(z)
        mats = connection_words(ep, [(content_block(ep, n, r, phi), labels, z) for r in block_bases(n)])
        blocks = []
        for m, basis in zip(mats, block_bases(n).values()):
            signs = np.array(basis.signs)
            block = np.empty_like(m)
            block[np.ix_(basis.places, basis.places)] = np.outer(signs, signs) * m
            blocks.append(block)
        ends = list(itertools.accumulate((len(idx) for idx in block_layout(n).index), initial=0))
        return [np.stack(blocks[lo:hi]) for lo, hi in zip(ends, ends[1:])]

    def equal(self, ep, words):
        got = tensor_monodromy_from_blocks_words(ep, words)
        assert [op.layout for op in got] == [block_layout(len(z)) for _, _, z in words]
        return all(
            len(op.stacks) == len(want) and all(np.array_equal(a, b) for a, b in zip(op.stacks, want))
            for op, want in zip(got, (self.scattered(ep, *word) for word in words))
        )

    def test_block_route_is_the_scattered_block_words(self, ep, rng):
        assert self.equal(ep, self.words(rng, [sample_phi(rng), sample_phi(rng)]))

    def test_with_the_zero_twists(self, ep, rng, monkeypatch):
        monkeypatch.setattr(connection, "coefficients", stand_in_coefficients)
        assert self.equal(ep, self.words(rng, [sample_phi(rng), *ZERO_TWISTS]))

    def test_a_sign_at_the_wrong_column_fails(self, ep, rng, monkeypatch):
        original = connection._scattered_table

        def misplaced(n):
            # at n = 3, the exchange signs of two moving columns of s_1 with
            # opposite signs swapped
            tables = list(original(n))
            for g, t in enumerate(tables if n == 3 else []):
                row = np.where(t.kind[1] == connection._MOVING, t.sign[1], 0.0)
                if (row < 0).any() and (row > 0).any():
                    a, b = np.argmax(row < 0), np.argmax(row > 0)
                    sign = t.sign.copy()
                    sign[1, [a, b]] = sign[1, [b, a]]
                    tables[g] = t._replace(sign=sign)
                    break
            return tuple(tables)

        words = self.words(rng, [sample_phi(rng)])
        assert self.equal(ep, words)
        monkeypatch.setattr(connection, "_scattered_table", misplaced)
        assert not self.equal(ep, words)


class TestDynamicalR:
    def test_identity_at_zero(self, ep, phi):
        r = dyn_r_matrix(ep, 0.0, phi)
        assert np.max(np.abs(r - np.eye(9))) < 1e-12

    def test_unitarity(self, ep, rng):
        eye = np.eye(9, dtype=complex)
        for _ in range(30):
            phi = sample_phi(rng)
            x = sample_scalar(rng, ep.nome)
            prod = dyn_r_matrix(ep, x, phi) @ dyn_r_matrix(ep, -x, phi)
            assert rel_residual(prod, eye) < 1e-9

    def test_sparsity_pattern(self, ep, phi):
        r = dyn_r_matrix(ep, 0.23 + 0.11j, phi)
        expected_nonzero = {
            (a, b)
            for a in multi_indices(2)
            for b in multi_indices(2)
            if sorted(a) == sorted(b)
        }
        for a in multi_indices(2):
            for b in multi_indices(2):
                val = r[tensor_index(a), tensor_index(b)]
                if (a, b) in expected_nonzero:
                    assert val != 0.0
                else:
                    assert val == 0.0

    def test_exchange_signs(self, ep, phi):
        x = 0.21 + 0.09j
        r = dyn_r_matrix(ep, x, phi)
        # even-even exchange is +B, mixed-parity exchange is -B
        assert r[tensor_index((2, 1)), tensor_index((1, 2))] == pytest.approx(
            coefficients(ep, phi[0] - phi[1], x)[1]
        )
        assert r[tensor_index((3, 1)), tensor_index((1, 3))] == pytest.approx(
            -coefficients(ep, phi[0] - phi[2], x)[1]
        )

    def test_translation_invariance(self, ep, phi, rng):
        x = sample_scalar(rng, ep.nome)
        t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        shifted = tuple(v + t for v in phi)
        assert rel_residual(dyn_r_matrix(ep, x, phi), dyn_r_matrix(ep, x, shifted)) < 1e-12

    def test_stack_slices_match_scalar_calls(self, ep, rng):
        xs = np.array([sample_scalar(rng, ep.nome) for _ in range(5)])
        phis = np.array([sample_phi(rng) for _ in range(5)])
        stack = dyn_r_matrix(ep, xs, phis)
        assert stack.shape == (5, 9, 9)
        for k in range(5):
            want = dyn_r_matrix(ep, xs[k], phis[k])
            assert want.shape == (9, 9)
            assert np.all(np.abs(stack[k] - want) <= 1e-14 * np.abs(want))
        # one phi broadcast against a stack of x
        shared = dyn_r_matrix(ep, xs[:2], phis[0])
        assert shared.shape == (2, 9, 9)
        assert np.all(np.abs(shared[1] - dyn_r_matrix(ep, xs[1], phis[0])) <= 1e-14 * np.abs(shared[1]))

    def test_matches_entrywise_scalar_build(self, ep, phi):
        x = 0.23 + 0.11j
        want = np.zeros((9, 9), dtype=complex)
        for k in (1, 2, 3):
            col = tensor_index((k, k))
            want[col, col] = 1.0 if k < 3 else -coefficients(ep, c=x)[3] / coefficients(ep, c=-x)[3]
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a != b:
                    col = tensor_index((a, b))
                    y = phi[a - 1] - phi[b - 1]
                    want[col, col] = coeff_a(ep, y, x)
                    sign = -1.0 if (a == 3) != (b == 3) else 1.0
                    want[tensor_index((b, a)), col] = sign * coefficients(ep, y, x)[1]
        got = dyn_r_matrix(ep, x, phi)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestThetaBudget:
    """Each local matrix costs a fixed number of elliptic batches (``_sine``
    calls), not one per entry, and each batch evaluates S at each argument once."""

    @pytest.fixture()
    def theta_calls(self, monkeypatch):
        calls = []
        real = elliptic._sine

        def counted(log_p, y, err=0.0):
            calls.append(y.size)  # the call's count of S arguments
            return real(log_p, y, err)

        monkeypatch.setattr(elliptic, "_sine", counted)
        return calls

    def test_dyn_r_matrix(self, ep, phi, theta_calls):
        dyn_r_matrix(ep, 0.23 + 0.11j, phi)
        assert len(theta_calls) == 1

    @pytest.mark.parametrize("n, i", [(2, 1), (3, 2), (4, 2)])
    def test_tensor_monodromy_simple(self, ep, phi, rng, theta_calls, n, i):
        tensor_monodromy_words(ep, [(phi, (i,), band_z(rng, n))])
        assert len(theta_calls) <= 3

    def test_one_batch_per_residual(self, ep, phi, rng, theta_calls):
        # a residual evaluation is one elliptic batch, whatever its size
        x, y = sample_scalar(rng, ep.nome), sample_scalar(rng, ep.nome)
        for evaluate in (
            lambda: dybe_residual(ep, x, y, phi, PSI_FAMILY),
            lambda: felder_residual(ep, x, y, phi),
            lambda: dybe_residual(ep, x, y, fixture_phi(0.2 + 0.1j), XI_FAMILY, WEIGHTS[:2]),
            lambda: word_product(ep, content_block(ep, 4, (2, 1, 1), phi), (4, 3, 2, 1), band_z(rng, 4)),
            lambda: tensor_monodromy_words(ep, [(phi, (1, 2, 1), band_z(rng, 3))]),
            lambda: tensor_monodromy_from_blocks_words(ep, [(phi, (1, 2, 1), band_z(rng, 3))]),
        ):
            theta_calls.clear()
            evaluate()
            assert len(theta_calls) == 1

    def test_each_argument_once(self, ep, rng, theta_calls):
        # per draw of a dyn_r_matrix stack: S(y) and S(2k - y) at the six phi
        # differences, S(y - x) at each of them, S(2k - x), S(-x), S(2k - u)
        # and S(2k + u) at x; and S(2k) once for the stack
        x, y = (np.array([sample_scalar(rng, ep.nome) for _ in range(7)]) for _ in range(2))
        phi = np.array([sample_phi(rng) for _ in range(7)])
        dyn_r_matrix(ep, x, phi)
        assert sum(theta_calls) == 22 * 7 + 1
        # a dybe batch: each of the six arguments once per factor, not once
        # per control value
        theta_calls.clear()
        dybe_residual(ep, x, y, phi, PSI_FAMILY)
        assert sum(theta_calls) <= 2437


class TestShiftedApply:
    def test_zero_family_is_plain(self, ep, phi, rng):
        # the weight family at a = 0 shifts nothing
        x = sample_scalar(rng, ep.nome)
        got = shifted_r_apply(ep, 3, 1, x, phi, XI_FAMILY, 0.0, control=3)
        assert isinstance(got, BlockOp) and got.layout is block_layout(3)
        want = np.kron(dyn_r_matrix(ep, x, phi), np.eye(3))
        assert rel_residual(got.dense(), want) < 1e-13

    def test_stack_gives_one_operator_per_draw(self, ep, rng):
        x = np.array([sample_scalar(rng, ep.nome) for _ in range(4)]).reshape(2, 2)
        phi = np.array([sample_phi(rng) for _ in range(4)]).reshape(2, 2, 3)
        stacked = shifted_r_apply(ep, 4, 2, x, phi, PSI_FAMILY, 0.3, control=4)
        assert len(stacked) == 4
        for got, s in zip(stacked, np.ndindex(2, 2)):
            want = shifted_r_apply(ep, 4, 2, x[s], phi[s], PSI_FAMILY, 0.3, control=4)
            assert rel_residual(got, want) <= 1e-15

    @pytest.mark.parametrize("name", ["psi", "phi", "xi"])
    def test_family_shift_vectors(self, ep, phi, name):
        # the shift vectors of each family, for control values j = 1, 2, 3
        a, h = 0.3 - 0.2j, half_period(ep)
        family, vectors = {
            "psi": (PSI_FAMILY, [(-a, 0, h), (0, -a, h), (0, 0, a)]),
            "phi": (PHI_FAMILY, [(-a, 0, 0), (0, -a, 0), (0, 0, a - h)]),
            "xi": (XI_FAMILY, [(-a, 0, 0), (0, -a, 0), (0, 0, a)]),
        }[name]
        x = 0.23 + 0.11j
        want = sum(
            np.kron(dyn_r_matrix(ep, x, [p + s for p, s in zip(phi, vec)]), np.diag(np.eye(3)[j]))
            for j, vec in enumerate(vectors)
        )
        got = shifted_r_apply(ep, 3, 1, x, phi, family, a, control=3)
        assert rel_residual(got.dense(), want) < 1e-13

    def test_control_leg_must_be_outside(self, ep, phi):
        with pytest.raises(ValueError):
            shifted_r_apply(ep, 3, 1, 0.1, phi, PSI_FAMILY, 0.1, control=2)


class TestDybe:
    @pytest.mark.parametrize("family", [PSI_FAMILY, PHI_FAMILY, XI_FAMILY], ids=["psi", "phi", "xi"])
    def test_braid_form(self, ep, rng, family):
        for _ in range(8):
            phi = sample_phi(rng)
            x = sample_scalar(rng, ep.nome)
            y = sample_scalar(rng, ep.nome)
            assert dybe_residual(ep, x, y, phi, family) < 1e-9

    def test_negative_control(self, ep, rng):
        negated = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
        worst = 0.0
        for _ in range(5):
            phi = sample_phi(rng)
            x = sample_scalar(rng, ep.nome)
            y = sample_scalar(rng, ep.nome)
            worst = max(worst, dybe_residual(ep, x, y, phi, PSI_FAMILY, weights=negated))
        assert worst > 1e-3

    @pytest.mark.parametrize("k", [0, 7, 17])
    def test_one_pole_among_the_matrices_raises(self, ep, phi, monkeypatch, k):
        # move matrix k of the draw's 18, in the flattened batch, onto the
        # pole phi_1 - phi_2 = 1
        real = connection.dyn_r_matrix
        stacks = []

        def one_pole(ep_, xs, phis):
            shape = np.broadcast_shapes(np.shape(xs), np.shape(phis)[:-1])
            flat = np.array(np.broadcast_to(phis, shape + (3,))).reshape(-1, 3)
            stacks.append(len(flat))
            flat[k, :2] = (0.5, -0.5)
            return real(ep_, xs, flat.reshape(shape + (3,)))

        monkeypatch.setattr(connection, "dyn_r_matrix", one_pole)
        with pytest.raises(PoleError) as err:
            dybe_residual(ep, 0.21 + 0.1j, -0.13 + 0.2j, phi, PSI_FAMILY)
        assert stacks == [18]
        assert err.value.factor == "p^y"

    @pytest.mark.parametrize(
        "residual",
        [
            lambda ep, x, y, phi: dybe_residual(ep, x, y, phi, PSI_FAMILY),
            lambda ep, x, y, phi: dybe_residual(ep, x, y, phi, PHI_FAMILY),
            lambda ep, x, y, phi: dybe_residual(ep, x, y, phi, XI_FAMILY),
            lambda ep, x, y, phi: felder_residual(ep, x, y, phi),
        ],
        ids=["dybe-psi", "dybe-phi", "dybe-xi", "felder"],
    )
    def test_stacked_draws_equal_per_draw_calls(self, ep, rng, residual):
        draws = [(sample_phi(rng), sample_scalar(rng, ep.nome), sample_scalar(rng, ep.nome)) for _ in range(6)]
        phi, x, y = (np.array(v) for v in zip(*draws))
        one = np.array([residual(ep, x[k], y[k], phi[k]) for k in range(6)])
        # a (2, 3) stack of draws gives a (2, 3) array of residuals
        stacked = residual(ep, x.reshape(2, 3), y.reshape(2, 3), phi.reshape(2, 3, 3))
        assert stacked.shape == (2, 3)
        assert np.max(np.abs(stacked.ravel() - one)) <= 1e-15
        assert all(isinstance(r, float) for r in one)

    def test_stacked_negative_controls_equal_per_draw_calls(self, ep, rng):
        negated = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
        swapped = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
        draws = [(sample_phi(rng), sample_scalar(rng, ep.nome), sample_scalar(rng, ep.nome)) for _ in range(5)]
        phi, x, y = (np.array(v) for v in zip(*draws))
        for residual in (
            lambda x, y, phi: dybe_residual(ep, x, y, phi, PSI_FAMILY, weights=negated),
            lambda x, y, phi: felder_residual(ep, x, y, phi, weights=swapped),
        ):
            one = np.array([residual(x[k], y[k], phi[k]) for k in range(5)])
            assert np.max(np.abs(residual(x, y, phi) - one) / one) <= 1e-15

    def test_pole_in_one_draw_of_a_stack_raises(self, ep, rng):
        phi = np.array([sample_phi(rng) for _ in range(3)])
        phi[1, 1] = phi[1, 0] + 1.0  # phi_1 - phi_2 = -1 is a pole of B
        x = np.array([0.21 + 0.1j, -0.3 + 0.2j, 0.1 + 0.3j])
        with pytest.raises(PoleError):
            dybe_residual(ep, x, x[::-1], phi, PSI_FAMILY)
        with pytest.raises(PoleError):
            felder_residual(ep, x, x[::-1], phi)

    def test_felder_form(self, ep, rng):
        for _ in range(8):
            phi = sample_phi(rng)
            x = sample_scalar(rng, ep.nome)
            y = sample_scalar(rng, ep.nome)
            assert felder_residual(ep, x, y, phi) < 1e-9

    def test_felder_trivial_point(self, ep, phi):
        assert felder_residual(ep, 0.0, 0.0, phi) < 1e-12

    def test_felder_negative_control(self, ep, rng):
        swapped = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
        worst = 0.0
        for _ in range(5):
            phi = sample_phi(rng)
            x = sample_scalar(rng, ep.nome)
            y = sample_scalar(rng, ep.nome)
            worst = max(worst, felder_residual(ep, x, y, phi, weights=swapped))
        assert worst > 1e-3


class TestGl2Fixture:
    """The two-state fixture: the even restriction of the 9x9 R-matrix."""

    def test_identity_at_zero(self, ep):
        assert np.max(np.abs(even(dyn_r_matrix(ep, 0.0, fixture_phi(0.3 + 0.1j))) - np.eye(4))) < 1e-12

    def test_unitarity(self, ep, rng):
        for _ in range(10):
            x = sample_scalar(rng, ep.nome)
            y = sample_dynamical(rng)
            r, r_back = even(dyn_r_matrix(ep, [x, -x], fixture_phi(y)))
            assert rel_residual(r @ r_back, np.eye(4)) < 1e-9

    def test_agrees_with_rank2_connection(self, ep, rng):
        for _ in range(10):
            x = sample_scalar(rng, ep.nome)
            y = sample_dynamical(rng)
            spec = PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=(y / 2, -y / 2))
            cm = connection_words(ep, [(spec, (1,), (x, 0.0))])[0]
            m = even(dyn_r_matrix(ep, x, fixture_phi(y)))
            block = np.array([[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]])
            assert rel_residual(cm, block) < 1e-9

    def test_braid_form_and_control(self, ep, rng):
        negated = tuple(tuple(-v for v in w) for w in WEIGHTS[:2])
        for _ in range(5):
            x = sample_scalar(rng, ep.nome)
            xp = sample_scalar(rng, ep.nome)
            phi = fixture_phi(sample_dynamical(rng))
            assert dybe_residual(ep, x, xp, phi, XI_FAMILY, WEIGHTS[:2]) < 1e-9
            assert dybe_residual(ep, x, xp, phi, XI_FAMILY, negated) > 1e-3

    def test_two_weights_equal_a_hand_built_braid_form(self, ep, rng):
        # the rank-one rule written out on (C^2)^(x 3): control value v_1
        # lowers the scalar parameter y by a and v_2 raises it, with a = -kappa
        # on the pair (1, 2) controlled by leg 3 and a = +kappa on (2, 3)
        # controlled by leg 1; each is the sum over the control value j of the
        # dense embedding times the projector onto the columns where the
        # control leg holds v_j
        digits = list(itertools.product(range(2), repeat=3))

        def by_hand(x, xp, y, k):
            def controlled(arg, a, legs, control):
                ops = [even(dyn_r_matrix(ep, arg, fixture_phi(y + s))) for s in (-a, a)]
                return sum(
                    two_leg_op(op, 3, *legs) @ np.diag([float(alpha[control - 1] == j) for alpha in digits])
                    for j, op in enumerate(ops)
                )

            def r12(arg):
                return controlled(arg, -k, (1, 2), 3)

            def r23(arg):
                return controlled(arg, k, (2, 3), 1)

            return rel_residual(r12(x) @ r23(x + xp) @ r12(xp), r23(xp) @ r12(x + xp) @ r23(x))

        negated = tuple(tuple(-v for v in w) for w in WEIGHTS[:2])
        for _ in range(3):
            x, xp, y = sample_scalar(rng, ep.nome), sample_scalar(rng, ep.nome), sample_dynamical(rng)
            got = dybe_residual(ep, x, xp, fixture_phi(y), XI_FAMILY, WEIGHTS[:2])
            assert got < 1e-9 and by_hand(x, xp, y, ep.kappa) < 1e-9
            # away from zero the two residuals agree to rounding
            got = dybe_residual(ep, x, xp, fixture_phi(y), XI_FAMILY, negated)
            want = by_hand(x, xp, y, -ep.kappa)
            assert want > 1e-3
            assert abs(got - want) <= 1e-12 * want

    def test_even_restriction_ignores_phi3(self, ep, rng):
        for _ in range(5):
            x, y = sample_scalar(rng, ep.nome), sample_dynamical(rng)
            phi3 = complex(rng.uniform(-0.45, 0.45), rng.uniform(0.02, 0.3))
            want = even(dyn_r_matrix(ep, x, fixture_phi(y)))
            got = even(dyn_r_matrix(ep, x, fixture_phi(y, phi3)))
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
