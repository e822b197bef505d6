"""Connection matrices, the tensor-basis monodromy and the dynamical R-matrix."""

import math

import numpy as np
import pytest

from qkzconn.blocks import PrincipalSeriesSpec, content_block
from qkzconn.connection import (
    PHI_FAMILY,
    PSI_FAMILY,
    XI_FAMILY,
    connection_simple,
    connection_word,
    dual_position,
    dybe_residual,
    dyn_r_matrix,
    felder_residual,
    gl2_dybe_residual,
    gl2_matrix,
    shifted_r_apply,
    tensor_monodromy_from_blocks,
    tensor_monodromy_simple,
    tensor_monodromy_word,
)
from qkzconn import elliptic
from qkzconn.elliptic import PoleError, coeff_a, coeff_b, c_func
from qkzconn.params import sample_dynamical, sample_phi, sample_point_band, sample_scalar
from qkzconn.symgroup import act, compose, content_labels, identity_perm, inverse, simple
from qkzconn.tensorspace import (
    multi_indices,
    permutation_op,
    rel_residual,
    tensor_index,
)


def half_period(ep):
    return -1j * math.pi / ep.nome.log_p


def band_z(rng, n):
    return sample_point_band(rng, n)


class TestConnectionSimple:
    def test_full_parabolic_is_scalar_one(self, ep, phi):
        n = 3
        spec = content_block(ep, n, (n, 0, 0), phi)  # all signs +
        cm = connection_simple(ep, spec, 1, (0.3 + 0.1j, 0.1, -0.2 + 0.05j))
        assert cm.entries.shape == (1, 1)
        assert cm.entries[0, 0] == pytest.approx(1.0)

    def test_rank2_empty_index_pattern(self, ep, rng):
        gamma = (0.31 + 0.12j, -0.17 + 0.21j)
        spec = PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=gamma)
        z = band_z(rng, 2)
        x = z[0] - z[1]
        y = gamma[0] - gamma[1]
        cm = connection_simple(ep, spec, 1, z)
        assert cm.basis == ((1, 2), (2, 1))
        want = np.array(
            [
                [coeff_a(ep, y, x), coeff_b(ep, -y, x)],
                [coeff_b(ep, y, x), coeff_a(ep, -y, x)],
            ]
        )
        assert np.allclose(cm.entries, want, atol=1e-13)

    def test_pole_names_the_letter(self, ep, rng):
        # gamma difference y = 1 puts theta(p^1) = 0 in the A-denominator
        spec = PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=(0.5, -0.5))
        with pytest.raises(PoleError) as err:
            connection_simple(ep, spec, 1, band_z(rng, 2))
        assert "s_1" in str(err.value)
        assert err.value.factor == "p^y"
        assert err.value.magnitude < ep.pole_tol

    def test_unitarity(self, ep, phi, rng):
        for n in (2, 3):
            for r in content_labels(n):
                spec = content_block(ep, n, r, phi)
                for i in range(1, n):
                    z = band_z(rng, n)
                    m1 = connection_simple(ep, spec, i, z).entries
                    m2 = connection_simple(ep, spec, i, act(simple(n, i), z)).entries
                    assert rel_residual(m1 @ m2, np.eye(m1.shape[0])) < 1e-9

    def test_off_diagonal_sparsity(self, ep, phi, rng):
        n, r = 3, (1, 1, 1)
        spec = content_block(ep, n, r, phi)
        cm = connection_simple(ep, spec, 1, band_z(rng, n))
        ni = dual_position(n, 1)
        pos = {w: k for k, w in enumerate(cm.basis)}
        for a, wa in enumerate(cm.basis):
            for b, wb in enumerate(cm.basis):
                if a == b:
                    continue
                if wa != compose(simple(n, ni), wb):
                    assert cm.entries[a, b] == 0.0


class TestConnectionWord:
    def test_identity_word(self, ep, phi, rng):
        spec = content_block(ep, 3, (1, 1, 1), phi)
        cm = connection_word(ep, spec, identity_perm(3), band_z(rng, 3))
        assert np.array_equal(cm.entries, np.eye(6))

    def test_braid_relation(self, ep, phi, rng):
        n = 3
        for r in content_labels(n):
            spec = content_block(ep, n, r, phi)
            z = band_z(rng, n)
            lhs = connection_simple(ep, spec, 1, z).entries
            lhs = lhs @ connection_simple(ep, spec, 2, act(simple(n, 1), z)).entries
            lhs = lhs @ connection_simple(
                ep, spec, 1, act(compose(simple(n, 2), simple(n, 1)), z)
            ).entries
            rhs = connection_simple(ep, spec, 2, z).entries
            rhs = rhs @ connection_simple(ep, spec, 1, act(simple(n, 2), z)).entries
            rhs = rhs @ connection_simple(
                ep, spec, 2, act(compose(simple(n, 1), simple(n, 2)), z)
            ).entries
            assert rel_residual(lhs, rhs) < 1e-9
            # both reduced words of the longest element give the same matrix
            w0 = (3, 2, 1)
            assert rel_residual(connection_word(ep, spec, w0, z).entries, lhs) < 1e-9

    def test_cocycle(self, ep, phi, rng):
        n = 3
        spec = content_block(ep, n, (1, 1, 1), phi)
        perms = [(2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1)]
        for _ in range(5):
            w1 = perms[rng.integers(len(perms))]
            w2 = perms[rng.integers(len(perms))]
            z = band_z(rng, n)
            lhs = connection_word(ep, spec, compose(w1, w2), z).entries
            rhs = (
                connection_word(ep, spec, w1, z).entries
                @ connection_word(ep, spec, w2, act(inverse(w1), z)).entries
            )
            assert rel_residual(lhs, rhs) < 1e-9


class TestTensorMonodromy:
    def test_rank2_equals_dynamical_r(self, ep, rng):
        for _ in range(5):
            phi = sample_phi(rng)
            z = band_z(rng, 2)
            m = tensor_monodromy_simple(ep, 2, phi, 1, z)
            r = dyn_r_matrix(ep, z[0] - z[1], phi)
            assert rel_residual(m, r) < 1e-9

    def test_worked_case_single_content(self, ep, phi, rng):
        # the action on v1 x v3 x v2 carries the argument
        # phi_3 - phi_2 + half period, with a minus sign on the exchange term
        n, i = 3, 1
        z = band_z(rng, n)
        x = z[0] - z[1]
        m = tensor_monodromy_simple(ep, n, phi, i, z)
        beta = (1, 3, 2)
        col = m[:, tensor_index(beta)]
        y = phi[2] - phi[1] + half_period(ep)
        assert col[tensor_index(beta)] == pytest.approx(coeff_a(ep, y, x))
        assert col[tensor_index((1, 2, 3))] == pytest.approx(-coeff_b(ep, y, x))
        assert np.count_nonzero(col) == 2

    def test_worked_case_repeated_content(self, ep, phi, rng):
        # on v2 x v3 x v2 the argument gains + kappa
        n, i = 3, 1
        z = band_z(rng, n)
        x = z[0] - z[1]
        m = tensor_monodromy_simple(ep, n, phi, i, z)
        beta = (2, 3, 2)
        col = m[:, tensor_index(beta)]
        y = phi[2] - phi[1] + half_period(ep) + ep.kappa
        assert col[tensor_index(beta)] == pytest.approx(coeff_a(ep, y, x))
        assert col[tensor_index((2, 2, 3))] == pytest.approx(-coeff_b(ep, y, x))

    def test_diagonal_cases(self, ep, phi, rng):
        n, i = 3, 1
        z = band_z(rng, n)
        x = z[0] - z[1]
        m = tensor_monodromy_simple(ep, n, phi, i, z)
        for beta, want in (
            ((3, 1, 1), 1.0),  # equal even entries at the dual pair
            ((1, 3, 3), -c_func(ep, x) / c_func(ep, -x)),  # equal odd entries
        ):
            idx = tensor_index(beta)
            assert m[idx, idx] == pytest.approx(want)

    def test_routes_agree(self, ep, phi, rng):
        for n in (2, 3):
            for w in [simple(n, 1), (tuple(range(n, 0, -1)))]:
                z = band_z(rng, n)
                a = tensor_monodromy_word(ep, n, phi, w, z)
                b = tensor_monodromy_from_blocks(ep, n, phi, w, z)
                assert rel_residual(a, b) < 1e-9

    def test_rank3_shift_identities(self, ep, rng):
        k = dyn_r_matrix  # noqa: F841 - keep the import grouping honest
        for _ in range(5):
            phi = sample_phi(rng)
            z = band_z(rng, 3)
            m1 = tensor_monodromy_simple(ep, 3, phi, 1, z)
            s1 = shifted_r_apply(ep, 3, 2, z[0] - z[1], phi, PSI_FAMILY, ep.kappa, control=1)
            assert rel_residual(m1, s1) < 1e-9
            m2 = tensor_monodromy_simple(ep, 3, phi, 2, z)
            s2 = shifted_r_apply(ep, 3, 1, z[1] - z[2], phi, PSI_FAMILY, -ep.kappa, control=3)
            assert rel_residual(m2, s2) < 1e-9


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
            coeff_b(ep, phi[0] - phi[1], x)
        )
        assert r[tensor_index((3, 1)), tensor_index((1, 3))] == pytest.approx(
            -coeff_b(ep, phi[0] - phi[2], x)
        )

    def test_translation_invariance(self, ep, phi, rng):
        x = sample_scalar(rng, ep.nome)
        t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        shifted = tuple(v + t for v in phi)
        assert rel_residual(dyn_r_matrix(ep, x, phi), dyn_r_matrix(ep, x, shifted)) < 1e-12

    def test_matches_entrywise_scalar_build(self, ep, phi):
        x = 0.23 + 0.11j
        want = np.zeros((9, 9), dtype=complex)
        for k in (1, 2, 3):
            col = tensor_index((k, k))
            want[col, col] = 1.0 if k < 3 else -c_func(ep, x) / c_func(ep, -x)
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a != b:
                    col = tensor_index((a, b))
                    y = phi[a - 1] - phi[b - 1]
                    want[col, col] = coeff_a(ep, y, x)
                    sign = -1.0 if (a == 3) != (b == 3) else 1.0
                    want[tensor_index((b, a)), col] = sign * coeff_b(ep, y, x)
        got = dyn_r_matrix(ep, x, phi)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestThetaBudget:
    """Each local matrix costs a fixed number of theta batches, not one per entry."""

    @pytest.fixture()
    def theta_calls(self, monkeypatch):
        calls = []
        real = elliptic.theta

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(elliptic, "theta", counted)
        return calls

    def test_dyn_r_matrix(self, ep, phi, theta_calls):
        dyn_r_matrix(ep, 0.23 + 0.11j, phi)
        assert len(theta_calls) <= 3

    @pytest.mark.parametrize("n, i", [(2, 1), (3, 2), (4, 2)])
    def test_tensor_monodromy_simple(self, ep, phi, rng, theta_calls, n, i):
        tensor_monodromy_simple(ep, n, phi, i, band_z(rng, n))
        assert len(theta_calls) <= 3


class TestShiftedApply:
    def test_zero_family_is_plain(self, ep, phi, rng):
        # the weight family at a = 0 shifts nothing
        x = sample_scalar(rng, ep.nome)
        got = shifted_r_apply(ep, 3, 1, x, phi, XI_FAMILY, 0.0, control=3)
        want = np.kron(np.kron(np.eye(1), dyn_r_matrix(ep, x, phi)), np.eye(3))
        assert rel_residual(got, want) < 1e-13

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
        assert rel_residual(got, want) < 1e-13

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
    def test_identity_at_zero(self, ep):
        assert np.max(np.abs(gl2_matrix(ep, 0.0, 0.3 + 0.1j) - np.eye(4))) < 1e-12

    def test_unitarity(self, ep, rng):
        for _ in range(10):
            x = sample_scalar(rng, ep.nome)
            y = sample_dynamical(rng)
            prod = gl2_matrix(ep, x, y) @ gl2_matrix(ep, -x, y)
            assert rel_residual(prod, np.eye(4)) < 1e-9

    def test_agrees_with_rank2_connection(self, ep, rng):
        for _ in range(10):
            x = sample_scalar(rng, ep.nome)
            y = sample_dynamical(rng)
            spec = PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=(y / 2, -y / 2))
            cm = connection_simple(ep, spec, 1, (x, 0.0)).entries
            m = gl2_matrix(ep, x, y)
            block = np.array([[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]])
            assert rel_residual(cm, block) < 1e-9

    def test_braid_form_and_control(self, ep, rng):
        for _ in range(5):
            x = sample_scalar(rng, ep.nome)
            xp = sample_scalar(rng, ep.nome)
            y = sample_dynamical(rng)
            assert gl2_dybe_residual(ep, x, xp, y) < 1e-9
            assert gl2_dybe_residual(ep, x, xp, y, flip_shifts=True) > 1e-3
