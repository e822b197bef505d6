"""Theta products and coefficient functions against an independent oracle."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzconn.elliptic import (
    EllipticParams,
    NonFiniteError,
    Nome,
    PoleError,
    ThetaDomainError,
    ThetaOverflowError,
    c_func,
    coeff_a,
    coeff_b,
    default_params,
    pow_p,
    theta,
)

P = 0.35
KAPPA = 0.27

# frozen oracle values (200-term product at 60 significant digits)
THETA_HALF = 0.07402674945885357482064102
A_06_015 = 1.095067512144562896580959
B_06_015 = -0.09506751214456283442394213
C_04 = 0.172939104975365377497095


def theta_oracle(z, p=P, terms=200):
    """Independent reference: fixed 200-term product in extended precision."""
    with mp.workdps(60):
        zz, pp = mp.mpc(z), mp.mpf(p)
        acc = mp.mpc(1)
        for m in range(terms):
            acc *= (1 - pp**m * zz) * (1 - pp ** (m + 1) / zz)
        return complex(acc)


@pytest.fixture(scope="module")
def params():
    return default_params(P, KAPPA)


class TestPowP:
    def test_zero_and_one(self, params):
        assert pow_p(params, 0.0) == 1.0
        assert abs(pow_p(params, 1.0) - P) < 1e-15

    def test_half_turn(self, params):
        x = math.pi * 1j / math.log(P)
        assert abs(pow_p(params, x) - (-1.0)) < 1e-12

    def test_additivity(self, params):
        x, y = 0.3 + 1.1j, -0.7 + 0.4j
        assert abs(pow_p(params, x + y) - pow_p(params, x) * pow_p(params, y)) < 1e-14

    def test_broadcasts(self, params):
        xs = np.array([[0.3 + 1.1j, -0.7], [0.0, 2.5 - 0.4j]])
        got = pow_p(params, xs)
        assert isinstance(pow_p(params, 0.3), complex)
        assert got.shape == xs.shape
        for x, g in zip(xs.ravel(), got.ravel()):
            assert abs(g - pow_p(params, x)) <= 1e-15 * abs(g)

    def test_overflow(self, params):
        with pytest.raises(OverflowError):
            pow_p(params, np.array([0.5, -800.0]))


class TestTheta:
    def test_trivial_zeros(self, params):
        assert theta(params, 1.0) == 0.0
        assert theta(params, P) == 0.0

    def test_against_oracle(self, params):
        got = theta(params, 0.5)
        assert abs(got - THETA_HALF) / abs(THETA_HALF) < 1e-12

    def test_oracle_sweep(self, params, rng):
        for _ in range(25):
            z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
            got = theta(params, z)
            want = theta_oracle(z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_domain_error(self, params):
        with pytest.raises(ThetaDomainError):
            theta(params, 0.0)

    def test_overflow_guard(self):
        # a nome close to 1 needs more factors than the hard cap allows
        slow = default_params(0.9999, 0.27)
        with pytest.raises(ThetaOverflowError):
            theta(slow, 0.5)

    def test_truncation_converged(self, params, rng):
        for _ in range(20):
            z = complex(rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0))
            a = theta(params, z)
            b = theta(params, z, min_factors=150)
            assert abs(a - b) <= 10 * params.theta_truncation_tol * max(1.0, abs(b))

    # the hypothesis windows stay off the zeros z = 1, z = p, where any
    # relative comparison degenerates to 0/0
    @settings(max_examples=60, deadline=None)
    @given(
        mod=st.floats(min_value=P + 0.01, max_value=0.99),
        arg=st.floats(min_value=0.05, max_value=2.0 * math.pi - 0.05),
    )
    def test_symmetry_annulus(self, mod, arg):
        params = default_params(P, KAPPA)
        z = mod * cmath.exp(1j * arg)
        a, b = theta(params, P / z), theta(params, z)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)

    @settings(max_examples=60, deadline=None)
    @given(
        mod=st.floats(min_value=P + 0.01, max_value=0.99),
        arg=st.floats(min_value=0.05, max_value=2.0 * math.pi - 0.05),
    )
    def test_quasi_periodicity(self, mod, arg):
        params = default_params(P, KAPPA)
        z = mod * cmath.exp(1j * arg)
        a = theta(params, P * z)
        b = -theta(params, z) / z
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b), 1e-30)

    def test_symmetry_random_sweep(self, params, rng):
        for _ in range(200):
            z = rng.uniform(P, 1.0) * cmath.exp(2j * math.pi * rng.uniform())
            a, b = theta(params, P / z), theta(params, z)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_quasi_periodicity_random_sweep(self, params, rng):
        for _ in range(200):
            z = rng.uniform(P, 1.0) * cmath.exp(2j * math.pi * rng.uniform())
            a = theta(params, P * z)
            b = -theta(params, z) / z
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


class TestThetaBatch:
    """An array argument shares one factor count; values match the scalar path."""

    def test_array_matches_scalar(self, params, rng):
        mod = np.geomspace(0.05, 20.0, 60)
        z = mod * np.exp(2j * np.pi * rng.uniform(size=mod.size))
        got = theta(params, z)
        want = np.array([theta(params, t) for t in z])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_oracle_sweep_as_one_batch(self, params, rng):
        z = rng.uniform(0.2, 2.0, size=25) + 1j * rng.uniform(-1.0, 1.0, size=25)
        got = theta(params, z)
        for t, g in zip(z, got):
            want = theta_oracle(complex(t))
            assert abs(g - want) <= 1e-12 * max(1.0, abs(want))

    def test_shapes_and_types(self, params):
        assert isinstance(theta(params, 0.5), complex)
        assert theta(params, np.full((2, 3), 0.5 + 0.1j)).shape == (2, 3)

    def test_exact_zeros_in_a_batch(self, params):
        got = theta(params, [1.0, P, 0.5])
        assert got[0] == 0.0 and got[1] == 0.0 and got[2] != 0.0

    def test_domain_error_anywhere_in_batch(self, params):
        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(ThetaDomainError):
                theta(params, [0.5, bad, 0.7])


class TestCoefficients:
    def test_a_at_zero(self, params, rng):
        for _ in range(50):
            y = complex(rng.uniform(0.1, 0.8), rng.uniform(0.0, 0.5))
            assert abs(coeff_a(params, y, 0.0) - 1.0) < 1e-12

    def test_a_vanishing_numerator(self, params):
        # y - x an integer puts a theta zero in the numerator
        y = 0.6 + 0.2j
        assert abs(coeff_a(params, y, y - 1.0)) < 1e-12

    def test_a_frozen_value(self, params):
        got = coeff_a(params, 0.6, 0.15)
        assert abs(got - A_06_015) / abs(A_06_015) < 1e-10

    def test_b_at_zero(self, params, rng):
        for _ in range(50):
            y = complex(rng.uniform(0.1, 0.8), rng.uniform(0.0, 0.5))
            assert abs(coeff_b(params, y, 0.0)) < 1e-12

    def test_b_at_x_equals_y(self, params):
        y = 0.6 + 0.2j
        assert abs(coeff_b(params, y, y) - 1.0) < 1e-12

    def test_b_frozen_value(self, params):
        got = coeff_b(params, 0.6, 0.15)
        assert abs(got - B_06_015) / abs(B_06_015) < 1e-10

    def test_c_zero_at_minus_two_kappa(self, params):
        assert abs(c_func(params, -2.0 * KAPPA)) < 1e-12

    def test_c_frozen_value(self, params):
        got = c_func(params, 0.4)
        assert abs(got - C_04) / abs(C_04) < 1e-10

    def test_c_ratio_cancellation(self, params):
        for x in (0.3, -0.3, 0.3 + 0.12j):
            u = -c_func(params, x) / c_func(params, -x)
            v = -c_func(params, -x) / c_func(params, x)
            assert abs(u * v - 1.0) < 1e-12

    def test_oracle_composition(self, params):
        # the double-precision values must match the extended-precision composition
        def powp_o(x):
            with mp.workdps(60):
                return complex(mp.e ** (mp.mpc(x) * mp.log(mp.mpf(P))))

        y, x = 0.6, 0.15
        a_ref = (
            theta_oracle(powp_o(2 * KAPPA))
            * theta_oracle(powp_o(y - x))
            / (theta_oracle(powp_o(y)) * theta_oracle(powp_o(2 * KAPPA - x)))
            * powp_o((2 * KAPPA - y) * x)
        )
        assert abs(coeff_a(params, y, x) - a_ref) < 1e-10 * abs(a_ref)

    def test_pole_error_names_factor(self, params):
        with pytest.raises(PoleError) as err:
            c_func(params, 0.0)  # theta(p^0) = theta(1) = 0 in the denominator
        assert "p^x" in str(err.value)

    def test_b_pole_at_integer_y(self, params):
        with pytest.raises(PoleError):
            coeff_b(params, 1.0, 0.3)  # theta(p^{-1}) = 0 denominator

    def test_pole_inside_a_batch_names_factor(self, params):
        with pytest.raises(PoleError) as err:
            coeff_b(params, np.array([0.3 + 0.1j, 1.0, 0.5]), 0.3)
        assert err.value.factor == "p^(-y)"
        assert err.value.magnitude < params.pole_tol

    def test_batches_match_scalar_calls(self, params, rng):
        ys = rng.uniform(-0.8, 0.8, size=4) + 1j * rng.uniform(0.0, 0.5, size=4)
        xs = (rng.uniform(-0.8, 0.8, size=3) + 1j * rng.uniform(-0.3, 0.3, size=3))[:, None]
        for fn in (coeff_a, coeff_b):
            got = fn(params, ys, xs)
            assert got.shape == (3, 4)
            for (i, j), g in np.ndenumerate(got):
                want = fn(params, ys[j], xs[i, 0])
                assert isinstance(want, complex)
                assert abs(g - want) <= 1e-14 * abs(want)
        got = c_func(params, xs[:, 0])
        for x, g in zip(xs[:, 0], got):
            assert abs(g - c_func(params, x)) <= 1e-14 * abs(g)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (coeff_a, (np.array([0.4, -199.9]), 0.3 + 0.1j)),
            (coeff_b, (199.9, 0.3 + 0.1j)),
            (c_func, (np.array([0.4, -300.0]),)),
        ],
    )
    def test_non_finite_values_raise(self, params, fn, args):
        # theta products of |z| ~ p^(-200) overflow; the NaN must not escape
        with pytest.raises(NonFiniteError):
            fn(params, *args)


class TestParams:
    def test_nome_range(self):
        with pytest.raises(ValueError):
            Nome(1.2)
        with pytest.raises(ValueError):
            Nome(0.0)

    def test_resonant_kappa_rejected(self):
        with pytest.raises(ValueError):
            EllipticParams(nome=Nome(P), kappa=0.0)
        with pytest.raises(ValueError):
            EllipticParams(nome=Nome(P), kappa=0.5)

    def test_log_p_negative(self):
        assert Nome(P).log_p < 0.0
