"""Theta products and coefficient functions against an independent oracle."""

import cmath
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkzconn import elliptic
from qkzconn.elliptic import (
    POLE_TOL,
    THETA_TRUNCATION_TOL,
    EllipticParams,
    NonFiniteError,
    Nome,
    PoleError,
    ThetaDomainError,
    ThetaOverflowError,
    coeff_a,
    coefficients,
    default_params,
    pow_p,
    theta,
)
from qkzconn.params import RunConfig, sample_dynamical, sample_scalar

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
            assert abs(a - b) <= 10 * THETA_TRUNCATION_TOL * max(1.0, abs(b))

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
            assert abs(coefficients(params, y, 0.0)[1]) < 1e-12

    def test_b_at_x_equals_y(self, params):
        y = 0.6 + 0.2j
        assert abs(coefficients(params, y, y)[1] - 1.0) < 1e-12

    def test_b_frozen_value(self, params):
        got = coefficients(params, 0.6, 0.15)[1]
        assert abs(got - B_06_015) / abs(B_06_015) < 1e-10

    def test_c_zero_at_minus_two_kappa(self, params):
        assert abs(coefficients(params, c=-2.0 * KAPPA)[3]) < 1e-12

    def test_c_frozen_value(self, params):
        got = coefficients(params, c=0.4)[3]
        assert abs(got - C_04) / abs(C_04) < 1e-10

    def test_c_ratio_cancellation(self, params):
        for x in (0.3, -0.3, 0.3 + 0.12j):
            u = -coefficients(params, c=x)[3] / coefficients(params, c=-x)[3]
            v = -coefficients(params, c=-x)[3] / coefficients(params, c=x)[3]
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
            coefficients(params, c=0.0)[3]  # theta(p^0) = theta(1) = 0 in the denominator
        assert "p^x" in str(err.value)

    def test_b_pole_at_integer_y(self, params):
        with pytest.raises(PoleError):
            coefficients(params, 1.0, 0.3)[1]  # theta(p^{-1}) = 0 denominator

    def test_pole_inside_a_batch_names_factor(self, params):
        with pytest.raises(PoleError) as err:
            coefficients(params, np.array([0.3 + 0.1j, 1.0, 0.5]), 0.3)[1]
        assert err.value.factor == "p^y"  # S(-y) is the negated S(y)
        assert err.value.magnitude < POLE_TOL

    @pytest.mark.parametrize("p", [0.05, 0.35, 0.85, 0.99, 0.999, 1 - 1e-7])
    @pytest.mark.parametrize("y", [0.0, 1.0])
    def test_a_zero_raises_at_every_nome(self, p, y):
        # the guard reads the sine of the reduced argument, about
        # pi dist(y, Z) at every nome; the message prints POLE_TOL
        ep = default_params(p)
        with pytest.raises(PoleError) as err:
            coefficients(ep, y, 0.3)[1]
        assert err.value.factor == "p^y"  # S(-y) is the negated S(y)
        assert err.value.magnitude < POLE_TOL
        assert f"< {POLE_TOL:.1e}" in str(err.value)

    def test_an_underflowed_theta_is_a_pole(self):
        # at p = 0.996 theta's size (p; p)_inf^2 underflows to 0, while the
        # sine of a zero is exactly 0 and of a nearby point is not
        ep = default_params(0.996)
        assert float(mp.qp(0.996)) ** 2 < sys.float_info.min
        with pytest.raises(PoleError) as err:
            coefficients(ep, 0.0, 0.3)[1]
        assert err.value.magnitude == 0.0
        assert math.isfinite(abs(coefficients(ep, 0.01, 0.3)[1]))

    @pytest.mark.parametrize("p", [0.99, 0.999, 1 - 1e-7, 1 - 1e-12, math.nextafter(1.0, 0.0)])
    def test_nome_near_one_evaluates(self, p):
        # no factor, no Euler product and no cap: the modular frame is finite up to p -> 1
        ep = default_params(p)
        y = np.array([0.3 + 0.1j, -0.2 + 0.3j, 0.4 - 0.2j])
        x = np.array([0.2 + 0.05j, 0.1 - 0.3j, -0.35 + 0.15j])
        for part in coefficients(ep, y, x, u=x, c=x):
            assert np.isfinite(part).all()

    @pytest.mark.parametrize("p", [0.05, 0.35, 0.85, 0.99])
    def test_pole_threshold_is_pole_tol_over_pi_in_distance(self, p):
        # the sine of the reduced argument is pi dist(y, Z) to first order:
        # the guard fires at a distance POLE_TOL / pi from a zero, at any p
        ep = default_params(p)
        for k, t in ((0, 0.0), (1, 0.0), (0, 2.0 * math.pi / -ep.nome.log_p)):
            zero = complex(k, t)
            with pytest.raises(PoleError):
                coefficients(ep, zero + 0.9 * POLE_TOL / math.pi, 0.3)[1]
            assert math.isfinite(abs(coefficients(ep, zero + 1.1 * POLE_TOL / math.pi, 0.3)[1]))

    def test_batches_match_scalar_calls(self, params, rng):
        ys = rng.uniform(-0.8, 0.8, size=4) + 1j * rng.uniform(0.0, 0.5, size=4)
        xs = (rng.uniform(-0.8, 0.8, size=3) + 1j * rng.uniform(-0.3, 0.3, size=3))[:, None]
        for part in (0, 1):  # A, B
            got = coefficients(params, ys, xs)[part]
            assert got.shape == (3, 4)
            for (i, j), g in np.ndenumerate(got):
                want = coefficients(params, ys[j], xs[i, 0])[part]
                assert isinstance(want, complex)
                assert abs(g - want) <= 1e-14 * abs(want)
        got = coefficients(params, c=xs[:, 0])[3]
        for x, g in zip(xs[:, 0], got):
            assert abs(g - coefficients(params, c=x)[3]) <= 1e-14 * abs(g)

    def test_far_arguments_reduce(self, params):
        # y = -199.9 puts theta's argument at |z| ~ p^-200, where the product
        # overflowed; A is periodic in y with period 1, and the reduction
        # gives the value at y = 0.1
        far, near = coeff_a(params, np.array([0.4, -199.9]), 0.3 + 0.1j), coeff_a(params, np.array([0.4, 0.1]), 0.3 + 0.1j)
        assert np.all(np.abs(far - near) <= 1e-13 * np.abs(near))

    @pytest.mark.parametrize(
        "name, args",
        [
            ("A-coefficient", {"y": np.array([0.4, 0.3]), "x": 0.3 + 1000j}),
            # A is finite here, so B's own guard raises
            ("B-coefficient", {"y": 0.4 - 1000j, "x": 0.3}),
            ("c-function", {"c": np.array([0.4, 0.3 + 1000j])}),
        ],
    )
    def test_non_finite_values_raise(self, name, args):
        # a complex coupling makes each coefficient grow like exp(4 pi Im kappa)
        # per period 2 pi / t of Im x, past the double range at Im x = 1000;
        # the inf or NaN must not escape
        with pytest.raises(NonFiniteError, match=name):
            coefficients(default_params(P, KAPPA + 0.5j), **args)


class TestFusedEvaluator:
    """A, B, the odd unit and c from one mixed batch, as the connection layer calls them."""

    def test_mixed_batch_matches_single_calls(self, params, rng):
        period = 2 * math.pi / abs(math.log(P))
        for _ in range(20):
            ys = rng.uniform(-0.8, 0.8, 6) + 1j * rng.uniform(-0.5, 0.5, 6)
            xs = rng.uniform(-1, 1, 6) + 1j * rng.uniform(0, period, 6)
            us = rng.uniform(-1, 1, 4) + 1j * rng.uniform(0, period, 4)
            cs = rng.uniform(-1, 1, 3) + 1j * rng.uniform(0, period, 3)
            a, b, unit, c = coefficients(params, ys, xs, u=us, c=cs)
            for y, x, got_a, got_b in zip(ys, xs, a, b):
                want_a, want_b = coeff_a(params, y, x), coefficients(params, y, x)[1]
                assert abs(got_a - want_a) <= 1e-15 * abs(want_a)
                assert abs(got_b - want_b) <= 1e-15 * abs(want_b)
            for u, got in zip(us, unit):
                want = -coefficients(params, c=u)[3] / coefficients(params, c=-u)[3]
                assert abs(got - want) <= 1e-15 * abs(want)
            for x, got in zip(cs, c):
                assert abs(got - coefficients(params, c=x)[3]) <= 1e-15 * abs(got)

    def test_shapes_and_scalars(self, params):
        a, b, unit, c = coefficients(params, np.full((2, 3), 0.3 + 0.1j), 0.1, u=[0.2, 0.3])
        assert a.shape == b.shape == (2, 3) and unit.shape == (2,) and c.shape == (0,)
        assert isinstance(coefficients(params, u=0.2)[2], complex)

    @pytest.mark.parametrize(
        "group, label",
        [("y", "p^y"), ("x", "p^(2*kappa-x)"), ("-y", "p^y"), ("u", "p^(2*kappa-x)"), ("c", "p^x")],
    )
    def test_one_pole_in_a_batch_names_its_factor(self, params, group, label):
        ys = np.array([0.3 + 0.1j, -0.2 + 0.2j, 0.1 - 0.3j])
        xs = np.array([0.2 + 0.1j, -0.4 + 0.3j, 0.3 + 0.2j])
        us = np.array([0.25 + 0.1j, -0.3 + 0.2j])
        cs = xs.copy()
        if group == "y":
            ys[1] = 1.0  # theta(p^1) in the A-denominator
        elif group == "x":
            xs[2] = 2.0 * KAPPA  # theta(p^0) in the A- and B-denominators
        elif group == "-y":
            # theta(p^1) in the B-denominator, whose S(-y) is the negated S(y)
            ys[0] = -1.0
        elif group == "u":
            us[1] = 2.0 * KAPPA  # theta(p^(2 kappa - u)) = theta(1) in the odd unit's denominator
        else:
            cs[0] = 1.0  # theta(p^1) in the c-denominator
        with pytest.raises(PoleError) as err:
            coefficients(params, ys, xs, u=us, c=cs)
        assert err.value.factor == label
        assert err.value.magnitude < POLE_TOL

    def test_unit_has_no_pole_at_integer_u(self, params):
        # theta(p^u) and theta(p^-u) vanish together at u in Z, and the unit
        # S(2 kappa + u) / S(2 kappa - u) has no pole there; the reference
        # is p^((4 kappa - 1) u) theta(p^(2 kappa + u)) / theta(p^(2 kappa - u))
        us = np.array([1.0, -1.0, 2.0, 1.0 + 2j * math.pi / abs(math.log(P))])
        unit = coefficients(params, u=us)[2]
        for u, got in zip(us, unit):
            with mp.workdps(40):
                log_p, k2 = mp.mpf(math.log(P)), 2 * mp.mpf(KAPPA)
                power = lambda e: mp.e ** (e * log_p)
                th = lambda e: mp.qp(power(e), power(1)) * mp.qp(power(1 - e), power(1))
                want = complex(power((2 * k2 - 1) * mp.mpc(u)) * th(k2 + mp.mpc(u)) / th(k2 - mp.mpc(u)))
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_zero_gives_unit_one_inside_a_batch(self, params):
        us = np.array([0.3 + 0.1j, 0.0, -0.2 + 0.4j])
        a, _, unit, _ = coefficients(params, 0.3 + 0.1j, us, u=us)
        assert unit[1] == 1.0
        for k in (0, 2):
            want = -coefficients(params, c=us[k])[3] / coefficients(params, c=-us[k])[3]
            assert abs(unit[k] - want) <= 1e-15 * abs(want)
        assert abs(a[1] - 1.0) < 1e-12  # A(y, 0) = 1 in the same batch


class TestSignedZeros:
    def test_a_signed_zero_changes_no_bit(self, params):
        # negative real arguments with +0.0 and -0.0 imaginary parts give
        # the same bits
        ys = np.array([complex(-0.4, 0.0), complex(-0.4, -0.0)])
        xs = np.array([complex(-0.2, -0.0), -0.2 + 0j])
        us = np.array([complex(-0.5, -0.0), -0.5 + 0j])
        cs = np.array([complex(-0.6, 0.0), complex(-0.6, -0.0)])
        for got in coefficients(params, ys, xs, u=us, c=cs):
            assert got[0].tobytes() == got[1].tobytes()


def theta_40(p, e, route):
    """theta(p^e) at 40 digits at the nome exp(log p) of the double log p, the
    one the kernel evaluates at (the 40-digit log of p differs from it in the
    17th digit): mpmath's q-Pochhammer product, or the modular formula
    C(p) p^((e - e^2)/2) sin(pi e) prod (1 - 2 Q^n cos 2 pi e + Q^2n) with no
    reduction of e, which converges at any p."""
    with mp.workdps(40):
        log_p, e = mp.mpf(math.log(p)), mp.mpc(e)
        if route == "product":
            return mp.qp(mp.e ** (e * log_p), mp.e**log_p) * mp.qp(mp.e ** ((1 - e) * log_p), mp.e**log_p)
        t = -log_p
        q, cos = mp.e ** (-4 * mp.pi**2 / t), mp.cos(2 * mp.pi * e)
        s, n = mp.sin(mp.pi * e), 1
        while abs(q**n * cos) > mp.mpf(10) ** -45 or q**n > mp.mpf(10) ** -45:
            s *= 1 - 2 * q**n * cos + q ** (2 * n)
            n += 1
        return 2 * mp.e ** (t / 12 - mp.pi**2 / (3 * t) - t * (e - e * e) / 2) * s


def coefficient_oracle(p, y, x, u, c):
    """A(y, x), B(y, x), the odd unit at u and c at c, at 40 digits, composed
    from ``theta_40`` and the prefactors as the definitions write them."""
    with mp.workdps(40):
        log_p, k2 = mp.mpf(math.log(p)), 2 * mp.mpc(KAPPA)
        y, x, u, c = (mp.mpc(complex(v)) for v in (y, x, u, c))

        def power(e):
            return mp.e ** (e * log_p)

        def th(e):
            return theta_40(p, e, "modular")

        def cf(v):
            return power(k2 * v) * th(k2 + v) / th(v)

        a = th(k2) * th(y - x) / (th(y) * th(k2 - x)) * power((k2 - y) * x)
        b = th(k2 - y) * th(-x) / (th(k2 - x) * th(-y)) * power(k2 * (x - y))
        return [complex(v) for v in (a, b, -cf(u) / cf(-u), cf(c))]


class TestModularFrame:
    """A, B, the odd unit and c against 40-digit references, at any nome."""

    @staticmethod
    def draws(p, count):
        gen = np.random.default_rng(4)
        nome = Nome(p)
        y = np.array([sample_dynamical(gen) for _ in range(count)])
        x, u, c = (np.array([sample_scalar(gen, nome) for _ in range(count)]) for _ in range(3))
        return y, x, u, c

    @pytest.mark.parametrize("p", [0.05, 0.35, 0.85])
    def test_the_modular_reference_is_the_product(self, p):
        # the two 40-digit routes to theta agree, across a period in Im e
        gen = np.random.default_rng(6)
        for _ in range(4):
            e = complex(gen.uniform(-1.0, 2.0), gen.uniform(0.0, 2.0 * math.pi / -math.log(p)))
            want, got = theta_40(p, e, "product"), theta_40(p, e, "modular")
            assert abs(got - want) <= mp.mpf(10) ** -35 * abs(want)

    @pytest.mark.parametrize("p", [0.05, 0.35, 0.85, 0.99])
    def test_against_40_digits(self, p):
        # Im x, u and c span one period 2 pi / t of p^x: 625 at p = 0.99
        y, x, u, c = self.draws(p, 60)
        got = coefficients(default_params(p), y, x, u=u, c=c)
        worst = np.zeros(4)
        for k in range(len(y)):
            want = coefficient_oracle(p, y[k], x[k], u[k], c[k])
            worst = np.maximum(worst, [abs(g[k] - w) / abs(w) for g, w in zip(got, want)])
        assert worst.max() <= 1e-14, worst

    def test_agrees_with_the_product_kernel_at_p_099(self):
        # the product theta needs 3,700 factors here; moderate draws keep its
        # values in range
        ep = default_params(0.99)
        gen = np.random.default_rng(5)
        y, x = (np.array([sample_dynamical(gen) for _ in range(40)]) for _ in range(2))
        a, b, unit, c = coefficients(ep, y, x, u=x, c=x)
        k2 = 2.0 * ep.kappa

        def th(e):
            return theta(ep, pow_p(ep, e))

        def cf(v):
            return pow_p(ep, k2 * v) * th(k2 + v) / th(v)

        want = (
            th(k2) * th(y - x) / (th(y) * th(k2 - x)) * pow_p(ep, (k2 - y) * x),
            th(k2 - y) * th(-x) / (th(k2 - x) * th(-y)) * pow_p(ep, k2 * (x - y)),
            -cf(x) / cf(-x),
            cf(x),
        )
        for got, ref in zip((a, b, unit, c), want):
            assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref))


class TestOddSine:
    """B's denominator S(-y) is the negated tuple of S(y), not a second evaluation."""

    NOMES = st.sampled_from([0.05, 0.35, 0.85, 0.99])

    @settings(max_examples=300, deadline=None)
    @given(p=NOMES, re=st.floats(-3.0, 3.0), im=st.floats(-3.0, 3.0))
    def test_minus_y_is_the_negated_tuple(self, p, re, im):
        # off a row of zeros, _sine reduces y and -y to opposite arguments in
        # opposite strips: every part of the tuple flips its sign exactly
        log_p = math.log(p)
        period = 2.0 * math.pi / -log_p
        y = np.array([complex(re, im * period)])
        assume(y.imag[0] - np.round(y.imag[0] / period) * period != 0.0)
        for plus, minus in zip(elliptic._sine(log_p, y), elliptic._sine(log_p, -y)):
            assert np.array_equal(-plus, minus)

    @settings(max_examples=60, deadline=None)
    @given(p=NOMES, k=st.integers(-2, 2), frac=st.floats(0.05, 0.95), re=st.floats(-1.0, 1.0), im=st.floats(0.01, 0.99))
    def test_on_the_real_row_a_and_b_match_40_digits(self, p, k, frac, re, im):
        # on a row of zeros both signs take s = +1, so the strip labels of
        # y and -y differ by 2 and S(-y) is S(y) negated in the other strip;
        # A and B keep the accuracy that the rounding of x and y allows
        ep = default_params(p)
        y, x = complex(k + frac, 0.0), complex(re, im * 2.0 * math.pi / -ep.nome.log_p)
        j_plus, j_minus = (elliptic._sine(ep.nome.log_p, np.array([v]))[0][0] for v in (y, -y))
        assert j_minus == 2.0 - j_plus
        got = coefficients(ep, y, x)[:2]
        for g, want in zip(got, coefficient_oracle(p, y, x, 0.5, 0.5)[:2]):
            assert abs(g - want) <= 1e-14 * (1.0 + abs(x) + abs(y)) * abs(want)


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

    @pytest.mark.parametrize(
        "kappa",
        [1e308, -1e308, math.inf, -math.inf, math.nan, complex(0.27, math.nan), complex(0.27, math.inf)],
        ids=["1e308", "-1e308", "inf", "-inf", "nan", "0.27+nanj", "0.27+infj"],
    )
    def test_non_finite_kappa_rejected(self, kappa):
        # 2 Re kappa must be finite too: 1e308 doubles to inf in the resonance guard
        with pytest.raises(ValueError, match="kappa"):
            default_params(kappa=kappa)
        with pytest.raises(ValueError, match="kappa"):
            RunConfig(kappa=kappa)

    def test_log_p_negative(self):
        assert Nome(P).log_p < 0.0
