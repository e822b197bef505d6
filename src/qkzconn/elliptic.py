"""Renormalised Jacobi theta products and the elliptic coefficient functions.

Everything downstream is built from a nome 0 < p < 1 and a coupling kappa
through the single-valued power p^x := exp(x * log p) with the real branch
of log p.  This branch makes p^(x+y) = p^x * p^y hold exactly for complex
exponents, which the coefficient identities below rely on.

``theta`` is the renormalised product prod_{m>=0} (1 - p^m z)(1 - p^{m+1}/z),
truncated once the tail factors are within ``THETA_TRUNCATION_TOL`` of 1;
the theta checks test it.  The coefficients use Jacobi's imaginary
transformation (DLMF 20.7.30) instead: with t = -log p,
theta(p^Y) = C(p) p^((Y - Y^2)/2) S(Y), C(p) = 2 exp(t/12 - pi^2/(3t)), where
S (``_sine``) needs 3, 1 and 0 factors at p = 0.05, 0.35 and 0.6.  In A, B,
c and the odd unit C(p) and the Gaussian cancel.  ``coefficients`` computes
them all from one ``_sine`` batch, finite up to p -> 1, with S at each of
its arguments once; ``coeff_a`` is a thin call into it.  ``pow_p`` and
``theta`` take a scalar or an array; a scalar returns a Python complex.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Nome",
    "EllipticParams",
    "check_coupling",
    "EllipticError",
    "ThetaDomainError",
    "ThetaOverflowError",
    "PoleError",
    "NonFiniteError",
    "default_params",
    "pow_p",
    "theta",
    "coeff_a",
    "coefficients",
]

THETA_TRUNCATION_TOL = 1e-16
POLE_TOL = 1e-10
RESONANCE_TOL = 1e-8
# the product theta's factor count grows like 36.8 / (1 - p): a cap, and
# blocks of rows of 16-byte factors for a large batch
MAX_THETA_FACTORS = 10_000
THETA_BLOCK = 1 << 13


class EllipticError(Exception):
    """Base class for evaluation failures of the elliptic building blocks."""


class ThetaDomainError(EllipticError):
    """theta(z) was requested at z = 0, where the 1/z factors blow up."""


class ThetaOverflowError(EllipticError):
    """The requested truncation needs more than MAX_THETA_FACTORS factors."""


class NonFiniteError(EllipticError):
    """A coefficient function evaluated to NaN or inf (outside the double range)."""


class PoleError(EllipticError):
    """A theta factor in a denominator is numerically zero."""

    def __init__(self, message: str, factor: str | None = None, magnitude: float | None = None):
        super().__init__(message)
        self.factor = factor
        self.magnitude = magnitude


@dataclass(frozen=True)
class Nome:
    """Elliptic nome p with its (negative) natural logarithm cached."""

    p: float
    log_p: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"nome must satisfy 0 < p < 1, got {self.p!r}")
        object.__setattr__(self, "log_p", math.log(self.p))


@dataclass(frozen=True)
class EllipticParams:
    """Nome and coupling; the guards are ``THETA_TRUNCATION_TOL`` and ``POLE_TOL``."""

    nome: Nome
    kappa: complex

    def __post_init__(self) -> None:
        check_coupling(self.kappa)
        # resonance guard: 2 Re kappa in Z puts the zero S(2 kappa) into every A
        t = 2.0 * complex(self.kappa).real
        if abs(t - round(t)) < RESONANCE_TOL:
            raise ValueError(
                f"kappa={self.kappa!r} is resonant: |p^(2 kappa)| lies on the lattice |p^Z|"
            )


def check_coupling(kappa: complex) -> None:
    """Raise ValueError unless both parts of kappa, and 2 Re kappa, are finite."""
    k = complex(kappa)
    if not (cmath.isfinite(k) and math.isfinite(2.0 * k.real)):
        raise ValueError(f"kappa={kappa!r} is not a finite coupling (both parts and 2 Re kappa must be finite)")


def default_params(p: float = 0.35, kappa: complex = 0.27) -> EllipticParams:
    """Desk-scale defaults: theta products converge in ~35 factors."""
    return EllipticParams(nome=Nome(p), kappa=complex(kappa))


def pow_p(ep: EllipticParams, x):
    """p^x on the principal branch exp(x * log p), entire in x and broadcast
    over an array x; OverflowError when |p^x| exceeds the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(np.multiply(x, ep.nome.log_p, dtype=complex))
    if not np.isfinite(out).all():
        raise OverflowError("p^x overflows the double range")
    return _scalar_or_array(out)


def _scalar_or_array(out: np.ndarray):
    return out.item() if out.ndim == 0 else out


def _factor_count(ep: EllipticParams, big: float) -> int:
    # smallest M with p^(M+1) * big < tol, where big = max(|z|, 1/|z|) over
    # the batch; factors run m = 0..M
    bound = (math.log(THETA_TRUNCATION_TOL) - math.log(big)) / ep.nome.log_p
    m = max(0, math.ceil(bound - 1.0))
    if m + 1 > MAX_THETA_FACTORS:
        raise ThetaOverflowError(
            f"theta truncation needs {m + 1} factors for max(|z|, 1/|z|) = {big:.3e} "
            f"(cap {MAX_THETA_FACTORS})"
        )
    return m


def theta(ep: EllipticParams, z, min_factors: int = 0):
    """Truncated product prod_{m=0}^{M} (1 - p^m z)(1 - p^{m+1}/z).

    ``z`` is a scalar or an array; a whole array shares one factor count M,
    set by its largest max(|z|, 1/|z|), so the extra factors of the other
    entries are within the truncation tolerance of 1.  A scalar z gives a
    Python complex.  ``min_factors`` forces at least that many factors; used
    to test that the truncation rule is already converged.
    """
    z = np.asarray(z, dtype=complex)
    mod = np.abs(z)
    lo, hi = float(mod.min(initial=math.inf)), float(mod.max(initial=0.0))
    if not (lo > 0.0 and hi < math.inf):
        raise ThetaDomainError("theta(z) is undefined at z = 0 and at non-finite z")
    m_top = max(_factor_count(ep, max(hi, 1.0 / lo, 1.0)), min_factors)
    # pm[m] = p^m by repeated multiplication, so pm[m + 1] = pm[m] * p exactly
    pm = np.full(m_top + 2, ep.nome.p)
    pm[0] = 1.0
    np.cumprod(pm, out=pm)
    # one row of factors per argument, multiplied in order m = 0..M for any
    # batch size, in blocks of about THETA_BLOCK factors
    zs = z.reshape(-1, 1)
    out = np.empty(zs.shape[0], dtype=complex)
    rows = max(1, THETA_BLOCK // (m_top + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, zs.shape[0], rows):
            part = zs[lo : lo + rows]
            factors = (1.0 - pm[:-1] * part) * (1.0 - pm[1:] * (1.0 / part))
            factors.prod(axis=1, out=out[lo : lo + rows])
    return _scalar_or_array(out.reshape(z.shape))


def _sine(log_p: float, y: np.ndarray, err=0.0):
    """S(y + err) = sin(pi y) prod_{n>=1} (1 - 2 Q^n cos 2 pi y + Q^2n), with
    Q = exp(-4 pi^2 / t) and t = -log p, as (j, yk, sine, mant) with
    S = exp(-pi T (j^2 - 1) / 4 - i pi j yk) * mant and T = 2 pi / t.

    y is reduced by 1, k times, to yk, and by the period i T of p^y, m times,
    to y0 with |Im y0| <= T / 2.  j = 2m + s, s the sign of Im y0, is constant
    between two rows Im y = m T of zeros.  ``mant`` is (-1)^(m + k) times the
    product times ``sine`` = sin(pi y0) exp(i pi s y0), which is about
    pi dist(y, zeros) near a zero.  ``err``, the rounding error of y, enters
    ``sine`` and ``mant``; the exponent's -i pi j err is the caller's.
    """
    t = -log_p
    period = 2.0 * math.pi / t
    m, k = np.round(y.imag / period), np.round(y.real)
    yk = y - k
    w = yk - 1j * (m * period)
    w += err
    s = np.where(w.imag < 0.0, -1.0, 1.0)
    # w = 2 pi i s y0 has |exp(w)| <= 1, and sin(pi y0) = s exp(-i pi s y0) expm1(w) / (2i)
    w *= 2j * math.pi * s
    em1 = np.expm1(w)
    rest = 1.0 - 2.0 * np.abs(np.fmod(m + k, 2.0))
    # factors (1 - Q^n exp(w))(1 - Q^n exp(-w)) until the largest term,
    # exp(-(4n - 2) pi^2 / t), is below THETA_TRUNCATION_TOL; Q^n exp(-w) is
    # one exp, as exp(-w) alone overflows where Q^n underflows
    for n in range(1, math.floor((-math.log(THETA_TRUNCATION_TOL) * t / math.pi**2 - 2.0) / 4.0) + 2):
        log_q = -4.0 * math.pi**2 * n / t
        rest = rest * (1.0 - math.exp(log_q) * (em1 + 1.0)) * (1.0 - np.exp(log_q - w))
    sine = s * em1 / 2j
    return 2.0 * m + s, yk, sine, sine * rest


def _two_sum(a, b):
    """a + b rounded, and its rounding error exactly (Knuth's TwoSum, per part)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def coefficients(ep: EllipticParams, y=(), x=(), u=(), c=()):
    """A and B at the broadcast pairs (y, x), the odd unit -c(u)/c(-u) at
    each u and c at each argument of ``c``; with k = kappa,

        A = S(2k) S(y-x) / (S(y) S(2k-x)),   B = S(2k-y) S(-x) / (S(2k-x) S(-y)),
        -c(u)/c(-u) = S(2k+u) / S(2k-u),     c = p^(k - 2k^2) S(2k+x) / S(x).

    The batch is one ``_sine`` call that evaluates each argument once, at
    the shape of the variables it depends on: S(y) and S(2k-y) at y's,
    S(2k-x) and S(-x) at x's, S(y-x) at the pairs', S(2k) once, S(c) and
    S(2k+c) at c's, S(2k-u) and S(2k+u) at u's.

    B's S(-y) is not evaluated: it is S(y)'s tuple (j, yk, err, mant)
    negated.  ``_sine`` reduces -y by -k and -m where it reduces y by k and
    m, and off a row of zeros (Im y0 != 0) its sign s flips too, so there
    the negated tuple is exactly the one it computes for -y.  On a row both
    signs take s = +1 and the strip labels differ by 2; the negated tuple
    is then still S(-y), as S is odd, written in the neighbouring strip.

    A denominator whose sine is below ``POLE_TOL`` raises PoleError with
    the label of its theta factor (a pole of S(-y) is one of S(y), labelled
    ``p^y``), and a value outside the double range NonFiniteError.  Each
    result is shaped like its (broadcast) arguments; a 0-d result is a
    Python complex.
    """
    k2, log_p = 2.0 * ep.kappa, ep.nome.log_p
    y, x, u, c = (np.asarray(t, dtype=complex) for t in (y, x, u, c))
    pairs = np.broadcast_shapes(y.shape, x.shape)
    # each argument a sum l + r whose rounding error _two_sum keeps: the
    # denominators S(c), S(2k-u), S(y), S(2k-x) in the order they are
    # guarded, the numerators S(2k+c), S(2k+u), S(2k-y), S(-x) over them,
    # then S(2k) and S(y-x)
    sums = ((0.0, c), (k2, -u), (0.0, y), (k2, -x), (k2, c), (k2, u), (k2, -y), (0.0, -x), (k2, 0.0), (y, -x))
    shapes = (c.shape, u.shape, y.shape, x.shape) * 2 + ((), pairs)
    ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
    starts = [0] + ends
    terms = np.empty((2, ends[-1]), dtype=complex)
    for (l, r), shape, lo, hi in zip(sums, shapes, starts, ends):
        terms[0, lo:hi].reshape(shape)[...] = l
        terms[1, lo:hi].reshape(shape)[...] = r
    # a stacked sweep's batch holds tens of thousands of arguments: each
    # array goes as soon as it is used up
    args, errs = _two_sum(*terms)
    del terms
    j, yk, sine, mant = _sine(log_p, args, errs)
    n = ends[3]
    if n and np.abs(sine[:n]).min() < POLE_TOL:
        for label, lo, hi in zip(("p^x", "p^(2*kappa-x)", "p^y", "p^(2*kappa-x)"), starts, ends):
            worst = float(np.abs(sine[lo:hi]).min(initial=math.inf))
            if worst < POLE_TOL:
                raise PoleError(f"pole: theta factor {label} has sine modulus {worst:.3e} < {POLE_TOL:.1e}", label, worst)
    del args, sine
    # every quotient S(y) / S(y') in one pass over gathered tuples: the
    # numerators over the denominators, with S(-y) the negated tuple of
    # S(y), then A's S(2k) / S(y) and S(y-x) / S(2k-x)
    index = np.arange(ends[-1])
    at_y, at_x = index[starts[2] : ends[2]], index[starts[3] : n]
    num = np.concatenate((index[n : 2 * n], np.full(at_y.size, 2 * n), index[2 * n + 1 :]))
    den = np.concatenate((index[:n], at_y, np.broadcast_to(at_x.reshape(x.shape), pairs).ravel()))
    sign = np.ones(den.size)
    sign[at_y] = -1.0
    (jn, yn, en, mn), (jd, yd, ed, md) = ([v[num] for v in (j, yk, errs, mant)], [sign * v[den] for v in (j, yk, errs, mant)])
    # its exponent is -i pi (j y - j' y') - pi T (j^2 - j'^2) / 4, or
    # -i pi ((j + j')/2 (y - y') + (j - j')/2 (y + y' - 2i cT)) with c the
    # row of zeros (j + j')/4 between y and y', 0 for opposite arguments: the
    # large terms cancel before they are rounded
    half_sum, half_diff = (jn + jd) / 2.0, (jn - jd) / 2.0
    row = 1j * (half_sum / 2.0 * (-2.0 * math.pi / log_p))
    diff, total = (yn - yd) + (en - ed), ((yn - row) + (yd - row)) + (en + ed)
    power, ratio = -1j * math.pi * (half_sum * diff + half_diff * total), mn / md
    bounds = (*starts[:4], n, n + at_y.size, num.size)
    (pc, rc), (pu, ru), (pb, rb), (pb2, rb2), (pa, ra), (pa2, ra2) = (
        (power[lo:hi].reshape(shape), ratio[lo:hi].reshape(shape))
        for shape, lo, hi in zip((*shapes[:4], y.shape, pairs), bounds, bounds[1:])
    )
    with np.errstate(over="ignore", invalid="ignore"):
        out = (
            np.exp(pa2 + pa) * (ra2 * ra),
            np.exp(pb + pb2) * (rb * rb2),
            np.exp(pu) * ru,
            np.exp(pc + (ep.kappa - 2.0 * ep.kappa**2) * log_p) * rc,
        )
    for v, name in zip(out, ("A-coefficient", "B-coefficient", "odd unit", "c-function")):
        if bad := np.count_nonzero(~np.isfinite(v)):
            raise NonFiniteError(f"{name} is not finite at {bad} of {v.size} points")
    return tuple(_scalar_or_array(v) for v in out)


def coeff_a(ep: EllipticParams, y, x):
    """A-coefficient theta(p^{2k}, p^{y-x}) / theta(p^y, p^{2k-x}) * p^{(2k-y)x}; broadcasts."""
    return coefficients(ep, y, x)[0]
