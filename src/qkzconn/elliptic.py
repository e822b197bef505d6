"""Renormalised Jacobi theta products and the elliptic coefficient functions.

Everything downstream is built from a nome 0 < p < 1 and a coupling kappa
through the single-valued power p^x := exp(x * log p) with the real branch
of log p.  This branch makes p^(x+y) = p^x * p^y hold exactly for complex
exponents, which the coefficient identities below rely on.

The theta function is the renormalised product

    theta(z) = prod_{m>=0} (1 - p^m z) (1 - p^{m+1} / z),

truncated once the tail factors are within ``theta_truncation_tol`` of 1.
Its zero set is z in p^Z, which is where the pole guards of the coefficient
functions fire.

The kernel works on numpy arrays: ``pow_p`` and ``theta`` take a scalar or
an array, and ``coeff_a``, ``coeff_b`` and ``c_func`` broadcast over their
arguments and evaluate every theta factor of a call in one batch.  A scalar
argument is the 0-d case of the same code and returns a Python complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Nome",
    "EllipticParams",
    "EllipticError",
    "ThetaDomainError",
    "ThetaOverflowError",
    "PoleError",
    "NonFiniteError",
    "default_params",
    "pow_p",
    "theta",
    "coeff_a",
    "coeff_b",
    "c_func",
]

THETA_TRUNCATION_TOL = 1e-16
POLE_TOL = 1e-10
RESONANCE_TOL = 1e-8
MAX_THETA_FACTORS = 10_000


class EllipticError(Exception):
    """Base class for evaluation failures of the elliptic building blocks."""


class ThetaDomainError(EllipticError):
    """theta(z) was requested at z = 0, where the 1/z factors blow up."""


class ThetaOverflowError(EllipticError):
    """The requested truncation needs more than MAX_THETA_FACTORS factors."""


class NonFiniteError(EllipticError):
    """A coefficient function evaluated to NaN or inf (theta products overflowed)."""


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
    """Nome, coupling and the numerical guards used by every evaluation."""

    nome: Nome
    kappa: complex
    theta_truncation_tol: float = THETA_TRUNCATION_TOL
    pole_tol: float = POLE_TOL

    def __post_init__(self) -> None:
        if self.theta_truncation_tol <= 0.0:
            raise ValueError("theta_truncation_tol must be positive")
        if self.pole_tol <= 0.0:
            raise ValueError("pole_tol must be positive")
        # Resonance guard: |p^(2 kappa)| on the lattice |p^m| collapses the
        # coefficient functions (theta(p^(2 kappa)) sits in every numerator).
        t = 2.0 * complex(self.kappa).real
        if abs(t - round(t)) < RESONANCE_TOL:
            raise ValueError(
                f"kappa={self.kappa!r} is resonant: |p^(2 kappa)| lies on the lattice |p^Z|"
            )


def default_params(p: float = 0.35, kappa: complex = 0.27, **kwargs) -> EllipticParams:
    """Desk-scale defaults: theta products converge in ~35 factors."""
    return EllipticParams(nome=Nome(p), kappa=complex(kappa), **kwargs)


def pow_p(ep: EllipticParams, x):
    """p^x on the principal branch exp(x * log p); entire in x.

    Broadcasts over an array x; a scalar x gives a Python complex.  Raises
    OverflowError when |p^x| exceeds the double range.
    """
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
    bound = (math.log(ep.theta_truncation_tol) - math.log(big)) / ep.nome.log_p
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
    # one row of factors per argument: reducing along the contiguous axis
    # multiplies them in order m = 0..M, the same for any batch size
    zs = z.reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        factors = (1.0 - pm[:-1] * zs) * (1.0 - pm[1:] * (1.0 / zs))
        out = factors.prod(axis=1).reshape(z.shape)
    return _scalar_or_array(out)


def _stacked_powers(ep: EllipticParams, shape: tuple, *exponents) -> np.ndarray:
    # p^e for each exponent, broadcast to ``shape`` and stacked on axis 0
    stacked = np.empty((len(exponents), *shape), dtype=complex)
    for k, e in enumerate(exponents):
        stacked[k] = e
    return pow_p(ep, stacked)


def _pole_guard(ep: EllipticParams, val: np.ndarray, label: str) -> None:
    mag = np.abs(val)
    if (mag < ep.pole_tol).any():
        worst = float(mag.min())
        raise PoleError(
            f"pole: theta factor {label} has modulus {worst:.3e} < {ep.pole_tol:.1e}",
            factor=label,
            magnitude=worst,
        )


def _finite(out: np.ndarray, name: str):
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise NonFiniteError(f"{name} is not finite at {bad} of {out.size} points")
    return _scalar_or_array(out)


def coeff_a(ep: EllipticParams, y, x):
    """A-coefficient theta(p^{2k}, p^{y-x}) / theta(p^y, p^{2k-x}) * p^{(2k-y)x}.

    Broadcasts over y and x with one theta call on the stacked arguments.
    """
    k2 = 2.0 * ep.kappa
    y, x = np.asarray(y, dtype=complex), np.asarray(x, dtype=complex)
    pw = _stacked_powers(ep, np.broadcast(y, x).shape, k2, y - x, y, k2 - x, (k2 - y) * x)
    th = theta(ep, pw[:4])
    _pole_guard(ep, th[2], "p^y")
    _pole_guard(ep, th[3], "p^(2*kappa-x)")
    with np.errstate(over="ignore", invalid="ignore"):
        out = (th[0] * th[1]) / (th[2] * th[3]) * pw[4]
    return _finite(out, "A-coefficient")


def coeff_b(ep: EllipticParams, y, x):
    """B-coefficient theta(p^{2k-y}, p^{-x}) / theta(p^{2k-x}, p^{-y}) * p^{2k(x-y)}.

    Broadcasts over y and x with one theta call on the stacked arguments.
    """
    k2 = 2.0 * ep.kappa
    y, x = np.asarray(y, dtype=complex), np.asarray(x, dtype=complex)
    pw = _stacked_powers(ep, np.broadcast(y, x).shape, k2 - y, -x, k2 - x, -y, k2 * (x - y))
    th = theta(ep, pw[:4])
    _pole_guard(ep, th[2], "p^(2*kappa-x)")
    _pole_guard(ep, th[3], "p^(-y)")
    with np.errstate(over="ignore", invalid="ignore"):
        out = (th[0] * th[1]) / (th[2] * th[3]) * pw[4]
    return _finite(out, "B-coefficient")


def c_func(ep: EllipticParams, x):
    """Elliptic c-function p^{2k x} * theta(p^{2k+x}) / theta(p^x).

    Broadcasts over x with one theta call on the stacked arguments.
    """
    k2 = 2.0 * ep.kappa
    x = np.asarray(x, dtype=complex)
    pw = _stacked_powers(ep, x.shape, k2 + x, x, k2 * x)
    th = theta(ep, pw[:2])
    _pole_guard(ep, th[1], "p^x")
    with np.errstate(over="ignore", invalid="ignore"):
        out = pw[2] * th[0] / th[1]
    return _finite(out, "c-function")
