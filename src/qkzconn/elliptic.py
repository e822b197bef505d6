"""Renormalised Jacobi theta products and the elliptic coefficient functions.

Everything downstream is built from a nome 0 < p < 1 and a coupling kappa
through the single-valued power p^x := exp(x * log p) with the real branch
of log p.  This branch makes p^(x+y) = p^x * p^y hold exactly for complex
exponents, which the coefficient identities below rely on.

The theta function is the renormalised product

    theta(z) = prod_{m>=0} (1 - p^m z) (1 - p^{m+1} / z),

truncated once the tail factors are within ``THETA_TRUNCATION_TOL`` of 1.
Its zero set is z in p^Z, which is where the pole guards of the coefficient
functions fire: a theta denominator of modulus below ``POLE_TOL`` times
(p; p)_inf^2 = prod_{m>=1} (1 - p^m)^2, the modulus of theta'(1) and the
scale of theta away from its zeros, raises PoleError.

The kernel works on numpy arrays: ``pow_p`` and ``theta`` take a scalar or
an array.  One evaluator, ``coefficients``, computes A and B at stacked
(y, x) pairs, the odd unit -c(u)/c(-u) and c itself from one ``pow_p`` and
one ``theta`` call, and ``coeff_a``, ``coeff_b`` and ``c_func`` are thin
calls into it.  The connection layer makes one such batch per residual
evaluation: every A, B and odd unit of a draw, or of every draw of a sweep,
across all of its local matrices.  A scalar argument is the 0-d case of the same code and returns a
Python complex.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
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
    "coeff_b",
    "c_func",
    "coefficients",
]

THETA_TRUNCATION_TOL = 1e-16
POLE_TOL = 1e-10
RESONANCE_TOL = 1e-8
MAX_THETA_FACTORS = 10_000
#: factors per block of theta arguments evaluated together (16 bytes each)
THETA_BLOCK = 1 << 13


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
    """Elliptic nome p with its (negative) natural logarithm and its theta
    pole threshold ``POLE_TOL * (p; p)_inf^2`` cached."""

    p: float
    log_p: float = field(init=False, repr=False)
    pole_tol: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"nome must satisfy 0 < p < 1, got {self.p!r}")
        object.__setattr__(self, "log_p", math.log(self.p))
        # theta's size off its zeros, 6e-8 at p = 0.85; floored at the least
        # normal double, so an underflowed theta (p >= 0.996) is still a pole.
        # The product stops once the floor is certain, which bounds the loop
        # as p -> 1 (a few factors then, at most about 7,800, near p = 0.995).
        euler, pm = 1.0, self.p
        while pm > THETA_TRUNCATION_TOL and POLE_TOL * euler * euler > sys.float_info.min:
            euler *= 1.0 - pm
            pm *= self.p
        object.__setattr__(self, "pole_tol", max(POLE_TOL * euler * euler, sys.float_info.min))


@dataclass(frozen=True)
class EllipticParams:
    """Nome and coupling; the guards are ``THETA_TRUNCATION_TOL`` and ``Nome.pole_tol``."""

    nome: Nome
    kappa: complex

    def __post_init__(self) -> None:
        check_coupling(self.kappa)
        # Resonance guard: |p^(2 kappa)| on the lattice |p^m| collapses the
        # coefficient functions (theta(p^(2 kappa)) sits in every numerator).
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
    # one row of factors per argument: reducing along the contiguous axis
    # multiplies them in order m = 0..M, the same for any batch size.  Rows
    # go in blocks of about THETA_BLOCK factors, so a large batch holds a
    # bounded set of temporaries
    zs = z.reshape(-1, 1)
    out = np.empty(zs.shape[0], dtype=complex)
    rows = max(1, THETA_BLOCK // (m_top + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, zs.shape[0], rows):
            part = zs[lo : lo + rows]
            factors = (1.0 - pm[:-1] * part) * (1.0 - pm[1:] * (1.0 / part))
            factors.prod(axis=1, out=out[lo : lo + rows])
    return _scalar_or_array(out.reshape(z.shape))


def _distinct(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(z, return_inverse=True)`` of a finite complex array, up to
    the order of the values: sorted by a 64-bit key, the real part's bits XOR
    the imaginary part's with its halves swapped (v, -v and conj(v) differ),
    after adding 0.0 folds -0.0 into 0.0.  Equal neighbours are one value; a
    key two values share only splits a run, counting one value twice."""
    folded = z + 0.0
    bits = folded.view(np.uint64)
    re, im = bits[0::2], bits[1::2]
    order = np.argsort(re ^ (im << 32) ^ (im >> 32))
    ranked = folded[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    back = np.empty_like(order)
    back[order] = np.cumsum(new) - 1
    return ranked[new], back


def _finite(out: np.ndarray, name: str):
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise NonFiniteError(f"{name} is not finite at {bad} of {out.size} points")
    return _scalar_or_array(out)


def coefficients(ep: EllipticParams, a=((), ()), b=((), ()), u=(), c=()):
    """A at the pairs ``a = (y, x)``, B at the pairs ``b``, the odd unit
    -c(u)/c(-u) at each u, and c at each argument of ``c``.

    The whole batch costs one ``pow_p`` and one ``theta`` call, so it shares
    one theta factor count.  The pole of c at u = 0 cancels in the odd unit,
    with limit 1.  A pole anywhere in the batch raises PoleError with the
    label of its factor.  Returns the four results in that order, each shaped
    like its (broadcast) arguments; a 0-d result is a Python complex.
    """
    k2 = 2.0 * ep.kappa
    ya, xa = (np.asarray(t, dtype=complex) for t in a)
    yb, xb = (np.asarray(t, dtype=complex) for t in b)
    u, c = np.asarray(u, dtype=complex), np.asarray(c, dtype=complex)
    moving = u != 0
    # c at its own arguments, then at each moving u, then at its negative
    cx = np.concatenate([c.ravel(), u[moving], -u[moving]])
    dya, dxb = ya - xa, xb - yb
    sa, sb = dya.shape, dxb.shape
    na, nb, nc = dya.size, dxb.size, cx.size
    # an argument of one variable (or none) keeps its own shape, and
    # broadcasts only in the arithmetic below; it is empty where A or B is
    # asked at no point, so the batch holds the same distinct arguments
    ya, xa, ka = (t if na else np.broadcast_to(t, sa) for t in (ya, xa, np.asarray(k2)))
    yb, xb = (t if nb else np.broadcast_to(t, sb) for t in (yb, xb))
    # exponents in three runs: the guarded theta denominators, in the order
    # they are checked; the theta numerators; the prefactors
    rows = (
        cx, ya, k2 - xa, k2 - xb, -yb,
        ka, dya, k2 - yb, -xb, k2 + cx,
        (k2 - ya) * xa, k2 * dxb, k2 * cx,
    )
    ends = list(itertools.accumulate(row.size for row in rows))
    exps = np.empty(ends[-1], dtype=complex)
    for row, lo, hi in zip(rows, [0] + ends, ends):
        exps[lo:hi].reshape(row.shape)[...] = row
    pw = pow_p(ep, exps)
    # a stacked sweep's batch holds tens of thousands of exponents: free them
    # before the dedupe below
    del exps
    n_theta = ends[9]
    # arguments recur across a batch (one x across a matrix, one y across a
    # sweep's shifts); theta of each distinct argument once gives the same values
    z, back = _distinct(pw[:n_theta])
    th = theta(ep, z)[back]
    tol = ep.nome.pole_tol
    if ends[4] and np.abs(th[: ends[4]]).min() < tol:
        labels = ("p^x", "p^y", "p^(2*kappa-x)", "p^(2*kappa-x)", "p^(-y)")
        for label, lo, hi in zip(labels, [0] + ends, ends):
            worst = float(np.abs(th[lo:hi]).min(initial=math.inf))
            if worst < tol:
                message = f"pole: theta factor {label} has modulus {worst:.3e} < {tol:.1e}"
                raise PoleError(message, factor=label, magnitude=worst)
    c_den, a_y, a_kx, b_kx, b_my, a_k, a_yx, b_ky, b_mx, c_num = (
        th[lo:hi].reshape(row.shape) for row, lo, hi in zip(rows, [0] + ends, ends[:10])
    )
    pre = pw[n_theta:]
    out = np.empty(na + nb + nc, dtype=complex)
    out_a, out_b, out_c = out[:na], out[na : na + nb], out[na + nb :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply((a_k * a_yx) / (a_y * a_kx), pre[:na].reshape(sa), out=out_a.reshape(sa))
        np.multiply((b_ky * b_mx) / (b_kx * b_my), pre[na : na + nb].reshape(sb), out=out_b.reshape(sb))
        np.divide(pre[na + nb :] * c_num, c_den, out=out_c)
        if not np.isfinite(out).all():
            for part, name in ((out_c, "c-function"), (out_a, "A-coefficient"), (out_b, "B-coefficient")):
                _finite(part, name)
        unit = np.ones(u.shape, dtype=complex)
        k, m = c.size, (nc - c.size) // 2
        unit[moving] = -out_c[k : k + m] / out_c[k + m :]
    return (
        _scalar_or_array(out_a.reshape(sa)),
        _scalar_or_array(out_b.reshape(sb)),
        _finite(unit, "odd unit"),
        _scalar_or_array(out_c[:k].reshape(c.shape)),
    )


def coeff_a(ep: EllipticParams, y, x):
    """A-coefficient theta(p^{2k}, p^{y-x}) / theta(p^y, p^{2k-x}) * p^{(2k-y)x}.

    Broadcasts over y and x.
    """
    return coefficients(ep, a=(y, x))[0]


def coeff_b(ep: EllipticParams, y, x):
    """B-coefficient theta(p^{2k-y}, p^{-x}) / theta(p^{2k-x}, p^{-y}) * p^{2k(x-y)}.

    Broadcasts over y and x.
    """
    return coefficients(ep, b=(y, x))[1]


def c_func(ep: EllipticParams, x):
    """Elliptic c-function p^{2k x} * theta(p^{2k+x}) / theta(p^x).

    Broadcasts over x.
    """
    return coefficients(ep, c=x)[3]
