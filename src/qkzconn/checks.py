"""Verification suites: every algebraic identity as a residual check.

A check is declared once, by ``@register(check_id, suite, law, tol=None,
min_n=2)`` on a body ``fn(ctx, rng)``.  The registration is the only place
that holds the check's id, suite, law and tolerance, and ``run_suite`` is
the only code that turns a body's output into a ``CheckResult``:

- ``rng`` is the check's own stream ``default_rng([seed, crc32(check_id)])``,
  so a check's samples do not depend on which other checks run;
- the body returns every residual it computes, as an iterable of floats (a
  list, an array or a generator), or a ``Verdict`` of them when it reports
  detail or a second condition (``holds``) that must also be true;
- the runner alone reduces them to the check's residual, their maximum, or
  NaN if any of them is NaN or inf or if there are none;
- ``tol=None`` means the constant ``RunConfig.residual_tol``, 1e-9;
- a check passes when its residual is below the tolerance, except a check
  whose id contains ``negative-control``: it perturbs an identity, and passes
  when the residual is above the tolerance, i.e. when the perturbation breaks
  the identity.  A NaN residual, and so an empty residual set, fails both;
- with fewer than ``min_n`` sites the check is ``skipped``;
- every check that draws a point where it can hit a pole returns the
  ``Verdict`` of ``resample_sweep``: it draws every sample first and
  evaluates them in one batch, and walks the stream draw by draw, resampling
  a point on a pole, only when the batch fails, so its samples are those of
  the one-by-one loop; its detail reports ``draws`` and ``pole_resamples``;
- a body that raises ``ResampleExhausted`` (repeated pole hits),
  ``NotGeneric`` (degenerate spectral labels), ``EllipticError``,
  ``OverflowError`` or ``FloatingPointError`` (an overflow, under
  ``np.errstate(over="raise")``), also while its residuals are being
  consumed, is reported ``inconclusive`` rather than failed.
"""

from __future__ import annotations

import functools
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import blocks as blk
from . import connection as conn
from . import heckespin as hs
from . import qkz
from .elliptic import (
    THETA_TRUNCATION_TOL,
    EllipticError,
    EllipticParams,
    Nome,
    PoleError,
    _sine,
    coefficients,
    pow_p,
    theta,
)
from .params import (
    RunConfig,
    sample_dynamical,
    sample_phi,
    sample_point,
    sample_point_band,
)
from .symgroup import (
    all_perms,
    act,
    compose,
    content_labels,
    inverse,
    reduced_word,
)
from .tensorspace import (
    WEIGHTS,
    multi_indices,
    permutation_op,
    rel_residual,
    tensor_index,
)

__all__ = ["CheckResult", "Report", "SUITES", "run_suite", "list_checks"]

SUITES = ("elliptic", "hecke", "decomposition", "connection", "dybe", "qkz")

#: draws per randomised sweep
SAMPLES = 20
#: pole hits in a row after which ``resample_sweep`` gives up on a draw
POLE_RETRIES = 5


class ResampleExhausted(Exception):
    pass


class NotGeneric(Exception):
    """The spectral labels collide or resonate, so the block identities are untestable."""

    def __init__(self, violations: list):
        super().__init__(f"{len(violations)} spectral collisions or lattice resonances")
        self.detail = {"violations": violations}


@dataclass
class CheckResult:
    check: str
    suite: str
    law: str
    residual: float | None
    tol: float | None
    passed: bool
    status: str = "ran"  # ran | skipped | inconclusive
    detail: dict = field(default_factory=dict)


@dataclass
class Report:
    config: RunConfig
    results: list[CheckResult]
    timings: dict[str, float]

    @property
    def failed(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "ran" and not r.passed]

    @property
    def inconclusive(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "inconclusive"]

    @property
    def exit_code(self) -> int:
        if self.failed:
            return 1
        if self.inconclusive:
            return 2
        return 0


class Verdict(NamedTuple):
    """A body's output when its residuals alone do not say everything."""

    residuals: Iterable[float]
    detail: dict | None = None
    holds: bool = True


class _Check(NamedTuple):
    check_id: str
    suite: str
    law: str
    tol: float | None
    min_n: int
    fn: Callable


_REGISTRY: list[_Check] = []


def register(check_id: str, suite: str, law: str, tol: float | None = None, min_n: int = 2):
    def wrap(fn):
        _REGISTRY.append(_Check(check_id, suite, law, tol, min_n, fn))
        return fn

    return wrap


def list_checks(suite: str | None = None) -> list[tuple[str, str, str]]:
    return [(c.check_id, c.suite, c.law) for c in _REGISTRY if suite in (None, c.suite)]


class VerifyContext:
    """Shared lazily-built state for a verification run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.ep: EllipticParams = cfg.elliptic()
        self.phi = cfg.resolved_phi()
        self._reps: dict[int, hs.SpinRep] = {}

    def rng(self, check_id: str) -> np.random.Generator:
        return np.random.default_rng([self.cfg.seed, zlib.crc32(check_id.encode())])

    def rep(self, n: int) -> hs.SpinRep:
        if n not in self._reps:
            self._reps[n] = hs.spin_rep(hs.HeckeParams(elliptic=self.ep, n=n), self.phi)
        return self._reps[n]

    @functools.cached_property
    def block_residuals(self) -> list[tuple[int, tuple[int, int, int], float, list]]:
        """(n, r, eigen defect, sign defects) of ``blocks.block_residuals`` for
        every block of n = 2 .. 4 up to the run's n, computed once per run and
        read by the eigen and sign checks."""
        return [(n, r, *blk.block_residuals(self.rep(n), r)) for n in self.site_counts(2, 4) for r in content_labels(n)]

    def site_counts(self, lo: int, hi: int) -> list[int]:
        return [n for n in range(lo, hi + 1) if n <= self.cfg.n]

    def point(self, rng: np.random.Generator, n: int) -> tuple[complex, ...]:
        """An evaluation point over one vertical period (``sample_point``)."""
        return sample_point(rng, n, self.ep.nome)


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN if any residual is NaN or inf or there is none.

    Plain ``max`` keeps a NaN only in first position, so ``max(worst, r)``
    would drop a NaN residual and pass its check.  NaN fails every
    comparison, so a non-finite residual fails both an ordinary check
    (residual < tol) and a negative control (residual > tol), and so does a
    check that evaluated nothing.
    """
    vals = [float(r) for r in residuals]
    return max(vals) if vals and all(math.isfinite(v) for v in vals) else math.nan


class Draw(NamedTuple):
    """One draw of a resampling sweep."""

    case: Any  # what the loop fixes for the draw: a block, a letter, a site count
    own: Any  # what the draw samples before its point (a phi, a pair of words), or None
    z: tuple[complex, ...]  # the evaluation point


def resample_sweep(
    rng: np.random.Generator,
    cases: Sequence[tuple[int, Any]],
    point: Callable[[np.random.Generator, int], tuple[complex, ...]],
    evaluate: Callable[[list[Draw]], Sequence[float]],
    own: Callable[[np.random.Generator, Any], Any] | None = None,
) -> Verdict:
    """Evaluate one draw per ``(n, case)`` of ``cases``, resampling the point on a pole.

    A draw samples its own parameters, ``own(rng, case)``, then its point,
    ``point(rng, n)``.  The sweep draws every sample in that order first and
    makes one ``evaluate`` call on all the draws, which returns one residual
    per draw.  If that call fails (a pole, or any other evaluation error),
    the sweep restores the stream and walks it draw by draw, as a loop that
    evaluates each draw alone: a draw whose point hits a pole takes the next
    point of the stream, and ``POLE_RETRIES`` hits in a row raise
    ResampleExhausted.  Either way the draws, the residuals (up to rounding)
    and the stream's final state are those of the walk, and the verdict's
    detail counts the ``draws`` and the ``pole_resamples``.
    """
    state = rng.bit_generator.state
    draws = [Draw(case, own(rng, case) if own else None, point(rng, n)) for n, case in cases]
    try:
        return Verdict([float(r) for r in evaluate(draws)], {"draws": len(cases), "pole_resamples": 0})
    except (EllipticError, OverflowError):
        # the walk resamples where the batch hit a pole, so later draws may
        # differ from the batch's: only the walk decides
        rng.bit_generator.state = state
    residuals, hits = [], 0
    for n, case in cases:
        mine = own(rng, case) if own else None
        for _ in range(POLE_RETRIES):
            try:
                (residual,) = evaluate([Draw(case, mine, point(rng, n))])
            except PoleError:
                hits += 1
                continue
            residuals.append(float(residual))
            break
        else:
            raise ResampleExhausted(f"{POLE_RETRIES} pole hits in a row")
    return Verdict(residuals, {"draws": len(cases), "pole_resamples": hits})


# ---------------------------------------------------------------------------
# elliptic suite


def _annulus_points(rng, p: float, count: int) -> np.ndarray:
    # count points p <= |z| < 1, drawn as (modulus, angle) pairs in turn
    mod, angle = np.array([(rng.uniform(p, 1.0), rng.uniform()) for _ in range(count)]).T
    return mod * np.exp(2j * np.pi * angle)


@register("theta-symmetry", "elliptic", "theta(p/z) = theta(z) on the fundamental annulus", 1e-10)
def _theta_symmetry(ctx: VerifyContext, rng):
    ep = ctx.ep
    p = ep.nome.p
    z = _annulus_points(rng, p, 200)
    a, b = np.split(theta(ep, np.concatenate([p / z, z])), 2)
    return np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))


@register("theta-quasiperiodicity", "elliptic", "theta(p z) = -theta(z)/z", 1e-10)
def _theta_quasi(ctx: VerifyContext, rng):
    ep = ctx.ep
    z = _annulus_points(rng, ep.nome.p, 200)
    a, th = np.split(theta(ep, np.concatenate([ep.nome.p * z, z])), 2)
    b = -th / z
    return np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))


@register("theta-truncation", "elliptic", "doubling the factor count leaves theta fixed", THETA_TRUNCATION_TOL * 10)
def _theta_truncation(ctx: VerifyContext, rng):
    ep = ctx.ep
    for _ in range(50):
        z = rng.uniform(0.1, 3.0) * np.exp(2j * np.pi * rng.uniform())
        base = theta(ep, z)
        refined = theta(ep, z, min_factors=120)
        yield abs(base - refined) / max(1e-300, abs(refined))


@register("theta-modular", "elliptic", "theta(p^Y) = C(p) p^((Y - Y^2)/2) S(Y), the product against the modular frame", 1e-10)
def _theta_modular(ctx: VerifyContext, rng):
    # two routes that share no arithmetic, over two periods each way in Im Y
    for p in (0.05, 0.35, 0.6, 0.9):
        ep = EllipticParams(Nome(p), ctx.ep.kappa)
        t, period = -ep.nome.log_p, -2.0 * math.pi / ep.nome.log_p
        y = rng.uniform(-1.0, 2.0, 50) + 1j * rng.uniform(-2.0 * period, 2.0 * period, 50)
        product = theta(ep, pow_p(ep, y))
        j, yk, _, mant = _sine(ep.nome.log_p, y)
        log_c = math.log(2.0) + t / 12.0 - math.pi**2 / (3.0 * t)
        power = log_c - t * (y - y * y) / 2.0 - math.pi * period * (j * j - 1.0) / 4.0 - 1j * math.pi * j * yk
        modular = np.exp(power) * mant
        yield from np.abs(product - modular) / np.abs(product)


@register("coeff-boundary", "elliptic", "A(y, 0) = 1 and B(y, 0) = 0 for generic y", 1e-12)
def _coeff_boundary(ctx: VerifyContext, rng):
    def evaluate(draws):
        a, b, _, _ = coefficients(ctx.ep, [y for _, _, (y,) in draws], 0.0)
        return [_worst(*r) for r in zip(np.abs(a - 1.0), np.abs(b))]

    return resample_sweep(rng, [(1, None)] * 50, ctx.point, evaluate)


@register("c-periodicity", "elliptic", "c(x + 1) = c(x) and the odd unit -c(x)/c(-x) has period 1", 1e-10)
def _c_periodicity(ctx: VerifyContext, rng):
    def evaluate(draws):
        x = np.array([x for _, _, (x,) in draws])
        both = np.concatenate([x, x + 1.0])
        _, _, unit, c = coefficients(ctx.ep, u=both, c=both)
        a, b = np.split(np.stack([c, unit]), 2, axis=1)  # at x, at x + 1
        # c and the unit can underflow to 0 at x and x + 1: 0/0 is a NaN that fails
        with np.errstate(invalid="ignore"):
            return [_worst(*r) for r in (np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))).T]

    return resample_sweep(rng, [(1, None)] * 20, ctx.point, evaluate)


# ---------------------------------------------------------------------------
# hecke suite


@register("hecke-relation", "hecke", "(B - q)(B + 1/q) = 0 for the constant braid matrix", 1e-12)
def _hecke_relation(ctx: VerifyContext, rng):
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    return [hs.hecke_residual(hs.braid_matrix(q), q)]


@register("braid-relations", "hecke", "T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1} and distant commutation", 1e-12, min_n=3)
def _braid_relations(ctx: VerifyContext, rng):
    t = hs._t
    for n in ctx.site_counts(3, 5):
        pairs = [([t(i), t(i + 1), t(i)], [t(i + 1), t(i), t(i + 1)]) for i in range(1, n - 1)]
        pairs += [([t(i), t(j)], [t(j), t(i)]) for i in range(1, n) for j in range(i + 2, n)]
        yield from hs.word_pair_residuals(ctx.rep(n), pairs)


@register("affine-relations", "hecke", "zeta T_i = T_{i+1} zeta and zeta^2 T_{n-1} = T_1 zeta^2", 1e-12)
def _affine_relations(ctx: VerifyContext, rng):
    t, zeta = hs._t, hs._ZETA
    for n in ctx.site_counts(2, 5):
        pairs = [([zeta, t(i)], [t(i + 1), zeta]) for i in range(1, n - 1)]
        pairs.append(([zeta, zeta, t(n - 1)], [t(1), zeta, zeta]))
        yield from hs.word_pair_residuals(ctx.rep(n), pairs)


def _spectral_point(rng, n: int) -> tuple[complex, ...]:
    # n spectral parameters e^(u + 2 pi i v), each drawn as u in [-1, 1), then v in [0, 1)
    return tuple(np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform()) for _ in range(n))


@register("qybe", "hecke", "R12(x) R13(xy) R23(y) = R23(y) R13(xy) R12(x)", 1e-10)
def _qybe(ctx: VerifyContext, rng):
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q

    def evaluate(draws):
        # x y is a product of scalars, as each draw alone forms it
        r = np.array([[hs.perk_schultz(z, q) for z in (x, x * y, y)] for _, _, (x, y) in draws])
        return hs.qybe_residual(r[:, 0], r[:, 1], r[:, 2])

    return resample_sweep(rng, [(2, None)] * SAMPLES, _spectral_point, evaluate)


@register("baxterization-closed-form", "hecke", "Baxterized braid matrix equals its closed form", 1e-12)
def _baxterization(ctx: VerifyContext, rng):
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    b = hs.braid_matrix(q)

    def evaluate(draws):
        return [np.max(np.abs(hs.baxterize(b, z, q) - hs.perk_schultz(z, q))) for _, _, (z,) in draws]

    return resample_sweep(rng, [(1, None)] * SAMPLES, _spectral_point, evaluate)


@register("r-unitarity", "hecke", "R21(z)^(-1) = R(1/z)", 1e-10)
def _r_unitarity(ctx: VerifyContext, rng):
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    p_op = permutation_op()
    eye = np.eye(9, dtype=complex)

    def unitarity(z):
        r21 = p_op @ hs.perk_schultz(z, q) @ p_op
        return rel_residual(r21 @ hs.perk_schultz(1.0 / z, q), eye)

    return resample_sweep(rng, [(1, None)] * SAMPLES, _spectral_point, lambda draws: [unitarity(*d.z) for d in draws])


@register("braid-limit-scalar", "hecke", "q R(z) approaches P B as z grows", 1e-7)
def _braid_limit_scalar(ctx: VerifyContext, rng):
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    target = permutation_op() @ hs.braid_matrix(q)
    return [np.max(np.abs(q * hs.perk_schultz(1e8, q) - target))]


@register("y-commutation", "hecke", "the Y_j pairwise commute", 1e-10)
def _y_commutation(ctx: VerifyContext, rng):
    for n in ctx.site_counts(2, 4):
        ys = [hs._family_letters(n, [int(k == j) for k in range(n)]) for j in range(n)]
        pairs = [(ys[a] + ys[b], ys[b] + ys[a]) for a in range(n) for b in range(a + 1, n)]
        yield from hs.word_pair_residuals(ctx.rep(n), pairs)


@register("cross-relations", "hecke", "denominator-cleared cross relations of T_i with Y^lam", 1e-10)
def _cross_relations(ctx: VerifyContext, rng):
    residuals = []
    for n in ctx.site_counts(2, 3):
        rep = ctx.rep(n)
        lams = [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,), (1,) * n]
        residuals += [hs.cross_relation_residual(rep, i, lam) for lam in lams for i in range(1, n)]
    return Verdict(residuals, {"cases": len(residuals)})


@register("ytilde-commutation", "hecke", "the braid-limit family pairwise commutes", 1e-10)
def _ytilde_commutation(ctx: VerifyContext, rng):
    # X^lam X^mu against X^mu X^lam: the scalars p^{-(rho, lam)} of
    # ``y_tilde`` are common to both sides and cancel in the relative residual
    for n in ctx.site_counts(2, 3):
        pairs = []
        for _ in range(4):
            lam = hs._family_letters(n, [int(v) for v in rng.integers(-1, 2, size=n)], opposite=True)
            mu = hs._family_letters(n, [int(v) for v in rng.integers(-1, 2, size=n)], opposite=True)
            pairs.append((lam + mu, mu + lam))
        yield from hs.word_pair_residuals(ctx.rep(n), pairs)


# ---------------------------------------------------------------------------
# decomposition suite


@register("dimension-count", "decomposition", "block dimensions sum to 3^n", 0.5)
def _dimension_count(ctx: VerifyContext, rng):
    bad = [n for n in ctx.site_counts(2, 6) if blk.dimension_count(n) != 3**n]
    return Verdict([1.0 if bad else 0.0], {"failing_n": bad})


@register("eigen-equations", "decomposition", "leading vectors solve the block eigen equations", 1e-10)
def _eigen_equations(ctx: VerifyContext, rng):
    return (eigen for _, _, eigen, _ in ctx.block_residuals)


@register("sign-map", "decomposition", "T_w moves the leading vector to a signed basis vector", 1e-10)
def _sign_map(ctx: VerifyContext, rng):
    return (inclusive for *_, signs in ctx.block_residuals for _, inclusive, _ in signs)


@register("sign-exponent-variants", "decomposition", "the inclusive sign count matches the matrix oracle", 1e-10)
def _sign_variants(ctx: VerifyContext, rng):
    residuals = []
    printed_mismatches = 0
    witness = None
    for n, r, _, signs in ctx.block_residuals:
        for w, inclusive, res_printed in signs:
            residuals.append(inclusive)
            if res_printed > 1.0:
                printed_mismatches += 1
                if witness is None and r[2] == 1:
                    witness = {"n": n, "content": list(r), "coset_rep": list(w)}
    # the strict sign count must also fail on a block with a single odd entry,
    # or the two variants are not told apart where they differ by definition
    return Verdict(
        residuals,
        {
            "printed_variant_mismatches": printed_mismatches,
            "first_witness_with_single_odd_entry": witness,
        },
        holds=witness is not None,
    )


@register("spectrum-glueing", "decomposition", "predicted eigenvalue multiset matches the computed one", 1e-6)
def _spectrum_glueing(ctx: VerifyContext, rng):
    for n in ctx.site_counts(2, 3):
        rep = ctx.rep(n)
        for j in range(1, n + 1):
            yield blk.spectrum_match_residual(rep, j)


@register("genericity", "decomposition", "no spectral collisions or lattice resonances", 0.5)
def _genericity(ctx: VerifyContext, rng):
    report = blk.genericity_report(ctx.ep.nome.p, ctx.ep.kappa, ctx.phi, min(ctx.cfg.n, 4))
    if not report.ok:
        raise NotGeneric([list(v) for v in report.violations[:20]])
    return [0.0]


# ---------------------------------------------------------------------------
# connection suite


@functools.cache
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(all_perms(n))


def _random_perm(rng, n: int) -> tuple[int, ...]:
    perms = _perms(n)
    return perms[rng.integers(len(perms))]


def _blocks(ctx: VerifyContext, n: int) -> list[blk.PrincipalSeriesSpec]:
    return [blk.content_block(ctx.ep, n, r, ctx.phi) for r in content_labels(n)]


@register("connection-cocycle", "connection", "M(w w') factors through the shifted product", 1e-9)
def _connection_cocycle(ctx: VerifyContext, rng):
    # three draws of (w1, w2) and a point per block
    cases = [(n, spec) for n in ctx.site_counts(2, 4) for spec in _blocks(ctx, n) for _ in range(3)]

    def own(rng, spec):
        return _random_perm(rng, spec.n), _random_perm(rng, spec.n)

    def evaluate(draws):
        words = []
        for d in draws:
            w1, w2 = d.own
            words += [
                (d.case, reduced_word(compose(w1, w2)), d.z),
                (d.case, reduced_word(w1), d.z),
                (d.case, reduced_word(w2), act(inverse(w1), d.z)),
            ]
        mats = conn.connection_words(ctx.ep, words)
        return [rel_residual(lhs, m1 @ m2) for lhs, m1, m2 in zip(mats[::3], mats[1::3], mats[2::3])]

    return resample_sweep(rng, cases, sample_point_band, evaluate, own)


@register("connection-braid", "connection", "reduced-word independence of the monodromy matrices", 1e-9, min_n=3)
def _connection_braid(ctx: VerifyContext, rng):
    n = 3
    cases = [(n, spec) for spec in _blocks(ctx, n) for _ in range(10)]

    def evaluate(draws):
        # the letter products s1 s2 s1 and s2 s1 s2
        words = [(d.case, labels, d.z) for d in draws for labels in ((1, 2, 1), (2, 1, 2))]
        mats = conn.connection_words(ctx.ep, words)
        return [rel_residual(lhs, rhs) for lhs, rhs in zip(mats[::2], mats[1::2])]

    return resample_sweep(rng, cases, sample_point_band, evaluate)


@register("connection-unitarity", "connection", "one-letter matrices invert at the swapped point", 1e-9)
def _connection_unitarity(ctx: VerifyContext, rng):
    # s_i at z, then s_i at the swapped point
    cases = [(n, (spec, (i, i))) for n in ctx.site_counts(2, 4) for spec in _blocks(ctx, n) for i in range(1, n)]

    def evaluate(draws):
        mats = conn.connection_words(ctx.ep, [(*d.case, d.z) for d in draws])
        return [rel_residual(m, np.eye(len(m), dtype=complex)) for m in mats]

    return resample_sweep(rng, cases, sample_point_band, evaluate)


def _draw_phi(rng, case) -> tuple[complex, complex, complex]:
    return sample_phi(rng)


@register("rank2-dynamical", "connection", "the two-site tensor monodromy is the dynamical R-matrix", 1e-9)
def _rank2_dynamical(ctx: VerifyContext, rng):
    def evaluate(draws):
        ms = conn.tensor_monodromy_words(ctx.ep, [(d.own, (1,), d.z) for d in draws])
        rs = conn.dyn_r_matrix(ctx.ep, [d.z[0] - d.z[1] for d in draws], [d.own for d in draws])
        return [rel_residual(m.dense(), r) for m, r in zip(ms, rs)]

    return resample_sweep(rng, [(2, None)] * SAMPLES, sample_point_band, evaluate, _draw_phi)


@register("rank3-shifted", "connection", "three-site monodromies act as control-shifted R-matrices", 1e-9, min_n=3)
def _rank3_shifted(ctx: VerifyContext, rng):
    k = ctx.ep.kappa

    def evaluate(draws):
        phi, z = np.array([d.own for d in draws]), np.array([d.z for d in draws])
        words = [(d.own, (i,), d.z) for d in draws for i in (1, 2)]
        ms = conn.tensor_monodromy_words(ctx.ep, words)
        s1 = conn.shifted_r_apply(ctx.ep, 3, 2, z[:, 0] - z[:, 1], phi, conn.PSI_FAMILY, k, control=1)
        s2 = conn.shifted_r_apply(ctx.ep, 3, 1, z[:, 1] - z[:, 2], phi, conn.PSI_FAMILY, -k, control=3)
        return [
            _worst(rel_residual(m1, a), rel_residual(m2, b)) for m1, m2, a, b in zip(ms[::2], ms[1::2], s1, s2)
        ]

    return resample_sweep(rng, [(3, None)] * SAMPLES, sample_point_band, evaluate, _draw_phi)


@register("monodromy-routes", "connection", "cocycle route equals the block-scatter route", 1e-9)
def _monodromy_routes(ctx: VerifyContext, rng):
    cases = [(n, n) for n in ctx.site_counts(2, 3) for _ in range(4)]

    def evaluate(draws):
        words = [(ctx.phi, reduced_word(d.own), d.z) for d in draws]
        via_cocycle = conn.tensor_monodromy_words(ctx.ep, words)
        via_blocks = conn.tensor_monodromy_from_blocks_words(ctx.ep, words)
        return [rel_residual(a, b) for a, b in zip(via_cocycle, via_blocks)]

    return resample_sweep(rng, cases, sample_point_band, evaluate, _random_perm)


@register("gl2-fixture", "connection", "the 4x4 elliptic fixture: unitarity, block match, braid form", 1e-9)
def _gl2_fixture(ctx: VerifyContext, rng):
    # the fixture is the even restriction of the 9x9 R-matrix at
    # phi = (y/2, -y/2, 0), where phi_1 - phi_2 = y exactly
    ep = ctx.ep
    even = [tensor_index((a, b)) for a in (1, 2) for b in (1, 2)]
    eye4 = np.eye(4, dtype=complex)

    def evaluate(draws):
        x, xp, y = (np.array(v) for v in zip(*(d.z for d in draws)))
        phi = np.stack([y / 2.0, -y / 2.0, np.zeros_like(y)], axis=-1)
        # R(x) and R(-x) of every draw from one stacked call
        r = conn.dyn_r_matrix(ep, np.stack([x, -x], axis=-1), phi[:, None, :])[..., even, :][..., even]
        unitarity = [rel_residual(m @ m_back, eye4) for m, m_back in r]
        dybe = conn.dybe_residual(ep, x, xp, phi, conn.XI_FAMILY, WEIGHTS[:2])
        # middle 2x2 block against the rank-2 empty-index connection matrix
        words = [
            (blk.PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=(v / 2.0, -v / 2.0)), (1,), (u, 0.0))
            for u, v in zip(x, y)
        ]
        cms = conn.connection_words(ep, words)
        blocks = (rel_residual(cm, m[1:3, 1:3]) for cm, (m, _) in zip(cms, r))
        return [_worst(*laws) for laws in zip(unitarity, dybe, blocks)]

    return resample_sweep(rng, [(3, None)] * SAMPLES, lambda r, _: (*ctx.point(r, 2), sample_dynamical(r)), evaluate)


# ---------------------------------------------------------------------------
# dybe suite


def _phi_sweep(ctx: VerifyContext, rng, count: int, n: int, residuals, point=None) -> Verdict:
    # count draws of phi and an n-coordinate point; residuals(phi, *coordinates) takes their stacks
    def evaluate(draws):
        return residuals(*(np.array(v) for v in zip(*((d.own, *d.z) for d in draws))))

    return resample_sweep(rng, [(n, None)] * count, point or ctx.point, evaluate, _draw_phi)


def _dybe_sweep(ctx: VerifyContext, rng, family, weights=WEIGHTS) -> Verdict:
    return _phi_sweep(ctx, rng, SAMPLES, 2, lambda phi, x, y: conn.dybe_residual(ctx.ep, x, y, phi, family, weights))


@register("dybe-psi", "dybe", "braid-form dynamical Yang-Baxter equation, back-shifted family")
def _dybe_psi(ctx: VerifyContext, rng):
    return _dybe_sweep(ctx, rng, conn.PSI_FAMILY)


@register("dybe-phi", "dybe", "braid-form dynamical Yang-Baxter equation, shifted third family")
def _dybe_phi(ctx: VerifyContext, rng):
    return _dybe_sweep(ctx, rng, conn.PHI_FAMILY)


@register("dybe-xi", "dybe", "braid-form dynamical Yang-Baxter equation, weight family")
def _dybe_xi(ctx: VerifyContext, rng):
    return _dybe_sweep(ctx, rng, conn.XI_FAMILY)


@register("dybe-negative-control", "dybe", "perturbed shifts must break the equation", 1e-3)
def _dybe_negative(ctx: VerifyContext, rng):
    # the back-shifted family with negated weights, i.e. with a replaced by -a
    negated = tuple(tuple(-v for v in w) for w in WEIGHTS)
    return _dybe_sweep(ctx, rng, conn.PSI_FAMILY, negated)


@register("dyn-unitarity", "dybe", "R(x) R(-x) = identity")
def _dyn_unitarity(ctx: VerifyContext, rng):
    eye = np.eye(9, dtype=complex)

    def residuals(phi, x):
        # R(x) and R(-x) of every draw from one stacked call
        r = conn.dyn_r_matrix(ctx.ep, np.stack([x, -x], axis=-1), phi[:, None, :])
        return [rel_residual(r_x @ r_back, eye) for r_x, r_back in r]

    return _phi_sweep(ctx, rng, 30, 1, residuals)


@register("felder-form", "dybe", "permuted-form equation with weight shifts")
def _felder_form(ctx: VerifyContext, rng):
    return _phi_sweep(ctx, rng, SAMPLES, 2, lambda phi, x, y: conn.felder_residual(ctx.ep, x, y, phi))


@register("felder-negative-control", "dybe", "swapping two weight vectors must break the equation", 1e-3)
def _felder_negative(ctx: VerifyContext, rng):
    swapped = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
    return _phi_sweep(ctx, rng, 5, 2, lambda phi, x, y: conn.felder_residual(ctx.ep, x, y, phi, weights=swapped))


#: the entries (out, in) of a two-site matrix whose pairs differ in content,
#: rows and columns in basis order
_OFF_CONTENT = np.array([[sorted(o) != sorted(i) for i in multi_indices(2)] for o in multi_indices(2)])


@register("weight-conservation", "dybe", "R-matrix entries vanish off the content-preserving pattern", 1e-30)
def _weight_conservation(ctx: VerifyContext, rng):
    def residuals(phi, x):
        # R of every draw from one stacked call
        return [_worst(*off) for off in np.abs(conn.dyn_r_matrix(ctx.ep, x, phi)[:, _OFF_CONTENT])]

    return _phi_sweep(ctx, rng, 5, 1, residuals)


@register("dynamical-translation", "dybe", "shifting all dynamical parameters together changes nothing", 1e-12)
def _dynamical_translation(ctx: VerifyContext, rng):
    def point(rng, n):
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), *ctx.point(rng, 1)

    def residuals(phi, t, x):
        # R at phi and at the shifted phi of every draw from one stacked call
        r = conn.dyn_r_matrix(ctx.ep, x[:, None], np.stack([phi, phi + t[:, None]], axis=1))
        return [rel_residual(r_phi, r_shifted) for r_phi, r_shifted in r]

    return _phi_sweep(ctx, rng, 5, 2, residuals, point)


# ---------------------------------------------------------------------------
# qkz suite


@register("translation-words", "qkz", "translation words act as unit shifts on points", 0.5)
def _translation_words(ctx: VerifyContext, rng):
    bad = []
    for n in ctx.site_counts(2, ctx.cfg.n):
        for j in range(1, n + 1):
            if qkz.translation_defect(qkz.translation_word(n, j), j) != 0.0:
                bad.append((n, j))
    return Verdict([1.0 if bad else 0.0], {"failures": bad})


def _cocycle_words(n: int) -> tuple[qkz.AffineWord, qkz.AffineWord]:
    # two words for tau(e_1): the reduced one of ``translation_word`` (n
    # letters) and the conjugate of tau(e_n) = s_{n-1} .. s_1 xi by the cycle
    # s_1 .. s_{n-1} (3n - 2 letters: free reduction cancels only xi xi^{-1})
    cycle = qkz.affine_word(n, [qkz.s_letter(i) for i in range(1, n)])
    return qkz.translation_word(n, 1), cycle * qkz.translation_word(n, n) * cycle.inverse()


@register("transport-cocycle", "qkz", "transport depends only on the group element", 1e-10)
def _transport_cocycle(ctx: VerifyContext, rng):
    def evaluate(draws):
        # the draws of each site count in one call, in the order of the cases
        words = {n: [(w, d.z) for d in draws if len(d.z) == n for w in d.case] for n in ctx.site_counts(2, 4)}
        return [r for n, ws in words.items() if ws for r in qkz.transport_pair_residuals(ctx.rep(n), ws)]

    cases = [(n, words) for n in ctx.site_counts(2, 4) for words in [_cocycle_words(n)] * 3]
    return resample_sweep(rng, cases, ctx.point, evaluate)


@register("qkz-flatness", "qkz", "translation transports commute after the cocycle shift")
def _qkz_flatness(ctx: VerifyContext, rng):
    def flatness(z):
        # both sides of every pair (i, j) of one draw from one transport batch
        n = len(z)
        words = [side for i in range(1, n + 1) for j in range(i + 1, n + 1) for side in qkz.flatness_words(n, i, j, z)]
        return _worst(*qkz.transport_pair_residuals(ctx.rep(n), words))

    # one transport batch per draw: one batch per site count takes the check
    # from 19 to 13 ms, but raises the battery's peak RSS from 40.4 to 43.9 MB (+8.5%)
    cases = [(n, None) for n in ctx.site_counts(2, 4) for _ in range(10)]
    return resample_sweep(rng, cases, ctx.point, lambda draws: [flatness(d.z) for d in draws])


@register("qkz-flatness-negative-control", "qkz", "dropping the cocycle shift must break flatness", 1e-3)
def _qkz_flatness_negative(ctx: VerifyContext, rng):
    n = 2
    w1 = qkz.translation_word(n, 1)
    w2 = qkz.translation_word(n, 2)

    def evaluate(draws):
        # wrong shift: evaluate the second factor at z instead of the moved point
        mats = qkz.transport_words(ctx.rep(n), [(w, d.z) for d in draws for w in (w1, w2)])
        return [rel_residual(m1 @ m2, m2 @ m1) for m1, m2 in zip(mats[::2], mats[1::2])]

    return resample_sweep(rng, [(n, None)] * 5, ctx.point, evaluate)


_BRAID_LIMIT_TOL = 1e-10


@register("braid-limit", "qkz", "translation transports converge to the braid-limit operators", _BRAID_LIMIT_TOL)
def _braid_limit(ctx: VerifyContext, rng):
    residuals, slope_errs = [], []
    log_p = ctx.ep.nome.log_p
    # the transport approaches its limit like p^depth: evaluate deep enough
    # that p^depth is 1e-3 of the tolerance, and never shallower than 40
    depth = max(40, math.ceil(math.log(1e-3 * _BRAID_LIMIT_TOL) / log_p))
    for n in ctx.site_counts(2, 3):
        rep = ctx.rep(n)
        lams = [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,)]
        for lam in lams:
            residuals.append(qkz.braid_limit_residual(rep, lam, float(depth)))
            # a residual of zero has no logarithm: the slope is NaN and the check fails
            slope_errs.append(abs(qkz.braid_limit_slope(rep, lam) - log_p) / abs(log_p))
    # the decay rate must match log p, not only the deep residual
    slope_err = _worst(*slope_errs)
    return Verdict(residuals, {"depth": depth, "slope_relative_error": slope_err}, holds=slope_err < 0.2)


# ---------------------------------------------------------------------------
# runner

#: failures of an evaluation, not of an identity: the check is inconclusive
_INCONCLUSIVE = (ResampleExhausted, NotGeneric, EllipticError, OverflowError, FloatingPointError)


def _inconclusive(check_id: str, suite: str, law: str, **detail) -> CheckResult:
    return CheckResult(
        check_id, suite, law, residual=None, tol=None, passed=False, status="inconclusive", detail=detail
    )


def _run_check(ctx: VerifyContext, c: _Check) -> CheckResult:
    if ctx.cfg.n < c.min_n:
        reason = {"reason": f"needs n >= {c.min_n}"}
        return CheckResult(
            c.check_id, c.suite, c.law, residual=None, tol=None, passed=True, status="skipped", detail=reason
        )
    try:
        # an overflow is inconclusive whatever the warning filters; a NaN
        # from finite arithmetic still reaches the residual and fails
        with np.errstate(over="raise"):
            out = c.fn(ctx, ctx.rng(c.check_id))
            verdict = out if isinstance(out, Verdict) else Verdict(out)
            # a generator body computes as it is consumed, so inside the try
            residual = _worst(*verdict.residuals)
    except _INCONCLUSIVE as exc:
        extra = getattr(exc, "detail", {})
        return _inconclusive(c.check_id, c.suite, c.law, error=f"{type(exc).__name__}: {exc}", **extra)
    tol = ctx.cfg.residual_tol if c.tol is None else c.tol
    within = residual > tol if "negative-control" in c.check_id else residual < tol
    return CheckResult(
        c.check_id, c.suite, c.law, residual, tol, passed=within and verdict.holds, detail=verdict.detail or {}
    )


def run_suite(suite: str, cfg: RunConfig) -> Report:
    names = SUITES if suite == "all" else (suite,)
    for s in names:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; choose from {SUITES + ('all',)}")
    results: list[CheckResult] = []
    timings: dict[str, float] = {}
    try:
        ctx = VerifyContext(cfg)
    except ValueError as exc:
        report = blk.genericity_report(cfg.p, complex(cfg.kappa), cfg.resolved_phi(), min(cfg.n, 4))
        law = "parameters admit a nondegenerate evaluation"
        violations = [list(v) for v in report.violations[:20]]
        results.append(_inconclusive("parameter-genericity", "config", law, error=str(exc), violations=violations))
        return Report(config=cfg, results=results, timings=timings)
    for c in _REGISTRY:
        if c.suite not in names:
            continue
        t0 = time.perf_counter()
        results.append(_run_check(ctx, c))
        timings[c.check_id] = time.perf_counter() - t0
    return Report(config=cfg, results=results, timings=timings)
