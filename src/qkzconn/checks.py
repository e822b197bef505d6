"""Verification suites: every algebraic identity as a residual check.

Each check evaluates one family of identities at deterministic random
samples (the generator is derived from the run seed and the check id, so a
check's samples do not depend on which other checks run) and reports the
worst residual against its tolerance.  Checks whose preconditions cannot be
met (degenerate parameters, repeated pole hits) report ``inconclusive``
rather than failure.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import blocks as blk
from . import connection as conn
from . import heckespin as hs
from . import qkz
from .elliptic import (
    EllipticError,
    EllipticParams,
    PoleError,
    coeff_a,
    coeff_b,
    c_func,
    theta,
)
from .params import (
    RunConfig,
    sample_dynamical,
    sample_phi,
    sample_point,
    sample_point_band,
    sample_scalar,
)
from .symgroup import (
    all_perms,
    act,
    compose,
    content_labels,
    content_stabiliser,
    inverse,
    min_coset_reps,
    simple,
)
from .tensorspace import (
    multi_indices,
    permutation_op,
    rel_residual,
    tensor_index,
)

__all__ = ["CheckResult", "Report", "SUITES", "run_suite", "list_checks"]

SUITES = ("elliptic", "hecke", "decomposition", "connection", "dybe", "qkz")


class ResampleExhausted(Exception):
    pass


@dataclass
class CheckResult:
    check: str
    suite: str
    law: str
    residual: float | None
    tol: float | None
    passed: bool
    status: str = "ran"  # ran | skipped | inconclusive
    params: dict = field(default_factory=dict)
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


_REGISTRY: list[tuple[str, str, str, object]] = []


def register(check_id: str, suite: str, law: str):
    def wrap(fn):
        _REGISTRY.append((check_id, suite, law, fn))
        return fn

    return wrap


def list_checks(suite: str | None = None) -> list[tuple[str, str, str]]:
    return [(cid, s, law) for cid, s, law, _ in _REGISTRY if suite in (None, s)]


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

    def site_counts(self, lo: int, hi: int) -> list[int]:
        return [n for n in range(lo, hi + 1) if n <= self.cfg.n]

    def eval_resampling(self, rng, n: int, fn, retries: int = 5, sampler=None):
        for _ in range(retries):
            if sampler is None:
                z = sample_point(rng, n, self.ep.nome)
            else:
                z = sampler(rng, n)
            try:
                return fn(z)
            except PoleError:
                continue
        raise ResampleExhausted(f"{retries} pole hits in a row")

    def eval_band(self, rng, n: int, fn, retries: int = 5):
        return self.eval_resampling(rng, n, fn, retries=retries, sampler=sample_point_band)


def _worst(*residuals: float) -> float:
    """The largest residual, or NaN if any residual is NaN or inf.

    Plain ``max`` keeps a NaN only in first position, so ``max(worst, r)``
    would drop a NaN residual and pass its check.  NaN fails every
    comparison, so a non-finite residual fails both an ordinary check
    (residual < tol) and a negative control (residual > tol).
    """
    vals = [float(r) for r in residuals]
    return max(vals) if all(math.isfinite(v) for v in vals) else math.nan


#: failures of an evaluation, not of an identity: the check is inconclusive
_INCONCLUSIVE = (ResampleExhausted, EllipticError, OverflowError)


def _inconclusive(check_id: str, suite: str, law: str, **detail) -> CheckResult:
    return CheckResult(
        check=check_id,
        suite=suite,
        law=law,
        residual=None,
        tol=None,
        passed=False,
        status="inconclusive",
        detail=detail,
    )


def _result(check_id, suite, law, residual, tol, **kw) -> CheckResult:
    return CheckResult(
        check=check_id,
        suite=suite,
        law=law,
        residual=None if residual is None else float(residual),
        tol=tol,
        passed=(residual is not None and residual < tol),
        **kw,
    )


# ---------------------------------------------------------------------------
# elliptic suite


@register("theta-symmetry", "elliptic", "theta(p/z) = theta(z) on the fundamental annulus")
def _theta_symmetry(ctx: VerifyContext):
    rng = ctx.rng("theta-symmetry")
    ep = ctx.ep
    p = ep.nome.p
    worst = 0.0
    for _ in range(200):
        mod = rng.uniform(p, 1.0)
        z = mod * np.exp(2j * np.pi * rng.uniform())
        a, b = theta(ep, p / z), theta(ep, z)
        worst = _worst(worst, abs(a - b) / max(abs(a), abs(b)))
    return _result("theta-symmetry", "elliptic", "theta(p/z) = theta(z)", worst, 1e-10)


@register("theta-quasiperiodicity", "elliptic", "theta(p z) = -theta(z)/z")
def _theta_quasi(ctx: VerifyContext):
    rng = ctx.rng("theta-quasiperiodicity")
    ep = ctx.ep
    worst = 0.0
    for _ in range(200):
        mod = rng.uniform(ep.nome.p, 1.0)
        z = mod * np.exp(2j * np.pi * rng.uniform())
        a, b = theta(ep, ep.nome.p * z), -theta(ep, z) / z
        worst = _worst(worst, abs(a - b) / max(abs(a), abs(b)))
    return _result("theta-quasiperiodicity", "elliptic", "theta(p z) = -theta(z)/z", worst, 1e-10)


@register("theta-truncation", "elliptic", "doubling the factor count leaves theta fixed")
def _theta_truncation(ctx: VerifyContext):
    rng = ctx.rng("theta-truncation")
    ep = ctx.ep
    worst = 0.0
    for _ in range(50):
        z = rng.uniform(0.1, 3.0) * np.exp(2j * np.pi * rng.uniform())
        base = theta(ep, z)
        refined = theta(ep, z, min_factors=120)
        worst = _worst(worst, abs(base - refined) / max(1e-300, abs(refined)))
    return _result(
        "theta-truncation",
        "elliptic",
        "doubling the factor count leaves theta fixed",
        worst,
        ctx.ep.theta_truncation_tol * 10,
    )


@register("coeff-boundary", "elliptic", "A(y, 0) = 1 and B(y, 0) = 0 for generic y")
def _coeff_boundary(ctx: VerifyContext):
    rng = ctx.rng("coeff-boundary")
    ep = ctx.ep
    worst = 0.0
    for _ in range(50):
        y = sample_scalar(rng, ep.nome)
        worst = _worst(worst, abs(coeff_a(ep, y, 0.0) - 1.0), abs(coeff_b(ep, y, 0.0)))
    return _result("coeff-boundary", "elliptic", "A(y,0) = 1 and B(y,0) = 0", worst, 1e-12)


@register("c-ratio-inverse", "elliptic", "the odd diagonal unit and its reverse multiply to 1")
def _c_ratio(ctx: VerifyContext):
    rng = ctx.rng("c-ratio-inverse")
    ep = ctx.ep
    worst = 0.0
    for _ in range(20):
        x = sample_scalar(rng, ep.nome)
        u = -c_func(ep, x) / c_func(ep, -x)
        v = -c_func(ep, -x) / c_func(ep, x)
        worst = _worst(worst, abs(u * v - 1.0))
    return _result("c-ratio-inverse", "elliptic", "(-c(x)/c(-x)) * (-c(-x)/c(x)) = 1", worst, 1e-10)


# ---------------------------------------------------------------------------
# hecke suite


@register("hecke-relation", "hecke", "(B - q)(B + 1/q) = 0 for the constant braid matrix")
def _hecke_relation(ctx: VerifyContext):
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    b = hs.braid_matrix(q)
    t0 = time.perf_counter()
    res = hs.hecke_residual(b, q)
    dt = time.perf_counter() - t0
    return _result(
        "hecke-relation", "hecke", "(B - q)(B + 1/q) = 0", res, 1e-12, detail={"seconds": dt}
    )


@register("braid-relations", "hecke", "T_i T_{i+1} T_i = T_{i+1} T_i T_{i+1} and distant commutation")
def _braid_relations(ctx: VerifyContext):
    worst = 0.0
    for n in ctx.site_counts(3, 5):
        rep = ctx.rep(n)
        for i in range(1, n - 1):
            worst = _worst(
                worst,
                rel_residual(
                    rep.t(i) @ rep.t(i + 1) @ rep.t(i),
                    rep.t(i + 1) @ rep.t(i) @ rep.t(i + 1),
                ),
            )
        for i in range(1, n):
            for j in range(i + 2, n):
                worst = _worst(worst, rel_residual(rep.t(i) @ rep.t(j), rep.t(j) @ rep.t(i)))
    return _result(
        "braid-relations", "hecke", "braid and distant-commutation relations", worst, 1e-12
    )


@register("affine-relations", "hecke", "zeta T_i = T_{i+1} zeta and zeta^2 T_{n-1} = T_1 zeta^2")
def _affine_relations(ctx: VerifyContext):
    worst = 0.0
    for n in ctx.site_counts(2, 5):
        rep = ctx.rep(n)
        for i in range(1, n - 1):
            worst = _worst(worst, rel_residual(rep.zeta @ rep.t(i), rep.t(i + 1) @ rep.zeta))
        z2 = rep.zeta @ rep.zeta
        worst = _worst(worst, rel_residual(z2 @ rep.t(n - 1), rep.t(1) @ z2))
    return _result("affine-relations", "hecke", "rotation relations of the generators", worst, 1e-12)


@register("qybe", "hecke", "R12(x) R13(xy) R23(y) = R23(y) R13(xy) R12(x)")
def _qybe(ctx: VerifyContext):
    rng = ctx.rng("qybe")
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    worst = 0.0
    for _ in range(ctx.cfg.samples):
        x = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
        y = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
        worst = _worst(worst, hs.qybe_residual(lambda z: hs.perk_schultz(z, q), x, y))
    return _result("qybe", "hecke", "quantum Yang-Baxter equation", worst, 1e-10)


@register("baxterization-closed-form", "hecke", "Baxterized braid matrix equals its closed form")
def _baxterization(ctx: VerifyContext):
    rng = ctx.rng("baxterization-closed-form")
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    b = hs.braid_matrix(q)
    worst = 0.0
    for _ in range(ctx.cfg.samples):
        z = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
        worst = _worst(worst, float(np.max(np.abs(hs.baxterize(b, z, q) - hs.perk_schultz(z, q)))))
    return _result(
        "baxterization-closed-form", "hecke", "Baxterization equals the closed form", worst, 1e-12
    )


@register("r-unitarity", "hecke", "R21(z)^(-1) = R(1/z)")
def _r_unitarity(ctx: VerifyContext):
    rng = ctx.rng("r-unitarity")
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    p_op = permutation_op()
    eye = np.eye(9, dtype=complex)
    worst = 0.0
    for _ in range(ctx.cfg.samples):
        z = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
        r21 = p_op @ hs.perk_schultz(z, q) @ p_op
        worst = _worst(worst, rel_residual(r21 @ hs.perk_schultz(1.0 / z, q), eye))
    return _result("r-unitarity", "hecke", "flipped matrix inverts at the inverse point", worst, 1e-10)


@register("braid-limit-scalar", "hecke", "q R(z) approaches P B as z grows")
def _braid_limit_scalar(ctx: VerifyContext):
    q = hs.HeckeParams(elliptic=ctx.ep, n=2).q
    b = hs.braid_matrix(q)
    target = permutation_op() @ b
    got = q * hs.perk_schultz(1e8, q)
    res = float(np.max(np.abs(got - target)))
    return _result("braid-limit-scalar", "hecke", "q R(z) -> P B as z -> infinity", res, 1e-7)


@register("y-commutation", "hecke", "the Y_j pairwise commute")
def _y_commutation(ctx: VerifyContext):
    worst = 0.0
    for n in ctx.site_counts(2, 4):
        rep = ctx.rep(n)
        ys = hs.y_operators(rep)
        for a in range(n):
            for b in range(a + 1, n):
                worst = _worst(worst, rel_residual(ys[a] @ ys[b], ys[b] @ ys[a]))
    return _result("y-commutation", "hecke", "[Y_i, Y_j] = 0", worst, 1e-10)


@register("cross-relations", "hecke", "denominator-cleared cross relations of T_i with Y^lam")
def _cross_relations(ctx: VerifyContext):
    worst = 0.0
    cases = []
    for n in ctx.site_counts(2, 3):
        rep = ctx.rep(n)
        lams = [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (1,), (1,) * n]
        for lam in lams:
            for i in range(1, n):
                cases.append((n, i, lam))
                worst = _worst(worst, hs.cross_relation_residual(rep, i, lam))
    return _result(
        "cross-relations",
        "hecke",
        "commutation of T_i past monomials in the Y family",
        worst,
        1e-10,
        detail={"cases": len(cases)},
    )


@register("ytilde-commutation", "hecke", "the braid-limit family pairwise commutes")
def _ytilde_commutation(ctx: VerifyContext):
    rng = ctx.rng("ytilde-commutation")
    worst = 0.0
    for n in ctx.site_counts(2, 3):
        rep = ctx.rep(n)
        for _ in range(4):
            lam = tuple(int(v) for v in rng.integers(-1, 2, size=n))
            mu = tuple(int(v) for v in rng.integers(-1, 2, size=n))
            a = hs.y_tilde(rep, lam)
            b = hs.y_tilde(rep, mu)
            worst = _worst(worst, rel_residual(a @ b, b @ a))
    return _result("ytilde-commutation", "hecke", "braid-limit operators commute", worst, 1e-10)


# ---------------------------------------------------------------------------
# decomposition suite


@register("dimension-count", "decomposition", "block dimensions sum to 3^n")
def _dimension_count(ctx: VerifyContext):
    bad = [n for n in ctx.site_counts(2, 6) if blk.dimension_count(n) != 3**n]
    return _result(
        "dimension-count",
        "decomposition",
        "sum over blocks of coset counts equals 3^n",
        0.0 if not bad else 1.0,
        0.5,
        detail={"failing_n": bad},
    )


@register("eigen-equations", "decomposition", "leading vectors solve the block eigen equations")
def _eigen_equations(ctx: VerifyContext):
    worst = 0.0
    for n in ctx.site_counts(2, 4):
        rep = ctx.rep(n)
        y_ops = hs.y_operators(rep)
        for r in content_labels(n):
            worst = _worst(worst, blk.eigen_residual(rep, r, y_ops))
    return _result(
        "eigen-equations", "decomposition", "joint eigenvalue equations per block", worst, 1e-10
    )


@register("sign-map", "decomposition", "T_w moves the leading vector to a signed basis vector")
def _sign_map(ctx: VerifyContext):
    worst = 0.0
    for n in ctx.site_counts(2, 4):
        rep = ctx.rep(n)
        for r in content_labels(n):
            for w in min_coset_reps(n, content_stabiliser(n, r)):
                worst = _worst(worst, blk.sign_residual(rep, r, w))
    return _result(
        "sign-map", "decomposition", "signed basis map of the block isomorphism", worst, 1e-10
    )


@register("sign-exponent-variants", "decomposition", "the inclusive sign count matches the matrix oracle")
def _sign_variants(ctx: VerifyContext):
    worst_inclusive = 0.0
    printed_mismatches = 0
    witness = None
    for n in ctx.site_counts(2, 4):
        rep = ctx.rep(n)
        for r in content_labels(n):
            for w in min_coset_reps(n, content_stabiliser(n, r)):
                worst_inclusive = _worst(worst_inclusive, blk.sign_residual(rep, r, w, inclusive=True))
                res_printed = blk.sign_residual(rep, r, w, inclusive=False)
                if res_printed > 1.0:
                    printed_mismatches += 1
                    if witness is None and r[2] == 1:
                        witness = {"n": n, "content": list(r), "coset_rep": list(w)}
    passed = worst_inclusive < 1e-10 and printed_mismatches > 0
    return CheckResult(
        check="sign-exponent-variants",
        suite="decomposition",
        law="inclusive sign count matches T_w signs; the strict variant does not",
        residual=worst_inclusive,
        tol=1e-10,
        passed=passed,
        detail={
            "printed_variant_mismatches": printed_mismatches,
            "first_witness_with_single_odd_entry": witness,
        },
    )


@register("spectrum-glueing", "decomposition", "predicted eigenvalue multiset matches the computed one")
def _spectrum_glueing(ctx: VerifyContext):
    worst = 0.0
    for n in ctx.site_counts(2, 3):
        rep = ctx.rep(n)
        for j in range(1, n + 1):
            worst = _worst(worst, blk.spectrum_match_residual(rep, j))
    return _result(
        "spectrum-glueing",
        "decomposition",
        "closed-form spectrum of the braid-limit family",
        worst,
        1e-6,
    )


@register("genericity", "decomposition", "no spectral collisions or lattice resonances")
def _genericity(ctx: VerifyContext):
    report = blk.genericity_report(ctx.ep.nome.p, ctx.ep.kappa, ctx.phi, min(ctx.cfg.n, 4))
    if report.ok:
        return _result("genericity", "decomposition", "nonresonant spectral labels", 0.0, 0.5)
    return _inconclusive(
        "genericity",
        "decomposition",
        "nonresonant spectral labels",
        violations=[list(v) for v in report.violations[:20]],
    )


# ---------------------------------------------------------------------------
# connection suite


def _random_coset_pair(rng, reps):
    return reps[rng.integers(len(reps))], reps[rng.integers(len(reps))]


@register("connection-cocycle", "connection", "M(w w') factors through the shifted product")
def _connection_cocycle(ctx: VerifyContext):
    rng = ctx.rng("connection-cocycle")
    worst = 0.0
    for n in ctx.site_counts(2, 4):
        perms = list(all_perms(n))
        for r in content_labels(n):
            spec = blk.content_block(ctx.ep, n, r, ctx.phi)
            for _ in range(3):
                w1 = perms[rng.integers(len(perms))]
                w2 = perms[rng.integers(len(perms))]

                def residual(z):
                    lhs = conn.connection_word(ctx.ep, spec, compose(w1, w2), z).entries
                    shifted = act(inverse(w1), z)
                    rhs = (
                        conn.connection_word(ctx.ep, spec, w1, z).entries
                        @ conn.connection_word(ctx.ep, spec, w2, shifted).entries
                    )
                    return rel_residual(lhs, rhs)

                worst = _worst(worst, ctx.eval_band(rng, n, residual))
    return _result("connection-cocycle", "connection", "cocycle factorization", worst, 1e-9)


@register("connection-braid", "connection", "reduced-word independence of the monodromy matrices")
def _connection_braid(ctx: VerifyContext):
    rng = ctx.rng("connection-braid")
    worst = 0.0
    count = 10 if ctx.cfg.samples >= 10 else ctx.cfg.samples
    if 3 <= ctx.cfg.n:
        n = 3
        w121 = compose(simple(n, 1), compose(simple(n, 2), simple(n, 1)))
        for r in content_labels(n):
            spec = blk.content_block(ctx.ep, n, r, ctx.phi)
            for _ in range(count):

                def residual(z):
                    lhs = conn.connection_simple(ctx.ep, spec, 1, z).entries
                    lhs = lhs @ conn.connection_simple(ctx.ep, spec, 2, act(simple(n, 1), z)).entries
                    lhs = lhs @ conn.connection_simple(
                        ctx.ep, spec, 1, act(compose(simple(n, 2), simple(n, 1)), z)
                    ).entries
                    rhs = conn.connection_simple(ctx.ep, spec, 2, z).entries
                    rhs = rhs @ conn.connection_simple(ctx.ep, spec, 1, act(simple(n, 2), z)).entries
                    rhs = rhs @ conn.connection_simple(
                        ctx.ep, spec, 2, act(compose(simple(n, 1), simple(n, 2)), z)
                    ).entries
                    both = rel_residual(lhs, rhs)
                    via_word = rel_residual(lhs, conn.connection_word(ctx.ep, spec, w121, z).entries)
                    return _worst(both, via_word)

                worst = _worst(worst, ctx.eval_band(rng, n, residual))
    else:
        return CheckResult(
            check="connection-braid",
            suite="connection",
            law="reduced-word independence",
            residual=None,
            tol=None,
            passed=True,
            status="skipped",
            detail={"reason": "needs n >= 3"},
        )
    return _result("connection-braid", "connection", "reduced-word independence", worst, 1e-9)


@register("connection-unitarity", "connection", "one-letter matrices invert at the swapped point")
def _connection_unitarity(ctx: VerifyContext):
    rng = ctx.rng("connection-unitarity")
    worst = 0.0
    for n in ctx.site_counts(2, 4):
        for r in content_labels(n):
            spec = blk.content_block(ctx.ep, n, r, ctx.phi)
            eye = np.eye(len(min_coset_reps(n, spec.index_set)), dtype=complex)
            for i in range(1, n):
                def residual(z):
                    m1 = conn.connection_simple(ctx.ep, spec, i, z).entries
                    m2 = conn.connection_simple(ctx.ep, spec, i, act(simple(n, i), z)).entries
                    return rel_residual(m1 @ m2, eye)

                worst = _worst(worst, ctx.eval_band(rng, n, residual))
    return _result("connection-unitarity", "connection", "unitarity of one-letter matrices", worst, 1e-9)


@register("rank2-dynamical", "connection", "the two-site tensor monodromy is the dynamical R-matrix")
def _rank2_dynamical(ctx: VerifyContext):
    rng = ctx.rng("rank2-dynamical")
    worst = 0.0
    for _ in range(ctx.cfg.samples):
        phi = sample_phi(rng)

        def residual(z):
            m = conn.tensor_monodromy_simple(ctx.ep, 2, phi, 1, z)
            r = conn.dyn_r_matrix(ctx.ep, z[0] - z[1], phi)
            return rel_residual(m, r)

        worst = _worst(worst, ctx.eval_band(rng, 2, residual))
    return _result("rank2-dynamical", "connection", "two-site monodromy equals the R-matrix", worst, 1e-9)


@register("rank3-shifted", "connection", "three-site monodromies act as control-shifted R-matrices")
def _rank3_shifted(ctx: VerifyContext):
    rng = ctx.rng("rank3-shifted")
    if ctx.cfg.n < 3:
        return CheckResult(
            check="rank3-shifted",
            suite="connection",
            law="control-shifted local action",
            residual=None,
            tol=None,
            passed=True,
            status="skipped",
            detail={"reason": "needs n >= 3"},
        )
    k = ctx.ep.kappa
    worst = 0.0
    for _ in range(ctx.cfg.samples):
        phi = sample_phi(rng)

        def residual(z):
            m1 = conn.tensor_monodromy_simple(ctx.ep, 3, phi, 1, z)
            s1 = conn.shifted_r_apply(ctx.ep, 3, 2, z[0] - z[1], phi, conn.PSI_FAMILY, k, control=1)
            m2 = conn.tensor_monodromy_simple(ctx.ep, 3, phi, 2, z)
            s2 = conn.shifted_r_apply(ctx.ep, 3, 1, z[1] - z[2], phi, conn.PSI_FAMILY, -k, control=3)
            return _worst(rel_residual(m1, s1), rel_residual(m2, s2))

        worst = _worst(worst, ctx.eval_band(rng, 3, residual))
    return _result("rank3-shifted", "connection", "control-shifted local action", worst, 1e-9)


@register("monodromy-routes", "connection", "cocycle route equals the block-scatter route")
def _monodromy_routes(ctx: VerifyContext):
    rng = ctx.rng("monodromy-routes")
    worst = 0.0
    for n in ctx.site_counts(2, 3):
        perms = list(all_perms(n))
        for _ in range(4):
            w = perms[rng.integers(len(perms))]

            def residual(z):
                a = conn.tensor_monodromy_word(ctx.ep, n, ctx.phi, w, z)
                b = conn.tensor_monodromy_from_blocks(ctx.ep, n, ctx.phi, w, z)
                return rel_residual(a, b)

            worst = _worst(worst, ctx.eval_band(rng, n, residual))
    return _result("monodromy-routes", "connection", "two monodromy constructions agree", worst, 1e-9)


@register("gl2-fixture", "connection", "the 4x4 elliptic fixture: unitarity, block match, braid form")
def _gl2_fixture(ctx: VerifyContext):
    rng = ctx.rng("gl2-fixture")
    ep = ctx.ep
    worst = 0.0
    eye4 = np.eye(4, dtype=complex)
    for _ in range(ctx.cfg.samples):
        x = sample_scalar(rng, ep.nome)
        xp = sample_scalar(rng, ep.nome)
        y = sample_dynamical(rng)
        m = conn.gl2_matrix(ep, x, y)
        worst = _worst(worst, rel_residual(m @ conn.gl2_matrix(ep, -x, y), eye4))
        worst = _worst(worst, conn.gl2_dybe_residual(ep, x, xp, y))
        # middle 2x2 block against the rank-2 empty-index connection matrix
        spec = blk.PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=(y / 2.0, -y / 2.0))
        z = (x, 0.0)
        cm = conn.connection_simple(ep, spec, 1, z).entries
        block = np.array([[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]])
        worst = _worst(worst, rel_residual(cm, block))
    return _result("gl2-fixture", "connection", "fixture laws and block agreement", worst, 1e-9)


# ---------------------------------------------------------------------------
# dybe suite


def _dybe_sweep(ctx: VerifyContext, rng, family) -> float:
    worst = 0.0
    ep = ctx.ep
    for _ in range(ctx.cfg.samples):
        phi = sample_phi(rng)
        x = sample_scalar(rng, ep.nome)
        y = sample_scalar(rng, ep.nome)
        worst = _worst(worst, conn.dybe_residual(ep, x, y, phi, family))
    return worst


@register("dybe-psi", "dybe", "braid-form dynamical Yang-Baxter equation, back-shifted family")
def _dybe_psi(ctx: VerifyContext):
    worst = _dybe_sweep(ctx, ctx.rng("dybe-psi"), conn.PSI_FAMILY)
    return _result("dybe-psi", "dybe", "braid-form equation with the half-period family", worst, ctx.cfg.residual_tol)


@register("dybe-phi", "dybe", "braid-form dynamical Yang-Baxter equation, shifted third family")
def _dybe_phi(ctx: VerifyContext):
    worst = _dybe_sweep(ctx, ctx.rng("dybe-phi"), conn.PHI_FAMILY)
    return _result("dybe-phi", "dybe", "braid-form equation with the shifted-odd family", worst, ctx.cfg.residual_tol)


@register("dybe-xi", "dybe", "braid-form dynamical Yang-Baxter equation, weight family")
def _dybe_xi(ctx: VerifyContext):
    worst = _dybe_sweep(ctx, ctx.rng("dybe-xi"), conn.XI_FAMILY)
    return _result("dybe-xi", "dybe", "braid-form equation with the plain weight family", worst, ctx.cfg.residual_tol)


@register("dybe-negative-control", "dybe", "perturbed shifts must break the equation")
def _dybe_negative(ctx: VerifyContext):
    rng = ctx.rng("dybe-negative-control")
    scrambled = conn.ShiftFamily(
        "scrambled", lambda nome, j, a: conn.PSI_FAMILY.vector(nome, j, -a)
    )
    worst = _dybe_sweep(ctx, rng, scrambled)
    return CheckResult(
        check="dybe-negative-control",
        suite="dybe",
        law="sign-flipped shifts violate the equation",
        residual=worst,
        tol=1e-3,
        passed=worst > 1e-3,
    )


@register("dyn-unitarity", "dybe", "R(x) R(-x) = identity")
def _dyn_unitarity(ctx: VerifyContext):
    rng = ctx.rng("dyn-unitarity")
    ep = ctx.ep
    eye = np.eye(9, dtype=complex)
    worst = 0.0
    for _ in range(max(30, ctx.cfg.samples)):
        phi = sample_phi(rng)
        x = sample_scalar(rng, ep.nome)
        worst = _worst(worst, rel_residual(conn.dyn_r_matrix(ep, x, phi) @ conn.dyn_r_matrix(ep, -x, phi), eye))
    return _result("dyn-unitarity", "dybe", "unitarity of the dynamical R-matrix", worst, ctx.cfg.residual_tol)


@register("felder-form", "dybe", "permuted-form equation with weight shifts")
def _felder_form(ctx: VerifyContext):
    rng = ctx.rng("felder-form")
    ep = ctx.ep
    worst = 0.0
    for _ in range(ctx.cfg.samples):
        phi = sample_phi(rng)
        x = sample_scalar(rng, ep.nome)
        y = sample_scalar(rng, ep.nome)
        worst = _worst(worst, conn.felder_residual(ep, x, y, phi))
    return _result("felder-form", "dybe", "permuted-form dynamical equation", worst, ctx.cfg.residual_tol)


@register("felder-negative-control", "dybe", "swapping two weight vectors must break the equation")
def _felder_negative(ctx: VerifyContext):
    rng = ctx.rng("felder-negative-control")
    ep = ctx.ep
    swapped = ((1, 0, 0), (0, 0, -1), (0, 1, 0))
    worst = 0.0
    for _ in range(5):
        phi = sample_phi(rng)
        x = sample_scalar(rng, ep.nome)
        y = sample_scalar(rng, ep.nome)
        worst = _worst(worst, conn.felder_residual(ep, x, y, phi, weights=swapped))
    return CheckResult(
        check="felder-negative-control",
        suite="dybe",
        law="swapped weight vectors violate the equation",
        residual=worst,
        tol=1e-3,
        passed=worst > 1e-3,
    )


@register("weight-conservation", "dybe", "R-matrix entries vanish off the content-preserving pattern")
def _weight_conservation(ctx: VerifyContext):
    rng = ctx.rng("weight-conservation")
    ep = ctx.ep
    worst = 0.0
    for _ in range(5):
        phi = sample_phi(rng)
        x = sample_scalar(rng, ep.nome)
        r = conn.dyn_r_matrix(ep, x, phi)
        for out_pair in multi_indices(2):
            for in_pair in multi_indices(2):
                if sorted(out_pair) != sorted(in_pair):
                    worst = _worst(worst, abs(r[tensor_index(out_pair), tensor_index(in_pair)]))
    return _result("weight-conservation", "dybe", "content-preserving sparsity pattern", worst, 1e-30)


@register("dynamical-translation", "dybe", "shifting all dynamical parameters together changes nothing")
def _dynamical_translation(ctx: VerifyContext):
    rng = ctx.rng("dynamical-translation")
    ep = ctx.ep
    worst = 0.0
    for _ in range(5):
        phi = sample_phi(rng)
        t = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        shifted = tuple(v + t for v in phi)
        x = sample_scalar(rng, ep.nome)
        worst = _worst(worst, rel_residual(conn.dyn_r_matrix(ep, x, phi), conn.dyn_r_matrix(ep, x, shifted)))
    return _result("dynamical-translation", "dybe", "dependence through differences only", worst, 1e-12)


# ---------------------------------------------------------------------------
# qkz suite


@register("translation-words", "qkz", "translation words act as unit shifts on points")
def _translation_words(ctx: VerifyContext):
    bad = []
    for n in ctx.site_counts(2, 5):
        for j in range(1, n + 1):
            if qkz.translation_defect(qkz.translation_word(n, j), j) != 0.0:
                bad.append((n, j))
    return _result(
        "translation-words",
        "qkz",
        "affine action of constructed translation words",
        0.0 if not bad else 1.0,
        0.5,
        detail={"failures": bad},
    )


@register("transport-cocycle", "qkz", "transport depends only on the group element")
def _transport_cocycle(ctx: VerifyContext):
    rng = ctx.rng("transport-cocycle")
    worst = 0.0
    for n in ctx.site_counts(2, 4):
        rep = ctx.rep(n)
        base = qkz.affine_word(n, [qkz.s_letter(i) for i in range(n - 1, 0, -1)] + [qkz.XI])
        words = [qkz.translation_word(n, 1)]
        xi_word = qkz.affine_word(n, [qkz.XI])
        words.append(xi_word * base * xi_word.inverse())
        for _ in range(3):
            def residual(z):
                mats = [qkz.transport_word(rep, w, z) for w in words]
                return rel_residual(mats[0], mats[1])

            worst = _worst(worst, ctx.eval_resampling(rng, n, residual))
    return _result("transport-cocycle", "qkz", "word-independence of transport", worst, 1e-10)


@register("qkz-flatness", "qkz", "translation transports commute after the cocycle shift")
def _qkz_flatness(ctx: VerifyContext):
    rng = ctx.rng("qkz-flatness")
    worst = 0.0
    count = min(10, ctx.cfg.samples)
    for n in ctx.site_counts(2, 4):
        rep = ctx.rep(n)
        for _ in range(count):
            def residual(z):
                local = 0.0
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        local = _worst(local, qkz.flatness_residual(rep, i, j, z))
                return local

            worst = _worst(worst, ctx.eval_resampling(rng, n, residual))
    return _result("qkz-flatness", "qkz", "commuting translation transports", worst, ctx.cfg.residual_tol)


@register("qkz-flatness-negative-control", "qkz", "dropping the cocycle shift must break flatness")
def _qkz_flatness_negative(ctx: VerifyContext):
    rng = ctx.rng("qkz-flatness-negative-control")
    n = 2
    rep = ctx.rep(n)
    w1 = qkz.translation_word(n, 1)
    w2 = qkz.translation_word(n, 2)

    def residual(z):
        # wrong shift: evaluate the second factor at z instead of the moved point
        lhs = qkz.transport_word(rep, w1, z) @ qkz.transport_word(rep, w2, z)
        rhs = qkz.transport_word(rep, w2, z) @ qkz.transport_word(rep, w1, z)
        return rel_residual(lhs, rhs)

    worst = _worst(*(ctx.eval_resampling(rng, n, residual) for _ in range(5)))
    return CheckResult(
        check="qkz-flatness-negative-control",
        suite="qkz",
        law="unshifted products do not commute",
        residual=worst,
        tol=1e-3,
        passed=worst > 1e-3,
    )


@register("braid-limit", "qkz", "translation transports converge to the braid-limit operators")
def _braid_limit(ctx: VerifyContext):
    worst40 = 0.0
    slope_err = 0.0
    log_p = ctx.ep.nome.log_p
    for n in ctx.site_counts(2, 3):
        rep = ctx.rep(n)
        lams = [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,)]
        for lam in lams:
            worst40 = _worst(worst40, qkz.braid_limit_residual(rep, lam, 40.0))
            r6 = qkz.braid_limit_residual(rep, lam, 6.0)
            r12 = qkz.braid_limit_residual(rep, lam, 12.0)
            # a residual of zero has no logarithm: the slope is undefined and the check fails
            slope = (math.log(r12) - math.log(r6)) / 6.0 if r6 > 0 and r12 > 0 else math.nan
            slope_err = _worst(slope_err, abs(slope - log_p) / abs(log_p))
    passed = worst40 < 1e-10 and slope_err < 0.2
    return CheckResult(
        check="braid-limit",
        suite="qkz",
        law="geometric convergence to the braid limit",
        residual=worst40,
        tol=1e-10,
        passed=passed,
        detail={"slope_relative_error": slope_err},
    )


# ---------------------------------------------------------------------------
# runner


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
        results.append(
            _inconclusive(
                "parameter-genericity",
                "config",
                "parameters admit a nondegenerate evaluation",
                error=str(exc),
                violations=[list(v) for v in report.violations[:20]],
            )
        )
        return Report(config=cfg, results=results, timings=timings)
    for check_id, s, law, fn in _REGISTRY:
        if s not in names:
            continue
        t0 = time.perf_counter()
        try:
            out = fn(ctx)
        except _INCONCLUSIVE as exc:
            out = _inconclusive(check_id, s, law, error=f"{type(exc).__name__}: {exc}")
        timings[check_id] = time.perf_counter() - t0
        results.append(out)
    return Report(config=cfg, results=results, timings=timings)
