"""Acceptance gate: every quantitative criterion at its stated tolerance.

One test per criterion; each prints a single pass/fail line.  Shared heavy
state (the spin representations) comes from the session fixtures.
"""

import math
import time

import numpy as np

from qkzconn.blocks import (
    PrincipalSeriesSpec,
    content_block,
    dimension_count,
    eigen_residual,
    sign_residual,
    spectrum_match_residual,
)
from qkzconn.checks import _worst
from qkzconn.connection import (
    PHI_FAMILY,
    PSI_FAMILY,
    XI_FAMILY,
    ShiftFamily,
    connection_simple,
    connection_word,
    dybe_residual,
    dyn_r_matrix,
    felder_residual,
    gl2_matrix,
    shifted_r_apply,
    tensor_monodromy_simple,
)
from qkzconn.heckespin import (
    HeckeParams,
    baxterize,
    braid_matrix,
    hecke_residual,
    perk_schultz,
    qybe_residual,
    y_operators,
)
from qkzconn.params import sample_dynamical, sample_phi, sample_point, sample_point_band, sample_scalar
from qkzconn.qkz import braid_limit_residual, flatness_residual
from qkzconn.symgroup import (
    act,
    compose,
    content_labels,
    content_stabiliser,
    inverse,
    min_coset_reps,
    simple,
)
from qkzconn.tensorspace import permutation_op, rel_residual


def announce(num: int, ok: bool, text: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_hecke_relation(ep):
    q = HeckeParams(elliptic=ep, n=2).q
    b = braid_matrix(q)
    hecke_residual(b, q)  # warm once
    t0 = time.perf_counter()
    res = hecke_residual(b, q)
    elapsed = time.perf_counter() - t0
    announce(1, res < 1e-12 and elapsed < 1e-3, f"quadratic relation residual {res:.2e} in {elapsed * 1e3:.3f} ms")


def test_criterion_02_qybe_and_unitarity(ep, rng):
    q = HeckeParams(elliptic=ep, n=2).q
    b = braid_matrix(q)
    p_op = permutation_op()
    eye = np.eye(9, dtype=complex)
    t0 = time.perf_counter()
    worst_qybe = worst_eq = worst_unit = 0.0
    for _ in range(20):
        x = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
        y = np.exp(rng.uniform(-1, 1) + 2j * np.pi * rng.uniform())
        worst_qybe = _worst(worst_qybe, qybe_residual(lambda z: perk_schultz(z, q), x, y))
        worst_eq = _worst(worst_eq, float(np.max(np.abs(baxterize(b, x, q) - perk_schultz(x, q)))))
        r21 = p_op @ perk_schultz(x, q) @ p_op
        worst_unit = _worst(worst_unit, rel_residual(r21 @ perk_schultz(1.0 / x, q), eye))
    elapsed = time.perf_counter() - t0
    ok = worst_qybe < 1e-10 and worst_eq < 1e-12 and worst_unit < 1e-10 and elapsed < 1.0
    announce(2, ok, f"qybe {worst_qybe:.2e}, closed-form gap {worst_eq:.2e}, unitarity {worst_unit:.2e}, {elapsed:.2f} s")


def test_criterion_03_decomposition(reps):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        rep = reps[n]
        y_ops = y_operators(rep)
        assert dimension_count(n) == 3**n
        for r in content_labels(n):
            worst = _worst(worst, eigen_residual(rep, r, y_ops))
            for w in min_coset_reps(n, content_stabiliser(n, r)):
                worst = _worst(worst, sign_residual(rep, r, w))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    announce(3, ok, f"eigen/sign residual {worst:.2e} over n = 2, 3, 4 in {elapsed:.1f} s")


def test_criterion_04_spectrum_glueing(reps):
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        for j in range(1, n + 1):
            worst = _worst(worst, spectrum_match_residual(reps[n], j))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    announce(4, ok, f"multiset match distance {worst:.2e} in {elapsed:.1f} s")


def test_criterion_05_connection_laws(ep, phi, rng):
    n = 3
    t0 = time.perf_counter()
    worst_braid = worst_unit = 0.0
    for r in content_labels(n):
        spec = content_block(ep, n, r, phi)
        dim = len(min_coset_reps(n, spec.index_set))
        eye = np.eye(dim, dtype=complex)
        for _ in range(10):
            z = sample_point_band(rng, n)
            lhs = connection_simple(ep, spec, 1, z).entries
            lhs = lhs @ connection_simple(ep, spec, 2, act(simple(n, 1), z)).entries
            lhs = lhs @ connection_simple(ep, spec, 1, act(compose(simple(n, 2), simple(n, 1)), z)).entries
            rhs = connection_simple(ep, spec, 2, z).entries
            rhs = rhs @ connection_simple(ep, spec, 1, act(simple(n, 2), z)).entries
            rhs = rhs @ connection_simple(ep, spec, 2, act(compose(simple(n, 1), simple(n, 2)), z)).entries
            worst_braid = _worst(worst_braid, rel_residual(lhs, rhs))
            w0 = (3, 2, 1)
            worst_braid = _worst(worst_braid, rel_residual(connection_word(ep, spec, w0, z).entries, lhs))
            for i in (1, 2):
                m1 = connection_simple(ep, spec, i, z).entries
                m2 = connection_simple(ep, spec, i, act(simple(n, i), z)).entries
                worst_unit = _worst(worst_unit, rel_residual(m1 @ m2, eye))
    elapsed = time.perf_counter() - t0
    ok = worst_braid < 1e-9 and worst_unit < 1e-9 and elapsed < 60.0
    announce(5, ok, f"braid {worst_braid:.2e}, unitarity {worst_unit:.2e}, {elapsed:.1f} s")


def test_criterion_06_rank2_identity(ep, rng):
    worst = 0.0
    for _ in range(20):
        phi = sample_phi(rng)
        z = sample_point_band(rng, 2)
        m = tensor_monodromy_simple(ep, 2, phi, 1, z)
        r = dyn_r_matrix(ep, z[0] - z[1], phi)
        worst = _worst(worst, rel_residual(m, r))
    announce(6, worst < 1e-9, f"two-site monodromy vs R-matrix residual {worst:.2e}")


def test_criterion_07_rank3_identities(ep, rng):
    k = ep.kappa
    worst = 0.0
    for _ in range(20):
        phi = sample_phi(rng)
        z = sample_point_band(rng, 3)
        m1 = tensor_monodromy_simple(ep, 3, phi, 1, z)
        s1 = shifted_r_apply(ep, 3, 2, z[0] - z[1], phi, PSI_FAMILY, k, control=1)
        m2 = tensor_monodromy_simple(ep, 3, phi, 2, z)
        s2 = shifted_r_apply(ep, 3, 1, z[1] - z[2], phi, PSI_FAMILY, -k, control=3)
        worst = _worst(worst, rel_residual(m1, s1), rel_residual(m2, s2))
    announce(7, worst < 1e-9, f"three-site control-shift identities residual {worst:.2e}")


def test_criterion_08_dybe_families(ep, rng):
    eye = np.eye(9, dtype=complex)
    worst = {"psi": 0.0, "phi": 0.0, "xi": 0.0}
    worst_unit = 0.0
    for _ in range(20):
        phi = sample_phi(rng)
        x = sample_scalar(rng, ep.nome)
        y = sample_scalar(rng, ep.nome)
        for family in (PSI_FAMILY, PHI_FAMILY, XI_FAMILY):
            worst[family.kind] = _worst(worst[family.kind], dybe_residual(ep, x, y, phi, family))
        worst_unit = _worst(worst_unit, rel_residual(dyn_r_matrix(ep, x, phi) @ dyn_r_matrix(ep, -x, phi), eye))
    flipped = ShiftFamily("flipped", lambda nome, j, a: PSI_FAMILY.vector(nome, j, -a))
    negative = 0.0
    for _ in range(5):
        phi = sample_phi(rng)
        x = sample_scalar(rng, ep.nome)
        y = sample_scalar(rng, ep.nome)
        negative = _worst(negative, dybe_residual(ep, x, y, phi, flipped))
    ok = all(v < 1e-9 for v in worst.values()) and worst_unit < 1e-9 and negative > 1e-3
    announce(
        8,
        ok,
        "braid-form equation residuals "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f", unitarity {worst_unit:.2e}, negative control {negative:.2e}",
    )


def test_criterion_09_felder_form(ep, rng):
    worst = 0.0
    for _ in range(20):
        phi = sample_phi(rng)
        x = sample_scalar(rng, ep.nome)
        y = sample_scalar(rng, ep.nome)
        worst = _worst(worst, felder_residual(ep, x, y, phi))
    announce(9, worst < 1e-9, f"permuted-form equation residual {worst:.2e}")


def test_criterion_10_gl2_fixture(ep, rng):
    eye = np.eye(4, dtype=complex)
    worst_unit = worst_match = 0.0
    for _ in range(20):
        x = sample_scalar(rng, ep.nome)
        y = sample_dynamical(rng)
        m = gl2_matrix(ep, x, y)
        worst_unit = _worst(worst_unit, rel_residual(m @ gl2_matrix(ep, -x, y), eye))
        spec = PrincipalSeriesSpec(n=2, index_set=(), signs=(), gamma=(y / 2, -y / 2))
        cm = connection_simple(ep, spec, 1, (x, 0.0)).entries
        block = np.array([[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]])
        worst_match = _worst(worst_match, rel_residual(cm, block))
    ok = worst_unit < 1e-9 and worst_match < 1e-9
    announce(10, ok, f"fixture unitarity {worst_unit:.2e}, block agreement {worst_match:.2e}")


def test_criterion_11_qkz_flatness_and_limit(ep, reps, rng):
    worst_flat = 0.0
    for n in (2, 3, 4):
        rep = reps[n]
        for _ in range(10):
            z = sample_point(rng, n, ep.nome)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    worst_flat = _worst(worst_flat, flatness_residual(rep, i, j, z))
    rep = reps[2]
    deep = braid_limit_residual(rep, (1, 0), 40.0)
    r6 = braid_limit_residual(rep, (1, 0), 6.0)
    r12 = braid_limit_residual(rep, (1, 0), 12.0)
    slope = (math.log(r12) - math.log(r6)) / 6.0
    slope_err = abs(slope - ep.nome.log_p) / abs(ep.nome.log_p)
    ok = worst_flat < 1e-9 and deep < 1e-10 and slope_err < 0.2
    announce(
        11,
        ok,
        f"flatness {worst_flat:.2e}, depth-40 residual {deep:.2e}, decay slope off by {slope_err:.1%}",
    )


def test_criterion_12_sign_exponent_resolution(reps):
    worst_inclusive = 0.0
    printed_fails = 0
    for n in (2, 3, 4):
        rep = reps[n]
        for r in content_labels(n):
            for w in min_coset_reps(n, content_stabiliser(n, r)):
                worst_inclusive = _worst(worst_inclusive, sign_residual(rep, r, w, inclusive=True))
                if r[2] == 1 and sign_residual(rep, r, w, inclusive=False) > 1.0:
                    printed_fails += 1
    ok = worst_inclusive < 1e-10 and printed_fails > 0
    announce(
        12,
        ok,
        f"inclusive count residual {worst_inclusive:.2e}; strict count wrong in {printed_fails} "
        "single-odd-entry cases",
    )
