"""Principal series data and the block decomposition of the spin representation.

The tensor space splits into blocks labelled by the content r = (r1, r2, r3)
of the multi-indices.  Each block carries an induced-module structure fixed
by an index set I, a sign tuple and a spectral vector gamma; the leading
multi-index of the block is a joint eigenvector of the T_i (i in I) and of
the commuting family Y_j, and the remaining basis vectors are reached by
T_w for minimal coset representatives w, up to an explicit sign.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elliptic import EllipticParams, check_coupling, pow_p
from .heckespin import SpinRep, _family_letters, _padded, _padded_images, _t, rho_vector, spin_images, y_tilde
from .symgroup import (
    Content,
    Perm,
    act,
    content_labels,
    content_stabiliser,
    eta_exponent,
    inverse,
    leading_index,
    min_coset_reps,
    reduced_word,
)
from .tensorspace import block_layout, tensor_index

__all__ = [
    "PrincipalSeriesSpec",
    "CharacterValues",
    "GenericityReport",
    "character_values",
    "content_block",
    "dimension_count",
    "eigen_residual",
    "sign_residuals",
    "predicted_y_tilde_spectrum",
    "spectrum_match_residual",
    "genericity_report",
]

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class PrincipalSeriesSpec:
    """Index set I, signs (aligned with sorted I) and the spectral vector gamma."""

    n: int
    index_set: tuple[int, ...]
    signs: tuple[int, ...]
    gamma: tuple[complex, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.index_set)) != self.index_set:
            raise ValueError("index_set must be sorted")
        if len(self.signs) != len(self.index_set):
            raise ValueError("one sign per index")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1")
        if len(self.gamma) != self.n:
            raise ValueError("gamma must have one entry per site")

    def sign_of(self, i: int) -> int:
        return self.signs[self.index_set.index(i)]


def validate_spec(ep: EllipticParams, spec: PrincipalSeriesSpec, tol: float = MEMBERSHIP_TOL) -> None:
    """Check gamma_i - gamma_{i+1} = 2 eps_i kappa on I, and sign constancy on runs."""
    for i in spec.index_set:
        want = 2.0 * spec.sign_of(i) * ep.kappa
        got = spec.gamma[i - 1] - spec.gamma[i]
        if abs(got - want) > tol * max(1.0, abs(want)):
            raise ValueError(
                f"gamma_{i} - gamma_{i + 1} = {got} differs from 2*eps*kappa = {want}"
            )
    for i in spec.index_set:
        if i + 1 in spec.index_set and spec.sign_of(i) != spec.sign_of(i + 1):
            raise ValueError(f"signs at the adjacent indices {i}, {i + 1} must agree")


@dataclass(frozen=True)
class CharacterValues:
    t_values: tuple[tuple[int, complex], ...]
    y_values: tuple[complex, ...]


def character_values(ep: EllipticParams, spec: PrincipalSeriesSpec) -> CharacterValues:
    """The one-dimensional character: T_i -> eps_i q^{eps_i}, Y_j -> p^{-gamma_j}."""
    validate_spec(ep, spec)
    q = pow_p(ep, -ep.kappa)
    t_vals = []
    for i in spec.index_set:
        eps = spec.sign_of(i)
        val = eps * q**eps
        if abs((val - q) * (val + 1.0 / q)) >= 1e-10 * max(1.0, abs(q)) ** 2:
            raise ValueError(f"character value {val} of T_{i} does not solve the quadratic relation")
        t_vals.append((i, val))
    y_vals = tuple(pow_p(ep, -g) for g in spec.gamma)
    return CharacterValues(t_values=tuple(t_vals), y_values=y_vals)


def _block_gamma_raw(
    log_p: float, kappa: complex, phi: Sequence[complex], n: int, r: Content
) -> tuple[complex, ...]:
    r1, r2, r3 = r
    i_pi = 1j * math.pi / log_p
    eta1 = -i_pi * r3 + (r1 + 1) * kappa
    eta2 = -i_pi * r3 + (r2 + 1) * kappa
    eta3 = -i_pi * (n - 1) - (r3 + 1) * kappa
    gamma = []
    for i in range(1, n + 1):
        if i <= r3:
            gamma.append(eta3 + phi[2] + 2 * i * kappa)
        elif i <= r3 + r2:
            gamma.append(eta2 + phi[1] - 2 * (i - r3) * kappa)
        else:
            gamma.append(eta1 + phi[0] - 2 * (i - r2 - r3) * kappa)
    return tuple(gamma)


def _block_gammas(
    log_p: float, kappa: complex, phis: Sequence[Sequence[complex]], n: int, rs: Sequence[Content]
) -> np.ndarray:
    # _block_gamma_raw for every twist of phis and content of rs, as one
    # (twists, contents, n) array: the same operations in the same order,
    # so the same values bit for bit
    r1, r2, r3 = np.array(rs).T[:, None, :, None]
    phi = np.array(phis, dtype=complex).T[:, :, None, None]
    i = np.arange(1, n + 1)
    i_pi = 1j * math.pi / log_p
    eta1 = -i_pi * r3 + (r1 + 1) * kappa
    eta2 = -i_pi * r3 + (r2 + 1) * kappa
    eta3 = -i_pi * (n - 1) - (r3 + 1) * kappa
    return np.where(
        i <= r3,
        eta3 + phi[2] + 2 * i * kappa,
        np.where(i <= r3 + r2, eta2 + phi[1] - 2 * (i - r3) * kappa, eta1 + phi[0] - 2 * (i - r2 - r3) * kappa),
    )


def content_block(
    ep: EllipticParams, n: int, r: Content, phi: Sequence[complex]
) -> PrincipalSeriesSpec:
    """The principal-series data (I, eps, gamma) of the block with content r."""
    if sum(r) != n or min(r) < 0:
        raise ValueError(f"{r} is not a content label for n={n}")
    index_set = tuple(sorted(content_stabiliser(n, r)))
    signs = tuple(-1 if i < r[2] else 1 for i in index_set)
    gamma = _block_gamma_raw(ep.nome.log_p, ep.kappa, phi, n, r)
    spec = PrincipalSeriesSpec(n=n, index_set=index_set, signs=signs, gamma=gamma)
    validate_spec(ep, spec)
    return spec


def dimension_count(n: int) -> int:
    """Sum of block dimensions |S_n^{I(r)}| over all contents."""
    return sum(len(min_coset_reps(n, content_stabiliser(n, r))) for r in content_labels(n))


@functools.cache
def _eigen_letters(n: int) -> np.ndarray:
    # the padded (row, side) letters of the words Y_1 .. Y_n, then T_1 ..
    # T_{n-1}, built once per n; eigen_residual picks its words by index
    words = [_family_letters(n, [int(k == j) for k in range(1, n + 1)]) for j in range(1, n + 1)]
    letters = _padded(words + [[_t(i)] for i in range(1, n)])
    letters.flags.writeable = False
    return letters


def eigen_residual(rep: SpinRep, r: Content) -> float:
    """Worst eigen-equation defect of the leading basis vector of the block r.

    Checks Y_j v = p^{-gamma_j} v for all j and T_i v = eps_i q^{eps_i} v for
    i in the block's index set, with the eigenvalues read from the block's
    character (``character_values``), and every image from one call of
    ``spin_images``' body on the words of ``_eigen_letters(n)``.
    """
    ep = rep.params.elliptic
    n = rep.n
    spec = content_block(ep, n, r, rep.phi)
    src = tensor_index(leading_index(r))
    chars = character_values(ep, spec)
    rows, sides = _eigen_letters(n)
    words = [*range(n), *(n - 1 + i for i, _ in chars.t_values)]
    lams = list(chars.y_values) + [lam for _, lam in chars.t_values]
    images = _padded_images(rep, rows[:, words], sides[:, words], src)
    images[:, block_layout(n).pos[src]] -= lams
    return max(float(np.linalg.norm(img)) / max(1.0, abs(lam)) for img, lam in zip(images, lams))


def sign_residuals(rep: SpinRep, r: Content) -> list[tuple[Perm, float, float]]:
    """(w, inclusive, strict) per minimal coset representative w of the block
    r: the defects of T_w v_leading = (-1)^eta(w) v_{w . leading} under both
    sign counts of ``eta_exponent``, with T_w along a reduced word of w and
    every image from one ``spin_images`` call."""
    n = rep.n
    lead = leading_index(r)
    reps = min_coset_reps(n, content_stabiliser(n, r))
    images = spin_images(rep, [[_t(i) for i in reduced_word(w)] for w in reps], tensor_index(lead))
    out = []
    for w, img in zip(reps, images):
        dst = block_layout(n).pos[tensor_index(act(w, lead))]
        entry = img[dst]
        defects = []
        for inclusive in (True, False):
            img[dst] = entry - (-1.0) ** eta_exponent(w, r, inclusive=inclusive)
            defects.append(float(np.linalg.norm(img)))
        out.append((w, *defects))
    return out


def _spectral_labels(
    log_p: float, kappa: complex, phi: Sequence[complex], n: int
) -> list[tuple[Content, Perm, tuple[complex, ...]]]:
    """(content, coset rep sigma, s) over all blocks, with the spectral label
    s_k = -(rho_k + (w0 sigma gamma)_k) of the braid-limit family."""
    rho = rho_vector(n, kappa)
    labels = []
    for r in content_labels(n):
        gamma = _block_gamma_raw(log_p, kappa, phi, n, r)
        for sigma in min_coset_reps(n, content_stabiliser(n, r)):
            sigma_inv = inverse(sigma)
            # (w0 sigma gamma)_k = gamma_{sigma^{-1}(n+1-k)}
            s = tuple(-(rho[k - 1] + gamma[sigma_inv[n - k] - 1]) for k in range(1, n + 1))
            labels.append((r, sigma, s))
    return labels


def predicted_y_tilde_spectrum(
    ep: EllipticParams, n: int, phi: Sequence[complex], j: int
) -> list[complex]:
    """Closed-form eigenvalue multiset p^{-(e_j, rho + w0 sigma gamma)} over all blocks."""
    return [pow_p(ep, s[j - 1]) for _, _, s in _spectral_labels(ep.nome.log_p, ep.kappa, phi, n)]


def greedy_match_distance(predicted: Sequence[complex], observed: Sequence[complex]) -> float:
    """Largest distance after greedily pairing each predicted value to the nearest
    unused observed value."""
    if len(predicted) != len(observed):
        raise ValueError("multisets must have equal size")
    remaining = list(observed)
    worst = 0.0
    for val in predicted:
        dists = [abs(val - o) for o in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        remaining.pop(k)
    return worst


def spectrum_match_residual(rep: SpinRep, j: int) -> float:
    """Greedy-matching distance between the predicted multiset and the numerical
    eigenvalues of the braid-limit operator for lam = e_j, computed per block."""
    n = rep.n
    lam = tuple(1 if k == j else 0 for k in range(1, n + 1))
    eigs = y_tilde(rep, lam).eigvals()
    pred = predicted_y_tilde_spectrum(rep.params.elliptic, n, rep.phi, j)
    return greedy_match_distance(pred, list(eigs))


@dataclass(frozen=True)
class GenericityReport:
    """Diagnostics of the braid-limit spectrum for the given raw parameters.

    Violations come in three kinds:

    * ``("coupling", m)`` -- |p^(2 kappa)| sits on the lattice |p^m| (the
      coefficient functions degenerate; kappa = 0 lands here),
    * ``("collision", a, b)`` -- two distinct spectral labels coincide, so
      the eigenvalue family cannot separate the blocks,
    * ``("resonance", a, b, i, m)`` -- p^((s_b - s_a, varpi_i)) = p^m for
      some nonzero integer m in the search window.

    Label indices a, b refer to ``labels``, the flattened (content, coset
    representative) list.
    """

    n: int
    window: int
    tol: float
    labels: tuple[tuple[Content, Perm], ...]
    violations: tuple[tuple, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def genericity_report(
    p: float,
    kappa: complex,
    phi: Sequence[complex],
    n: int,
    window: int = 20,
    tol: float = 1e-8,
) -> GenericityReport:
    """Check the spectral labels for collisions and lattice resonances.

    Works on raw parameters (no resonance guard) so that degenerate choices
    such as kappa = 0 produce a report instead of an exception; a coupling
    that is not finite raises ValueError (``elliptic.check_coupling``).
    """
    check_coupling(kappa)
    log_p = math.log(p)
    kappa = complex(kappa)
    violations: list[tuple] = []

    t = 2.0 * kappa.real
    if abs(t - round(t)) <= tol:
        violations.append(("coupling", int(round(t))))

    spectral = _spectral_labels(log_p, kappa, phi, n)
    labels = [(r, sigma) for r, sigma, _ in spectral]

    # collisions: all components of s_b - s_a vanish modulo 2 pi i / log p.
    # At large labels the exponentials overflow or underflow; such a value is
    # neither a collision nor a resonance, so the warnings are silenced.
    comp = np.array([s for _, _, s in spectral], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        unit = np.exp((comp[None, :, :] - comp[:, None, :]) * log_p)
        collide = np.all(np.abs(unit - 1.0) <= tol, axis=2)
    violations += [("collision", int(a), int(b)) for a, b in np.argwhere(np.triu(collide, 1))]

    # lattice resonances of the partial sums (pairings with varpi_i): a value
    # within tol of p^m has m nearest to log_p |value|, and none if that is not finite
    partials = np.cumsum(comp[:, :-1], axis=1)
    for i in range(n - 1):
        col = partials[:, i]
        diff = col[None, :] - col[:, None]  # entry (a, b) is (s_b - s_a, varpi_{i+1})
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = np.exp(diff * log_p)
            near = np.rint(np.log(np.abs(vals)) / log_p)
            near[~(np.abs(near) <= window)] = 0  # out of the window, or not finite
            a, b = np.nonzero((near != 0) & (np.abs(vals / p**near - 1.0) <= tol))
        m = near[a, b].astype(int)
        violations += [("resonance", int(a[k]), int(b[k]), i + 1, int(m[k])) for k in np.lexsort((b, a, m))]
    return GenericityReport(
        n=n, window=window, tol=tol, labels=tuple(labels), violations=tuple(violations)
    )
