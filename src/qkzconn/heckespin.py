"""The spin representation of the extended affine Hecke algebra on (C^3)^(x n).

The constant braid matrix acts on neighbouring legs as the generators T_i,
and the quasi-cyclic generator acts as a rotation composed with a diagonal
twist on the last leg.  Both keep the content of a multi-index, so every
generator, and every product of them, is a ``BlockOp``: it is built and
multiplied one content block at a time.  The commuting family Y_j and its
braid-limit companion are assembled from these by the standard products;
Baxterization turns the braid matrix into the spectral-parameter solution of
the quantum Yang-Baxter equation (the supersymmetric three-state vertex model
weights).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elliptic import EllipticParams, PoleError, pow_p
from .symgroup import Perm, reduced_word
from .tensorspace import (
    DIM,
    BlockOp,
    block_layout,
    frob,
    permutation_op,
    rel_residual,
    two_leg_op,
)

__all__ = [
    "HeckeParams",
    "SpinRep",
    "braid_matrix",
    "hecke_residual",
    "baxterize",
    "perk_schultz",
    "qybe_residual",
    "spin_rep",
    "y_operator",
    "y_operators",
    "y_power",
    "t_word",
    "y_tilde",
    "rho_vector",
    "cross_relation_residual",
]


@dataclass(frozen=True)
class HeckeParams:
    """Elliptic parameters plus the number of tensor sites."""

    elliptic: EllipticParams
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least two tensor sites, got n={self.n}")
        q = self.q
        if abs(q - 1.0) < 1e-8 or abs(q + 1.0) < 1e-8:
            raise ValueError(f"q = {q} is too close to +-1; the quadratic relation degenerates")

    @functools.cached_property
    def q(self) -> complex:
        return pow_p(self.elliptic, -self.elliptic.kappa)


def braid_matrix(q: complex) -> np.ndarray:
    """Constant 9x9 braid matrix in the ordered two-site basis."""
    if q == 0:
        raise ValueError("q must be nonzero")
    d = q - 1.0 / q
    b = np.zeros((9, 9), dtype=complex)
    b[0, 0] = q
    b[4, 4] = q
    b[8, 8] = -1.0 / q
    b[1, 1] = d
    b[2, 2] = d
    b[5, 5] = d
    b[1, 3] = 1.0
    b[3, 1] = 1.0
    b[2, 6] = -1.0
    b[6, 2] = -1.0
    b[5, 7] = -1.0
    b[7, 5] = -1.0
    return b


def hecke_residual(b: np.ndarray, q: complex) -> float:
    """Quadratic-relation defect |(B - q)(B + 1/q)| / |B|^2."""
    eye = np.eye(b.shape[0], dtype=complex)
    defect = (b - q * eye) @ (b + eye / q)
    return frob(defect) / frob(b) ** 2


def _baxter_denominator(z: complex, q: complex, pole_tol: float) -> complex:
    den = 1.0 / q - q * z
    if abs(den) < pole_tol:
        raise PoleError(
            f"pole: Baxterization denominator 1/q - q z has modulus {abs(den):.3e} at z={z}",
            factor="1/q - q*z",
            magnitude=abs(den),
        )
    return den


def baxterize(b: np.ndarray, z: complex, q: complex, pole_tol: float = 1e-10) -> np.ndarray:
    """P (B^{-1} - z B) / (1/q - q z), using the exact inverse B^{-1} = B - q + 1/q."""
    den = _baxter_denominator(z, q, pole_tol)
    eye = np.eye(b.shape[0], dtype=complex)
    b_inv = b - (q - 1.0 / q) * eye
    return permutation_op() @ (b_inv - z * b) / den


def perk_schultz(z: complex, q: complex, pole_tol: float = 1e-10) -> np.ndarray:
    """The closed-form 9x9 Baxterized matrix with entries a, b, c_+, c_-, w."""
    den = _baxter_denominator(z, q, pole_tol)
    a_z = 1.0 + 0.0j  # (1/q - q z) / (1/q - q z)
    b_z = (1.0 - z) / den
    cp = (1.0 / q - q) / den
    cm = (1.0 / q - q) * z / den
    w_z = (z / q - q) / den
    r = np.zeros((9, 9), dtype=complex)
    r[0, 0] = a_z
    r[4, 4] = a_z
    r[8, 8] = w_z
    r[1, 1] = b_z
    r[3, 3] = b_z
    r[2, 2] = -b_z
    r[5, 5] = -b_z
    r[6, 6] = -b_z
    r[7, 7] = -b_z
    r[1, 3] = cp
    r[2, 6] = cp
    r[5, 7] = cp
    r[3, 1] = cm
    r[6, 2] = cm
    r[7, 5] = cm
    return r


def qybe_residual(r_of_z, x: complex, y: complex) -> float:
    """Defect of R12(x) R13(xy) R23(y) = R23(y) R13(xy) R12(x) on three legs."""
    r12 = two_leg_op(r_of_z(x), 3, 1, 2)
    r13 = two_leg_op(r_of_z(x * y), 3, 1, 3)
    r23 = two_leg_op(r_of_z(y), 3, 2, 3)
    return rel_residual(r12 @ r13 @ r23, r23 @ r13 @ r12)


@dataclass
class SpinRep:
    """Generators of the spin representation on (C^3)^(x n), as content blocks."""

    params: HeckeParams
    phi: tuple[complex, complex, complex]
    braid: np.ndarray
    t_ops: tuple[BlockOp, ...]
    t_inv_ops: tuple[BlockOp, ...]
    zeta: BlockOp
    zeta_inv: BlockOp
    _y_cache: dict = field(default_factory=dict, repr=False)
    # the generators' column entries for the qKZ transport, read on first use
    _columns: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def dim(self) -> int:
        return DIM**self.params.n

    def t(self, i: int) -> BlockOp:
        return self.t_ops[i - 1]

    def t_inv(self, i: int) -> BlockOp:
        return self.t_inv_ops[i - 1]


def _twist_rotation(ep: EllipticParams, n: int, phi: Sequence[complex]) -> tuple[BlockOp, BlockOp]:
    # rotation-with-twist: v_(a_1 .. a_n) -> p^{-phi_{a_n}} v_(a_n a_1 .. a_{n-1});
    # the rotated vector has the same content, so it sits in the same block
    layout = block_layout(n)
    twists = [pow_p(ep, -complex(phi[j])) for j in range(3)]
    twist = np.array(twists)
    twist_inv = np.array([1.0 / c for c in twists])
    zeta, zeta_inv = [], []
    for idx in layout.index:
        k, d = idx.shape
        last = idx % DIM
        rows = layout.pos[last * DIM ** (n - 1) + idx // DIM]
        blk, cols = np.arange(k)[:, None], np.arange(d)
        fwd = np.zeros((k, d, d), dtype=complex)
        bwd = np.zeros((k, d, d), dtype=complex)
        fwd[blk, rows, cols] = twist[last]
        bwd[blk, cols, rows] = twist_inv[last]
        zeta.append(fwd)
        zeta_inv.append(bwd)
    return BlockOp(layout, zeta), BlockOp(layout, zeta_inv)


def spin_rep(params: HeckeParams, phi: Sequence[complex]) -> SpinRep:
    """Build the generators for the given twist, block by block."""
    phi = tuple(complex(t) for t in phi)
    if len(phi) != 3:
        raise ValueError("the twist takes exactly three components")
    q = params.q
    b = braid_matrix(q)
    n = params.n
    t_ops = tuple(BlockOp.two_leg(b, n, i, i + 1) for i in range(1, n))
    b_inv = b - (q - 1.0 / q) * np.eye(9, dtype=complex)
    t_inv_ops = tuple(BlockOp.two_leg(b_inv, n, i, i + 1) for i in range(1, n))
    zeta, zeta_inv = _twist_rotation(params.elliptic, n, phi)
    return SpinRep(
        params=params,
        phi=phi,
        braid=b,
        t_ops=t_ops,
        t_inv_ops=t_inv_ops,
        zeta=zeta,
        zeta_inv=zeta_inv,
    )


def _product(n: int, factors: Sequence[BlockOp]) -> BlockOp:
    # left to right from the first factor (I @ X = X exactly); the identity
    # only for an empty product
    return functools.reduce(operator.matmul, factors) if factors else BlockOp.identity(n)


def y_operator(rep: SpinRep, j: int) -> BlockOp:
    """The commuting element T_{j-1}^{-1} .. T_1^{-1} zeta T_{n-1} .. T_j."""
    n = rep.n
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range for n={n}")
    if j not in rep._y_cache:
        factors = [rep.t_inv(i) for i in range(j - 1, 0, -1)]
        factors += [rep.zeta] + [rep.t(i) for i in range(n - 1, j - 1, -1)]
        rep._y_cache[j] = _product(n, factors)
    return rep._y_cache[j]


def y_operators(rep: SpinRep) -> list[BlockOp]:
    return [y_operator(rep, j) for j in range(1, rep.n + 1)]


def y_power(rep: SpinRep, lam: Sequence[int]) -> BlockOp:
    """Y^lam = Y_1^{lam_1} ... Y_n^{lam_n} (negative exponents via blockwise inversion)."""
    if len(lam) != rep.n:
        raise ValueError("exponent vector length must match the number of sites")
    factors = []
    for j, e in enumerate(lam, start=1):
        if e == 0:
            continue
        yj = y_operator(rep, j)
        if e < 0:
            yj = yj.inv()
            e = -e
        factors.append(yj.matrix_power(e))
    return _product(rep.n, factors)


def t_word(rep: SpinRep, w: Perm) -> BlockOp:
    """T_w, the product of T_i over a reduced word of w."""
    return _product(rep.n, [rep.t(i) for i in reduced_word(w)])


def rho_vector(n: int, kappa: complex) -> tuple[complex, ...]:
    """((n-1) kappa, (n-3) kappa, ..., (1-n) kappa)."""
    return tuple((n + 1 - 2 * j) * kappa for j in range(1, n + 1))


def y_tilde(rep: SpinRep, lam: Sequence[int]) -> BlockOp:
    """Braid-limit family p^{-(rho, lam)} T_w0 Y^{w0 lam} T_w0^{-1}."""
    n = rep.n
    ep = rep.params.elliptic
    rho = rho_vector(n, ep.kappa)
    pairing = sum(r * l for r, l in zip(rho, lam))
    w0 = tuple(range(n, 0, -1))
    lam_rev = tuple(reversed(tuple(lam)))  # w0 acts on exponents by reversal
    tw0 = t_word(rep, w0)
    return pow_p(ep, -pairing) * tw0 @ y_power(rep, lam_rev) @ tw0.inv()


def cross_relation_residual(rep: SpinRep, i: int, lam: Sequence[int]) -> float:
    """Defect of the Bernstein-Zelevinsky cross relation with denominator cleared.

    (T_i Y^lam - Y^{s_i lam} T_i)(1 - Y_i^{-1} Y_{i+1}) = (q - 1/q)(Y^lam - Y^{s_i lam})
    """
    q = rep.params.q
    lam = tuple(lam)
    s_lam = list(lam)
    s_lam[i - 1], s_lam[i] = s_lam[i], s_lam[i - 1]
    y_lam = y_power(rep, lam)
    y_slam = y_power(rep, tuple(s_lam))
    ti = rep.t(i)
    clear = BlockOp.identity(rep.n) - y_operator(rep, i).inv() @ y_operator(rep, i + 1)
    lhs = (ti @ y_lam - y_slam @ ti) @ clear
    rhs = (q - 1.0 / q) * (y_lam - y_slam)
    scale = max(frob(ti @ y_lam @ clear), frob(rhs), 1.0)
    return frob(lhs - rhs) / scale
