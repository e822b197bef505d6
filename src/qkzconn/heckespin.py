"""The spin representation of the extended affine Hecke algebra on (C^3)^(x n).

The constant braid matrix acts on neighbouring legs as the generators T_i,
and the quasi-cyclic generator acts as a rotation composed with a diagonal
twist on the last leg.  Both keep the content of a multi-index, so every
generator, and every product of them, is a ``BlockOp``: it is built one
content block at a time.  Every generator has at most two nonzeros per
column, and ``spin_rep`` computes only those column entries, those of all
the T_i (and of all the T_i^{-1}) by one gather per content group.
``spin_products`` is the one product of words in these letters, by one
``tensorspace.column_products`` call per content group.  It builds the
commuting family Y_j and its powers Y^lam, the braid-limit family
``y_tilde`` and the qKZ transports, and ``word_pair_residuals`` checks every
relation of the generators as a pair of words on it.  The generator
operators (``SpinRep.t_ops`` and the rest) are built by it too, but remain
only as the tests' references and for the benchmark tracer: no product of
them is taken.
``spin_images`` applies such words to one basis vector, all that the eigen
and sign checks of ``blocks`` read.  A negative power is a word of inverse
letters, so no block is inverted.  ``y_tilde`` is a product of the
commuting family X_j of the opposite orientation (T_i and T_i^{-1} swapped
in the word of Y_j), which is the T_w0 conjugate of the Y family, so it
needs no T_w0 letter.
Baxterization turns the braid matrix into the spectral-parameter solution
of the quantum Yang-Baxter equation (the supersymmetric three-state vertex
model weights).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elliptic import EllipticParams, PoleError, pow_p
from .tensorspace import (
    DIM,
    BlockOp,
    block_layout,
    column_images,
    column_products,
    frob,
    letter_table,
    neighbour_columns,
    permutation_op,
    rel_residual,
    word_residuals,
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
    "spin_products",
    "word_pair_residuals",
    "spin_images",
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


def qybe_residual(r_x: np.ndarray, r_xy: np.ndarray, r_y: np.ndarray):
    """Defect of R12(x) R13(xy) R23(y) = R23(y) R13(xy) R12(x) on three legs.

    ``r_x``, ``r_xy`` and ``r_y`` are stacks S + (9, 9) of R(x), R(xy) and
    R(y), which keep the content of their two legs; both sides of every draw
    are words on ``tensorspace.word_residuals``.  Returns one residual per
    draw, shaped S (a float for one draw).
    """
    return word_residuals(3, [(r_x, 1, 2), (r_xy, 1, 3), (r_y, 2, 3)], [(r_y, 2, 3), (r_xy, 1, 3), (r_x, 1, 2)])


@dataclass
class SpinRep:
    """Generators of the spin representation on (C^3)^(x n), as content blocks.

    ``columns`` holds every generator as its two entries per column, and
    every product of generators, the qKZ transports and the relation checks
    read only ``columns``.  The generator operators ``t_ops``, ``t_inv_ops``,
    ``zeta`` and ``zeta_inv`` are built from them on first use, all four by
    one ``spin_products`` call; they remain only as the tests' references
    and for the benchmark tracer.
    """

    params: HeckeParams
    phi: tuple[complex, complex, complex]
    braid: np.ndarray
    #: per group of ``block_layout(n)``, the column entries of the generators
    #: as a (2, 2, n + 2, k*d) array [side, diagonal or row pi(c), letter,
    #: column] with the letters of ``letter_table(n)``: side 0 holds the
    #: identity, zeta, zeta^{-1} and T_i^{-1}, side 1 zero, zero, zero and T_i
    columns: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def dim(self) -> int:
        return DIM**self.params.n

    @functools.cached_property
    def _generators(self) -> tuple[BlockOp, BlockOp, tuple[BlockOp, ...], tuple[BlockOp, ...]]:
        # zeta, zeta^{-1}, the T_i^{-1} and the T_i, one letter each
        n = self.n
        words = [[(1, 0)], [(2, 0)]] + [[(2 + i, side)] for side in (0, 1) for i in range(1, n)]
        gens = spin_products(self, words)
        return gens[0], gens[1], tuple(gens[2 : n + 1]), tuple(gens[n + 1 :])

    @property
    def zeta(self) -> BlockOp:
        return self._generators[0]

    @property
    def zeta_inv(self) -> BlockOp:
        return self._generators[1]

    @property
    def t_inv_ops(self) -> tuple[BlockOp, ...]:
        return self._generators[2]

    @property
    def t_ops(self) -> tuple[BlockOp, ...]:
        return self._generators[3]


def _generator_columns(params: HeckeParams, b: np.ndarray, phi: Sequence[complex]) -> list[np.ndarray]:
    # the ``SpinRep.columns`` of the braid matrix b and the twist phi.  zeta
    # sends v_(a_1 .. a_n) to p^{-phi_{a_n}} v_(a_n a_1 .. a_{n-1}), and
    # zeta^{-1} sends v_(a_1 .. a_n) to p^{phi_{a_1}} v_(a_2 .. a_n a_1)
    n, q = params.n, params.q
    b_inv = b - (q - 1.0 / q) * np.eye(9, dtype=complex)
    twists = [pow_p(params.elliptic, -complex(phi[j])) for j in range(3)]
    twist = np.array(twists)
    twist_inv = np.array([1.0 / c for c in twists])
    layout = block_layout(n)
    out = []
    for idx, perms in zip(layout.index, letter_table(n)):
        digits = layout.digits[idx.reshape(-1)]
        fixed = perms == np.arange(idx.size)
        cols = np.zeros((2, 2, n + 2, idx.size), dtype=complex)
        cols[0, 0, 0] = 1.0
        for row, values in ((1, twist[digits[:, -1]]), (2, twist_inv[digits[:, 0]])):
            cols[0, :, row] = np.where(fixed[row], values, 0.0), np.where(fixed[row], 0.0, values)
        out.append(cols)
    for side, op in enumerate((b_inv, b)):
        for cols, entries in zip(out, neighbour_columns(op, n)):
            cols[side, :, 3:] = entries
    return out


def spin_rep(params: HeckeParams, phi: Sequence[complex]) -> SpinRep:
    """The spin representation for the given twist: the column entries of its
    generators, from which the generator operators are built on first use."""
    phi = tuple(complex(t) for t in phi)
    if len(phi) != 3:
        raise ValueError("the twist takes exactly three components")
    b = braid_matrix(params.q)
    return SpinRep(params=params, phi=phi, braid=b, columns=tuple(_generator_columns(params, b, phi)))


def _padded(words: Sequence[Sequence[tuple[int, int]]]) -> np.ndarray:
    # the (positions, words) rows, then sides, of the words padded with the identity letter
    length = max(1, max(map(len, words), default=0))
    padded = [list(word) + [(0, 0)] * (length - len(word)) for word in words]
    return np.array(padded, dtype=np.intp).reshape(len(words), length, 2).T


def spin_products(rep: SpinRep, words: Sequence[Sequence[tuple[int, int]]], t=0.0, den=1.0) -> list[BlockOp]:
    """The product of each word of spin-representation letters, one ``BlockOp``
    per word, by one ``column_products`` call per content group.

    A letter is a pair (row, side): its row of ``letter_table(n)`` (0 the
    identity, 1 zeta, 2 zeta^{-1}, 2 + i the pair T_i^{-1}, T_i) and the side
    of ``SpinRep.columns`` it reads as its own (1 for T_i, 0 otherwise).  Its
    column entries are (own side - t * other side) / den, with ``t`` and
    ``den`` scalars or (positions, words) arrays.  The qKZ transport letter
    (T_i^{-1} - t T_i) / (1/q - q t) is side 0 with its t and den; a generator
    letter takes t = 0 and den = 1, which leave its entries exact.  A shorter
    word is padded with the identity letter, so an empty word is the identity.
    """
    n = rep.n
    rows, sides = _padded(words)
    layout = block_layout(n)
    stacks = []
    other, minus_t, den = 1 - sides, -np.asarray(t)[..., None, None], np.asarray(den)[..., None, None]
    for idx, perms, cols in zip(layout.index, letter_table(n), rep.columns):
        # (positions, words, 2, k*d): a_c, then b_c, of every letter, as
        # (own - t * other) / den in one array, without temporaries
        entries = cols[other, :, rows]
        entries *= minus_t
        entries += cols[sides, :, rows]
        entries /= den
        stacks.append(column_products(perms[rows], entries[:, :, 0], entries[:, :, 1], idx.shape[1]))
    return [BlockOp(layout, (s[w] for s in stacks)) for w in range(len(words))]


def word_pair_residuals(rep: SpinRep, pairs: Sequence[tuple[Sequence, Sequence]]) -> list[float]:
    """``rel_residual`` of the two sides of each (lhs word, rhs word) pair of
    generator letters (those of ``spin_products`` at t = 0 and den = 1), both
    sides of every pair multiplied in one ``spin_products`` call."""
    prods = spin_products(rep, [word for pair in pairs for word in pair])
    return [rel_residual(lhs, rhs) for lhs, rhs in zip(prods[::2], prods[1::2])]


def spin_images(rep: SpinRep, words: Sequence[Sequence[tuple[int, int]]], source: int) -> np.ndarray:
    """The image of the basis vector e_source under each word of generator
    letters (those of ``spin_products`` at t = 0 and den = 1), by one
    ``column_images`` call on the content block of e_source: a (words, d)
    array whose entry c is the coordinate at place c of the block, as
    ``block_layout(n).pos`` numbers the places."""
    return _padded_images(rep, *_padded(words), source)


def _padded_images(rep: SpinRep, rows: np.ndarray, sides: np.ndarray, source: int) -> np.ndarray:
    # spin_images of words already padded into (positions, words) rows and sides
    layout = block_layout(rep.n)
    g, b, pos = layout.group[source], layout.block[source], layout.pos[source]
    d = layout.index[g].shape[1]
    # the letters' column data on block b alone, at the flat places b*d .. b*d + d - 1
    place = slice(b * d, (b + 1) * d)
    entries = rep.columns[g][sides, :, rows, place]
    start = np.broadcast_to(np.eye(d, dtype=complex)[pos], (rows.shape[1], d))
    return column_images(letter_table(rep.n)[g][rows, place] - b * d, entries[:, :, 0], entries[:, :, 1], start)


#: the letter zeta of ``spin_products``
_ZETA = (1, 0)


def _t(i: int) -> tuple[int, int]:
    # the letter T_i of ``spin_products``
    return (2 + i, 1)


def _family_letters(n: int, lam: Sequence[int], opposite: bool = False) -> list[tuple[int, int]]:
    # Y^lam = Y_1^{lam_1} .. Y_n^{lam_n} as (letter-table row, side) letters,
    # Y_j = T_{j-1}^{-1} .. T_1^{-1} zeta T_{n-1} .. T_j, or with ``opposite``
    # X^lam, X_j = T_{j-1} .. T_1 zeta T_{n-1}^{-1} .. T_j^{-1}: the same word
    # with T_i and T_i^{-1} swapped.  A negative power is the reversed word of
    # inverse letters
    if len(lam) != n:
        raise ValueError("exponent vector length must match the number of sites")
    left, right = (1, 0) if opposite else (0, 1)
    letters = []
    for j, e in enumerate(lam, start=1):
        word = [(2 + i, left) for i in range(j - 1, 0, -1)] + [(1, 0)] + [(2 + i, right) for i in range(n - 1, j - 1, -1)]
        if e < 0:
            word = [(3 - row, 0) if row < 3 else (row, 1 - side) for row, side in reversed(word)]
        letters += abs(e) * word
    return letters


def rho_vector(n: int, kappa: complex) -> tuple[complex, ...]:
    """((n-1) kappa, (n-3) kappa, ..., (1-n) kappa)."""
    return tuple((n + 1 - 2 * j) * kappa for j in range(1, n + 1))


def y_tilde(rep: SpinRep, lam: Sequence[int]) -> BlockOp:
    """Braid-limit family p^{-(rho, lam)} T_w0 Y^{w0 lam} T_w0^{-1}, built as
    p^{-(rho, lam)} X_1^{lam_1} .. X_n^{lam_n} with no T_w0 letter.

    X_j = T_{j-1} .. T_1 zeta T_{n-1}^{-1} .. T_j^{-1} is the word of Y_j with
    T_i and T_i^{-1} swapped, and T_w0 Y_{n+1-j} T_w0^{-1} = X_j:

    - j = 1: T_w0 = T_1 .. T_{n-1} T_w0', with w0' the longest element on the
      sites 1 .. n-1.  T_w0' commutes with Y_n = T_{n-1}^{-1} .. T_1^{-1} zeta,
      so T_w0 Y_n T_w0^{-1} = T_1 .. T_{n-1} Y_n T_{n-1}^{-1} .. T_1^{-1}
      = zeta T_{n-1}^{-1} .. T_1^{-1} = X_1.
    - From Y_j = T_j Y_{j+1} T_j and T_w0 T_i T_w0^{-1} = T_{n-i}, conjugating
      Y_{n-j} = T_{n-j} Y_{n+1-j} T_{n-j} by T_w0 gives X_{j+1} = T_j X_j T_j.

    Y^{w0 lam} = Y_1^{lam_n} .. Y_n^{lam_1}, and the X_j commute, so the
    conjugate is the product of the X_j^{lam_j}: one word of n sum_j |lam_j|
    generator letters, evaluated by ``spin_products``.  lam = 0 is the empty
    word, p^0 times the identity.
    """
    n = rep.n
    ep = rep.params.elliptic
    word = _family_letters(n, lam, opposite=True)
    scale = pow_p(ep, -sum(r * l for r, l in zip(rho_vector(n, ep.kappa), lam)))
    return scale * spin_products(rep, [word])[0]


def cross_relation_residual(rep: SpinRep, i: int, lam: Sequence[int]) -> float:
    """Defect of the Bernstein-Zelevinsky cross relation with denominator cleared.

    (T_i Y^lam - Y^{s_i lam} T_i)(1 - R) = (q - 1/q)(Y^lam - Y^{s_i lam}),
    R = Y_i^{-1} Y_{i+1}, with its six words T_i Y^lam, Y^{s_i lam} T_i, their
    products with R, Y^lam and Y^{s_i lam} from one ``spin_products`` call.
    """
    q = rep.params.q
    n = rep.n
    s_lam = list(lam)
    s_lam[i - 1], s_lam[i] = s_lam[i], s_lam[i - 1]
    ratio = [0] * n
    ratio[i - 1], ratio[i] = -1, 1
    y_lam, y_slam, r = (_family_letters(n, v) for v in (lam, s_lam, ratio))
    ti = [_t(i)]
    words = [ti + y_lam, y_slam + ti, ti + y_lam + r, y_slam + ti + r, y_lam, y_slam]
    ty, yt, tyr, ytr, y_lam_op, y_slam_op = spin_products(rep, words)
    lhs = (ty - yt) - (tyr - ytr)
    rhs = (q - 1.0 / q) * (y_lam_op - y_slam_op)
    scale = max(frob(ty - tyr), frob(rhs), 1.0)
    return frob(lhs - rhs) / scale
