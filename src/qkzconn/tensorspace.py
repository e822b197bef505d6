"""Complex operators on tensor powers of the 3-dimensional site space.

The tensor-product basis of (C^3)^(x n) is enumerated odometer-style: the
multi-index (a_1, ..., a_n) over {1, 2, 3} sits at linear index
sum_k (a_k - 1) * 3^(n-k), so the first site is the most significant digit.
For n = 2 this reproduces the ordered basis (v1 v1, v1 v2, v1 v3, v2 v1, ...).

The spin representation preserves the content of a multi-index (how many of
its entries are 1, 2 and 3), so its operators are block-diagonal by content.
``BlockOp`` stores only those blocks: ``block_layout(n)`` groups the blocks
of n sites by their dimension d, and a ``BlockOp`` holds one (k, d, d) stack
per group.  Products and sums act stack by stack.

Every letter the program multiplies has at most two nonzeros per column:
a content-preserving two-leg operator sends e_(..ab..) into
span{e_(..ab..), e_(..ba..)}, the rotation sends each basis vector to one
rotated basis vector, and a one-letter connection matrix sends a coset
representative sigma into span{sigma, s sigma}.  So column c of a letter is
a_c e_c + b_c e_pi(c) for a column permutation pi, and ``column_products``,
the one product engine, multiplies words of such letters by column
operations; ``column_images`` applies the same words to vectors.
``letter_table(n)`` holds, per content group, the column permutation pi of
each spin-representation letter (the identity, the rotation, its inverse
and the swap of the legs i, i+1).

Local operators are embedded in one way, as column data: ``two_leg_columns``
gives the leg-swap permutation and the two entries per column of op x I on
the legs (a, b), for a 9x9 operator (or a stack) that keeps the content of
its two legs; a control leg picks the operator by its value, which gives the
dynamical shifts.  ``neighbour_columns`` gives the entries of every
neighbour pair (i, i+1) at once, and ``word_residuals`` compares two words
of such letters draw by draw.  ``two_leg_op``, the dense embedding, is the
tests' independent reference.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DIM = 3

#: parity of the basis vectors v_1, v_2, v_3 (v_3 is the odd one)
PARITY = (0, 0, 1)

#: weights of v_1, v_2, v_3 in the Cartan coordinates (E11, E22, E33)
WEIGHTS = ((1, 0, 0), (0, 1, 0), (0, 0, -1))


def multi_indices(n: int) -> list[tuple[int, ...]]:
    """All multi-indices over {1, 2, 3} in basis order."""
    return list(itertools.product((1, 2, 3), repeat=n))


def tensor_index(alpha: Sequence[int]) -> int:
    """Linear basis index of the multi-index alpha."""
    idx = 0
    for a in alpha:
        idx = 3 * idx + (a - 1)
    return idx


def permutation_op() -> np.ndarray:
    """Flip operator P(u x w) = w x u on the two-site space."""
    p = np.zeros((DIM**2, DIM**2), dtype=complex)
    for a in range(DIM):
        for b in range(DIM):
            p[b * DIM + a, a * DIM + b] = 1.0
    return p


def two_leg_op(op: np.ndarray, n: int, a: int, b: int) -> np.ndarray:
    """Embed a two-site operator on the (not necessarily adjacent) legs a < b
    as a dense d^n x d^n matrix, the tests' reference for ``two_leg_columns``.

    The site dimension d is read from the operator's shape (d^2 x d^2).  An
    op of shape S + (d^2, d^2) gives a stack of shape S + (d^n, d^n).
    """
    if not 1 <= a < b <= n:
        raise ValueError(f"leg pair ({a}, {b}) out of range for n={n}")
    op = np.asarray(op)
    lead = op.shape[:-2]
    m = len(lead)
    d = math.isqrt(op.shape[-1])
    out = np.empty(lead + (d**n, d**n), dtype=complex)
    # view the result with the row legs a, b first, then the column legs a, b,
    # and write op x I into that view
    rest = [k for k in range(n) if k not in (a - 1, b - 1)]
    legs = [a - 1, b - 1] + rest
    axes = list(range(m)) + [m + k for k in legs] + [m + n + k for k in legs]
    view = out.reshape(lead + (d,) * (2 * n)).transpose(axes)
    eye = np.eye(d ** (n - 2)).reshape((1, 1) + (d,) * (n - 2) + (1, 1) + (d,) * (n - 2))
    np.multiply(op.reshape(lead + (d, d) + (1,) * (n - 2) + (d, d) + (1,) * (n - 2)), eye, out=view)
    return out


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Where the content blocks of (C^3)^(x n) sit in the tensor basis.

    Group g holds the blocks of one dimension d: ``index[g]`` is a (k, d)
    array whose row b lists the tensor indices of one block in ascending
    order.  ``group``, ``block`` and ``pos`` map a tensor index back to its
    group, its row in that group and its place in the row; ``digits`` holds
    the multi-index of every basis vector, shifted to {0, 1, 2}.
    """

    n: int
    digits: np.ndarray
    index: tuple[np.ndarray, ...]
    group: np.ndarray
    block: np.ndarray
    pos: np.ndarray


@functools.cache
def block_layout(n: int) -> BlockLayout:
    """The layout of the n-site content blocks, built once per n and shared."""
    alphas = list(itertools.product(range(DIM), repeat=n))
    blocks: dict[tuple[int, ...], list[int]] = {}
    for t, alpha in enumerate(alphas):
        blocks.setdefault(tuple(alpha.count(v) for v in range(DIM)), []).append(t)
    digits = np.array(alphas, dtype=np.intp)
    group, block, pos = (np.empty(DIM**n, dtype=np.intp) for _ in range(3))
    index = []
    for g, d in enumerate(sorted({len(rows) for rows in blocks.values()})):
        rows = np.array([rows for rows in blocks.values() if len(rows) == d], dtype=np.intp)
        group[rows] = g
        block[rows] = np.arange(len(rows))[:, None]
        pos[rows] = np.arange(d)
        index.append(rows)
    for arr in (digits, group, block, pos, *index):
        arr.flags.writeable = False
    return BlockLayout(n, digits, tuple(index), group, block, pos)


def _leg_swap(n: int, a: int, b: int) -> tuple[int, ...]:
    # the digit order that exchanges the legs a and b (1-based)
    order = list(range(n))
    order[a - 1], order[b - 1] = b - 1, a - 1
    return tuple(order)


@functools.cache
def _column_perms(n: int, order: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    # per group of block_layout(n), for the column c of block b at flat place
    # b*d + c: the flat place b*d + pi(c) of the basis vector whose digits
    # are those of c read in ``order`` (it has the same content, so the same block)
    layout = block_layout(n)
    moved = layout.digits[:, list(order)] @ DIM ** np.arange(n - 1, -1, -1)
    perms = []
    for idx in layout.index:
        target = moved[idx].reshape(-1)
        perm = layout.block[target] * idx.shape[1] + layout.pos[target]
        perm.flags.writeable = False
        perms.append(perm)
    return tuple(perms)


@functools.cache
def letter_table(n: int) -> tuple[np.ndarray, ...]:
    """The column permutations of the spin-representation letters on n sites.

    One read-only (n + 2, k*d) array per group of ``block_layout(n)``, one
    row per letter: 0 the identity, 1 the rotation (the digits (a_1, ..., a_n)
    of a column go to (a_n, a_1, ..., a_{n-1})), 2 its inverse and 2 + i the
    swap of the legs i and i + 1.  Entry b*d + c of a row is b*d + pi(c): the
    flat place in the group of the row where column c of block b may hold its
    second nonzero.  Built on first use, once per n.
    """
    orders = [tuple(range(n)), (n - 1, *range(n - 1)), (*range(1, n), 0)]
    orders += [_leg_swap(n, i, i + 1) for i in range(1, n)]
    table = tuple(np.stack(rows) for rows in zip(*(_column_perms(n, order) for order in orders)))
    for arr in table:
        arr.flags.writeable = False
    return table


def column_products(perm: np.ndarray, a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """The products of words of letters with at most two nonzeros per column.

    ``perm``, ``a`` and ``b`` are (positions, words, k*d) stacks, with at
    least one position.  Column c of block j of the letter at (position,
    word), at the flat place j*d + c, is a e_c + b e_pi(c), where perm holds
    the flat place j*d + pi(c) and b is 0 where pi(c) = c.  Returns the
    (words, k, d, d) products of each word's letters, left to right,
    multiplied in as column operations:
    (M L)[:, c] = a_c M[:, c] + b_c M[:, pi(c)].  The products are kept
    transposed as (words, k*d, d) stacks, so that pi gathers whole rows; every
    operation acts on each word alone.  The identity letter (pi(c) = c,
    a = 1, b = 0) pads a shorter word exactly: a batch equals its one-word
    calls value for value (zero entries may differ in sign).
    """
    nw, kd = perm.shape[1:]
    # row w*k*d + j*d + c of ``rows`` holds column c of block j of word w's product
    mat = np.zeros((nw, kd, d), dtype=complex)
    rows = mat.reshape(nw * kd, d)
    src = (perm + kd * np.arange(nw)[:, None]).reshape(len(perm), nw * kd)
    every = np.arange(nw * kd)
    # the first letter is the starting product; its entry in row pi(c) goes
    # first, as at a fixed point of pi it is 0 (kd is a multiple of d)
    rows[every, src[0] % d] = b[0].reshape(-1)
    rows[every, every % d] = a[0].reshape(-1)
    for pos in range(1, len(perm)):
        moved = np.take(rows, src[pos], axis=0).reshape(nw, kd, d)
        moved *= b[pos, :, :, None]
        mat *= a[pos, :, :, None]
        mat += moved
    return mat.reshape(nw, kd // d, d, d).swapaxes(-1, -2)


def column_images(perm: np.ndarray, a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (words, k*d) images of a (words, k*d) stack of vectors v under the
    words of ``column_products``' column data, each word's letters applied
    last letter first.  Column c of a letter L sends v_c to a_c v_c at c and
    b_c v_c at pi(c), so L v is a v plus b v added at the places pi: a
    scatter, which holds for the rotation too, whose pi is no involution."""
    out = np.array(v, dtype=complex)
    words = np.arange(len(out))[:, None]
    for p, x, y in zip(perm[::-1], a[::-1], b[::-1]):
        moved = y * out
        out *= x
        out[words, p] += moved
    return out


def two_leg_columns(op: np.ndarray, n: int, a: int, b: int, control: int | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """The column data of op x I on the legs (a, b) of n sites, for 9x9
    operators that keep the content of their two legs: per group of
    ``block_layout(n)``, the (k*d,) column permutation of the leg swap and the
    entries, S + (2, k*d) for a stack S + (9, 9) of operators.

    Column c, with the digits (x, y) on the legs (a, b), holds op[(x, y), (x, y)]
    on the diagonal (row 0) and op[(y, x), (x, y)] in the row of the basis
    vector with the two legs swapped (row 1, 0 where x = y); every other entry
    is 0.  With a ``control`` leg, op is a stack S + (m, 9, 9), and a column
    whose control leg holds v_j reads op[..., j-1, :, :]: the dynamical
    shifts.  A value j > m reads the zero operator.  Each group's entries are
    one gather from the flattened stack.
    """
    if not 1 <= a < b <= n:
        raise ValueError(f"leg pair ({a}, {b}) out of range for n={n}")
    if control is not None and (control in (a, b) or not 1 <= control <= n):
        raise ValueError(f"control leg {control} must be a leg of n={n} outside the pair ({a}, {b})")
    op = np.asarray(op, dtype=complex)
    _check_content(op)
    lead, m = (op.shape[:-2], 1) if control is None else (op.shape[:-3], op.shape[-3])
    flat = np.concatenate([op.reshape(lead + (-1,)), np.zeros(lead + (1,), dtype=complex)], axis=-1)
    perms = _column_perms(n, _leg_swap(n, a, b))
    return [(perm, flat[..., places]) for perm, places in zip(perms, _two_leg_places(n, a, b, control, m))]


def neighbour_columns(op: np.ndarray, n: int) -> list[np.ndarray]:
    """The entries of ``two_leg_columns(op, n, i, i + 1)`` for i = 1 .. n-1,
    stacked as one (2, n-1, k*d) array [row, pair, column] per group of
    ``block_layout(n)``: one gather per group from the entries of op and a
    trailing 0."""
    _check_content(op)
    flat = np.append(np.asarray(op, dtype=complex).reshape(-1), 0.0)
    return [flat[places] for places in _neighbour_places(n)]


#: the entries of a 9x9 operator that change the content of its two legs:
#: those between local indices (x, y) and (x', y') with {x, y} != {x', y'}
_CHANGES_CONTENT = np.array([[sorted(divmod(r, DIM)) != sorted(divmod(c, DIM)) for c in range(DIM**2)] for r in range(DIM**2)])


def _check_content(op: np.ndarray) -> None:
    # a 9x9 op, or each of a stack, keeps the content of its two legs when it
    # is 0 at every entry of _CHANGES_CONTENT
    if np.asarray(op)[..., _CHANGES_CONTENT].any():
        raise ValueError("the operator changes the content of its two legs")


@functools.cache
def _two_leg_places(n: int, a: int, b: int, control: int | None = None, m: int = 1) -> tuple[np.ndarray, ...]:
    # per group of block_layout(n), the read-only (2, k*d) places of the two
    # entries per column in a stack of m 9x9 operators, flattened and followed
    # by a 0 at m*DIM**4: column c with the digits (x, y) on the legs (a, b)
    # and j on the control leg (j = 0 without one) reads op[j][xy, xy] and
    # op[j][yx, xy], or the trailing 0 where x = y or j >= m
    layout = block_layout(n)
    out = []
    for idx in layout.index:
        digits = layout.digits[idx.reshape(-1)]
        x, y = digits[:, a - 1], digits[:, b - 1]
        j = np.zeros_like(x) if control is None else digits[:, control - 1]
        local = j * DIM**4 + (x * DIM + y) * (DIM**2 + 1)
        swapped = j * DIM**4 + (y * DIM + x) * DIM**2 + x * DIM + y
        places = np.where(j < m, np.stack([local, np.where(x == y, m * DIM**4, swapped)]), m * DIM**4)
        places.flags.writeable = False
        out.append(places)
    return tuple(out)


@functools.cache
def _neighbour_places(n: int) -> tuple[np.ndarray, ...]:
    # per group of block_layout(n), the read-only (2, n-1, k*d) places of
    # _two_leg_places for every neighbour pair (i, i+1), built once per n
    out = []
    for pairs in zip(*(_two_leg_places(n, i, i + 1) for i in range(1, n))):
        places = np.stack(pairs, axis=1)
        places.flags.writeable = False
        out.append(places)
    return tuple(out)


def word_residuals(n: int, lhs: Sequence[tuple], rhs: Sequence[tuple], sites: int = DIM):
    """``rel_residual`` of two products of two-leg letters, one per draw.

    ``lhs`` and ``rhs`` are words of the same length.  A letter is
    (op, a, b) or (op, a, b, control), the arguments of ``two_leg_columns``
    with the draws on the stack axes S of op, the same for every letter.  The
    words are multiplied left to right, both sides of every draw in one
    ``column_products`` call per content group.  The residual is taken over
    the blocks whose legs hold only the first ``sites`` basis vectors
    (``sites`` = 2: the blocks with no v_3 leg, which are (C^2)^(x n)).
    Returns one residual per draw, shaped S (a float for one draw).
    """
    columns = [two_leg_columns(op, n, *legs) for op, *legs in (*lhs, *rhs)]
    shape = columns[0][0][1].shape[:-2]
    draws = math.prod(shape)
    layout = block_layout(n)
    # |lhs - rhs|^2, |lhs|^2 and |rhs|^2 per draw, summed over the kept blocks
    sums = np.zeros((3, draws))
    for g, idx in enumerate(layout.index):
        keep = (layout.digits[idx[:, 0]] < sites).all(axis=1)
        if not keep.any():
            continue
        k, d = idx.shape
        # positions, then the words of every draw: the left sides, then the right
        perm = np.repeat(np.stack([cols[g][0] for cols in columns]).reshape(2, -1, k * d).swapaxes(0, 1), draws, axis=1)
        entries = np.stack([cols[g][1].reshape(draws, 2, k * d) for cols in columns])
        entries = entries.reshape(2, -1, draws, 2, k * d).swapaxes(0, 1).reshape(-1, 2 * draws, 2, k * d)
        prods = column_products(perm, entries[..., 0, :], entries[..., 1, :], d).reshape(2, draws, k, d, d)
        prods = prods[:, :, keep]
        parts = np.stack([prods[0] - prods[1], prods[0], prods[1]])
        sums += (parts.real**2 + parts.imag**2).reshape(3, draws, -1).sum(axis=2)
    big = np.sqrt(np.maximum(sums[1], sums[2]))
    out = (np.sqrt(sums[0]) / np.where(big > 0.0, big, 1.0)).reshape(shape)
    return out.item() if out.ndim == 0 else out


class BlockOp:
    """A content-preserving operator on (C^3)^(x n), stored block by block.

    ``stacks[g]`` is the (k, d, d) stack of the blocks of group g of
    ``layout``; the entries between different contents are zero and are not
    stored.  ``@``, ``+`` and ``-`` take another BlockOp on the same sites,
    ``*`` and ``/`` a scalar.  ``shape`` is the logical (3^n, 3^n) and
    ``nbytes`` what the stacks hold.
    """

    __slots__ = ("layout", "stacks")
    # numpy defers to the operators below: a numpy scalar times a BlockOp is
    # a BlockOp, and mixing a BlockOp with an ndarray raises TypeError
    __array_ufunc__ = None

    def __init__(self, layout: BlockLayout, stacks) -> None:
        self.layout = layout
        self.stacks = tuple(stacks)

    @property
    def shape(self) -> tuple[int, int]:
        dim = DIM**self.layout.n
        return (dim, dim)

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self.stacks)

    def _pairwise(self, other, fn) -> "BlockOp":
        if not isinstance(other, BlockOp):
            return NotImplemented
        if other.layout is not self.layout:
            raise ValueError(f"operators on {self.layout.n} and {other.layout.n} sites do not combine")
        return BlockOp(self.layout, map(fn, self.stacks, other.stacks))

    def __matmul__(self, other: "BlockOp") -> "BlockOp":
        return self._pairwise(other, np.matmul)

    def __add__(self, other: "BlockOp") -> "BlockOp":
        return self._pairwise(other, np.add)

    def __sub__(self, other: "BlockOp") -> "BlockOp":
        return self._pairwise(other, np.subtract)

    def __mul__(self, c: complex) -> "BlockOp":
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return BlockOp(self.layout, (s * c for s in self.stacks))

    __rmul__ = __mul__

    def __truediv__(self, c: complex) -> "BlockOp":
        if not isinstance(c, numbers.Number):
            return NotImplemented
        return BlockOp(self.layout, (s / c for s in self.stacks))

    def eigvals(self) -> np.ndarray:
        """The eigenvalues of every block, concatenated."""
        return np.concatenate([np.linalg.eigvals(s).reshape(-1) for s in self.stacks])

    def dense(self) -> np.ndarray:
        """The full 3^n x 3^n matrix (for independent references in tests)."""
        out = np.zeros(self.shape, dtype=complex)
        for idx, s in zip(self.layout.index, self.stacks):
            out[idx[:, :, None], idx[:, None, :]] = s
        return out


def frob(mat: np.ndarray | BlockOp) -> float:
    """Frobenius norm of a matrix; a BlockOp's is that of its stored blocks."""
    if isinstance(mat, BlockOp):
        return math.hypot(*(float(np.linalg.norm(s)) for s in mat.stacks))
    return float(np.linalg.norm(mat))


def rel_residual(lhs: np.ndarray | BlockOp, rhs: np.ndarray | BlockOp) -> float:
    """Frobenius distance of two matrices over the larger of their norms."""
    scale = max(frob(lhs), frob(rhs))
    if scale == 0.0:
        return 0.0
    return frob(lhs - rhs) / scale
