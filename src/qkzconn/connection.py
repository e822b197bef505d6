"""Connection matrices of the quantum affine KZ equations and the elliptic
dynamical R-matrix they assemble into.

For a principal-series block the one-letter connection matrix couples a
minimal coset representative sigma to s_{n-i} sigma: the operator labelled
s_i moves the coset side at the dual position n - i.  Conjugating the block
matrices to the tensor-product basis (with the explicit signs of the basis
map) produces an operator that acts locally on two neighbouring legs as a
dynamical R-matrix, with the dynamical parameters shifted according to the
value carried by a control leg.

The tensor-basis monodromy keeps content, so both of its independent routes
return a ``tensorspace.BlockOp`` built block by block on the one product
engine ``_products``: one takes its letters from the tensor basis, the other
reorders the block matrices with the signs of the basis map.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .blocks import PrincipalSeriesSpec, _block_gamma_raw, content_block, validate_spec
from .elliptic import EllipticParams, PoleError, coefficients
from .symgroup import (
    Content,
    Perm,
    act,
    compose,
    conjugation_index,
    content,
    content_stabiliser,
    eta_exponent,
    inverse,
    leading_index,
    min_coset_reps,
    multi_index_swap,
    rep_of_index,
    simple,
)
from .tensorspace import (
    DIM,
    PARITY,
    permutation_op,
    WEIGHTS,
    BlockOp,
    block_layout,
    controlled_op,
    tensor_index,
)

__all__ = [
    "ConnectionMatrix",
    "PSI_FAMILY",
    "PHI_FAMILY",
    "XI_FAMILY",
    "dual_position",
    "connection_simple",
    "connection_words",
    "tensor_monodromy_words",
    "tensor_monodromy_from_blocks_words",
    "dyn_r_matrix",
    "shifted_r_apply",
    "dybe_residual",
    "felder_residual",
]


def dual_position(n: int, i: int) -> int:
    """The coset-side position n - i coupled to the operator label s_i."""
    if not 1 <= i < n:
        raise ValueError(f"label {i} out of range for n={n}")
    return n - i


@dataclass
class ConnectionMatrix:
    """Matrix of the monodromy operator of a word w on a principal-series block.

    Rows and columns are indexed by ``basis``, the minimal coset
    representatives in lexicographic one-line order; ``entries[a, b]`` is the
    coefficient of basis[a] in the image of basis[b].
    """

    spec: PrincipalSeriesSpec
    word: Perm
    z: tuple[complex, ...]
    basis: tuple[Perm, ...]
    entries: np.ndarray


class _Letter(NamedTuple):
    """The z-independent pattern of a one-letter matrix.

    A column is fixed with value 1 (``ones``), fixed with the odd unit
    -c(x)/c(-x) (``odd``), or moving: a moving column ``cols[k]`` carries
    A(y_k, x) on the diagonal and ``signs[k] * B(y_k, x)`` at the row
    ``rows[k]``, with y_k = gamma[gi[k]] - gamma[gj[k]] for the spectral
    vector gamma of the matrix.
    """

    dim: int
    ones: np.ndarray
    odd: np.ndarray
    cols: np.ndarray
    rows: np.ndarray
    signs: np.ndarray
    gi: np.ndarray
    gj: np.ndarray


def _letter(dim: int, ones, odd, cols, rows, signs, gi, gj) -> _Letter:
    index = [np.array(v, dtype=np.intp) for v in (ones, odd, cols, rows)]
    gamma_index = [np.array(v, dtype=np.intp) for v in (gi, gj)]
    return _Letter(dim, *index, np.array(signs, dtype=float), *gamma_index)


@functools.cache
def _pad(dim: int) -> _Letter:
    # the identity as a letter: every column fixed with value 1
    return _letter(dim, range(dim), [], [], [], [], [], [])


def _fill(m: np.ndarray, at, letter: _Letter, a: np.ndarray, b: np.ndarray, unit: np.ndarray) -> None:
    # write the letter into the slots ``at`` (a slice, or a column of slot
    # numbers) of a zeroed (K, dim, dim) stack m; a and b hold one row of
    # moving-column values per slot, ``unit`` one odd unit per slot
    dim = letter.dim
    flat = m.reshape(len(m), dim * dim)
    flat[at, letter.ones * (dim + 1)] = 1.0
    flat[at, letter.odd * (dim + 1)] = unit[:, None]
    flat[at, letter.cols * (dim + 1)] = a
    flat[at, letter.rows * dim + letter.cols] = letter.signs * b


class _Word(NamedTuple):
    # letter patterns with their labels, the spectral vector, the letters'
    # arguments x_k and the matrix dimension
    letters: tuple[_Letter, ...]
    labels: tuple[int, ...]
    gamma: np.ndarray
    xs: tuple[complex, ...]
    dim: int


def _walk(labels: Sequence[int], z: tuple[complex, ...]) -> tuple[complex, ...]:
    # x_k = z_(i_k) - z_(i_k + 1) at the point moved by the letters before k;
    # s_i swaps the coordinates i and i + 1
    z = list(z)
    xs = []
    for i in labels:
        xs.append(z[i - 1] - z[i])
        z[i - 1], z[i] = z[i], z[i - 1]
    return tuple(xs)


def _products(ep: EllipticParams, words: Sequence[_Word]) -> list[np.ndarray]:
    """The product of each word's one-letter matrices, left to right.

    Every coefficient of every letter comes from one elliptic batch.  The
    words of one dimension multiply one letter position at a time as a
    (words, dim, dim) stack, starting from their first letters; each
    position's letters are filled as one stack, and a shorter word is padded
    with the identity, which leaves its product exact.  So a batch equals the
    one-word products bit for bit, given the same coefficients.
    """
    groups: dict[int, list[_Word]] = {}
    for word in words:
        groups.setdefault(word.dim, []).append(word)
    # each position of each dimension, with the slots that hold each distinct
    # letter there (the pad for the words that have ended); the batch takes
    # their coefficients in that order.  A letter without an odd column, or a
    # pad, asks for the unit at u = 0, which is 1 and costs no theta factor
    plan = []
    ys, xs, us = [], [], []
    for dim, members in groups.items():
        for k in range(max(1, max(len(word.letters) for word in members))):
            slots: dict[int, list[int]] = {}
            for s, word in enumerate(members):
                slots.setdefault(id(word.letters[k]) if k < len(word.letters) else 0, []).append(s)
            fills = []
            for same in slots.values():
                if k >= len(members[same[0]].letters):
                    fills.append((_pad(dim), same))
                    us.append(np.zeros(len(same), dtype=complex))
                    continue
                letter = members[same[0]].letters[k]
                x = np.array([members[s].xs[k] for s in same])
                gamma = np.array([members[s].gamma for s in same])
                ys.append((gamma[:, letter.gi] - gamma[:, letter.gj]).ravel())
                xs.append(np.repeat(x, len(letter.cols)))
                us.append(x if len(letter.odd) else np.zeros(len(same), dtype=complex))
                fills.append((letter, same))
            plan.append((dim, k, fills))
    y, x, u = (np.concatenate([np.empty(0, complex), *parts]) for parts in (ys, xs, us))
    try:
        a, b, units, _ = coefficients(ep, a=(y, x), b=(y, x), u=u)
    except PoleError as exc:
        names = "; ".join(dict.fromkeys(" ".join(f"s_{i}" for i in word.labels) for word in words))
        raise PoleError(
            f"one-letter matrices of {names}: {exc}", factor=exc.factor, magnitude=exc.magnitude
        ) from exc
    stacks = {}
    start = slot = 0
    for dim, k, fills in plan:
        one = np.zeros((len(groups[dim]), dim, dim), dtype=complex)
        for letter, same in fills:
            rows, cols = len(same), len(letter.cols)
            a_k, b_k = (v[start : start + rows * cols].reshape(rows, cols) for v in (a, b))
            _fill(one, np.array(same)[:, None], letter, a_k, b_k, units[slot : slot + rows])
            start, slot = start + rows * cols, slot + rows
        # the first letter is the starting product
        stacks[dim] = one if k == 0 else stacks[dim] @ one
    at = {dim: iter(stack) for dim, stack in stacks.items()}
    return [next(at[word.dim]) for word in words]


@functools.cache
def _block_letter(n: int, index_set: tuple[int, ...], signs: tuple[int, ...], i: int) -> _Letter:
    # s_i moves sigma to s_(n-i) sigma; a column that stays is 1 or the odd
    # unit by the sign of its conjugation index
    basis = min_coset_reps(n, index_set)
    pos = {w: k for k, w in enumerate(basis)}
    ni = dual_position(n, i)
    ones, odd, cols, rows, gi, gj = [], [], [], [], [], []
    for col, sigma in enumerate(basis):
        moved = compose(simple(n, ni), sigma)
        if moved in pos:
            sigma_inv = inverse(sigma)
            cols.append(col)
            rows.append(pos[moved])
            gi.append(sigma_inv[ni - 1] - 1)
            gj.append(sigma_inv[ni] - 1)
        elif signs[index_set.index(conjugation_index(sigma, i, index_set))] == 1:
            ones.append(col)
        else:
            odd.append(col)
    return _letter(len(basis), ones, odd, cols, rows, np.ones(len(cols)), gi, gj)


def _block_word(spec: PrincipalSeriesSpec, labels: Sequence[int], z: Sequence[complex]) -> _Word:
    n = spec.n
    z = tuple(complex(t) for t in z)
    if len(z) != n:
        raise ValueError("evaluation point must have one coordinate per site")
    letters = tuple(_block_letter(n, spec.index_set, spec.signs, i) for i in labels)
    dim = len(min_coset_reps(n, spec.index_set))
    return _Word(letters, tuple(labels), np.array(spec.gamma, dtype=complex), _walk(labels, z), dim)


def connection_words(
    ep: EllipticParams,
    words: Sequence[tuple[PrincipalSeriesSpec, Sequence[int], Sequence[complex]]],
) -> list[np.ndarray]:
    """Products of one-letter matrices, one per (spec, letters, z) in ``words``.

    For the letters (i_1, ..., i_r) at z this is
    M^{s_i_1}(z) M^{s_i_2}(s_i_1 z) ... on the block ``spec``, each letter at
    the point moved by the letters before it.  The words may lie on
    different blocks.  All letters of all words come from one elliptic
    batch, so a pole in any of them raises PoleError.
    """
    for spec in dict.fromkeys(spec for spec, _, _ in words):
        validate_spec(ep, spec)
    return _products(ep, [_block_word(spec, labels, z) for spec, labels, z in words])


def connection_simple(
    ep: EllipticParams, spec: PrincipalSeriesSpec, i: int, z: Sequence[complex]
) -> ConnectionMatrix:
    """One-letter connection matrix for the simple reflection s_i."""
    (entries,) = connection_words(ep, [(spec, (i,), z)])
    basis = min_coset_reps(spec.n, spec.index_set)
    return ConnectionMatrix(spec=spec, word=simple(spec.n, i), z=tuple(map(complex, z)), basis=basis, entries=entries)


# ---------------------------------------------------------------------------
# monodromy on the tensor-product basis, one content block at a time


@functools.cache
def _layout_blocks(n: int) -> tuple[tuple[Content, np.ndarray, np.ndarray], ...]:
    # per block of block_layout(n), in layout order: its content r, the coset
    # basis in layout order (the argsort of the places of w_alpha . leading)
    # and the outer product of the signs (-1)^eta(w_alpha) in that order
    layout = block_layout(n)
    out = []
    for rows in itertools.chain.from_iterable(layout.index):
        r = content((layout.digits[rows[0]] + 1).tolist())
        basis = min_coset_reps(n, content_stabiliser(n, r))
        order = np.argsort(layout.pos[[tensor_index(act(u, leading_index(r))) for u in basis]])
        signs = np.array([(-1.0) ** eta_exponent(basis[u], r) for u in order])
        out.append((r, order, np.outer(signs, signs)))
    return tuple(out)


@functools.cache
def _tensor_letter(n: int, i: int) -> tuple[_Letter, ...]:
    # the monodromy of s_i in the tensor basis, one letter per block of
    # block_layout(n) in layout order; rows and columns are places in the
    # block, and gi, gj index the block's own spectral vector.  A multi-index
    # beta whose entries at the dual positions (n-i, n-i+1) agree is fixed (1
    # if even, the odd unit -c(x)/c(-x) if odd); otherwise it moves to the
    # swapped index, with the gamma difference read through its coset
    # representative and the exchange sign of its two entries
    ni = dual_position(n, i)
    layout = block_layout(n)
    letters = []
    for rows in itertools.chain.from_iterable(layout.index):
        ones, odd, cols, swapped, signs, gi, gj = [], [], [], [], [], [], []
        for col, beta in enumerate((layout.digits[rows] + 1).tolist()):
            a, b = beta[ni - 1], beta[ni]
            if a == b:
                (odd if a == 3 else ones).append(col)
                continue
            w_inv = inverse(rep_of_index(beta))
            cols.append(col)
            swapped.append(layout.pos[tensor_index(multi_index_swap(beta, ni))])
            signs.append((-1.0) ** ((a == 3) + (b == 3)))
            gi.append(w_inv[ni - 1] - 1)
            gj.append(w_inv[ni] - 1)
        letters.append(_letter(len(rows), ones, odd, cols, swapped, signs, gi, gj))
    return tuple(letters)


def _tensor_words(gammas: Sequence[np.ndarray], labels: Sequence[int], z: Sequence[complex]) -> list[_Word]:
    # the word of the letters on each block of block_layout(len(z)), in
    # layout order, with the block's spectral vector from ``gammas``
    n = len(z)
    xs = _walk(labels, tuple(complex(t) for t in z))
    letters = [_tensor_letter(n, i) for i in labels]
    return [
        _Word(tuple(letter[k] for letter in letters), tuple(labels), gamma, xs, len(order))
        for k, (gamma, (_, order, _)) in enumerate(zip(gammas, _layout_blocks(n)))
    ]


def _block_ops(words: Sequence[tuple], mats: Sequence[np.ndarray]) -> list[BlockOp]:
    # the block matrices of each word, in layout order, stacked group by group
    mats = iter(mats)
    layouts = [block_layout(len(z)) for _, _, z in words]
    return [BlockOp(layout, [np.stack([next(mats) for _ in idx]) for idx in layout.index]) for layout in layouts]


def tensor_monodromy_words(
    ep: EllipticParams,
    words: Sequence[tuple[Sequence[complex], Sequence[int], Sequence[complex]]],
) -> list[BlockOp]:
    """Tensor-basis monodromies, one per (phi, letters, z) in ``words``.

    The word of the letters (i_1, ..., i_r) on n = len(z) sites is the
    product of the one-letter tensor-basis monodromies (``_tensor_letter``),
    each at the point moved by the letters before it, taken one content
    block at a time.  The words may differ in phi and in n.  All letters of
    all words come from one elliptic batch, so a pole in any of them raises
    PoleError.
    """
    # each block's spectral vector, as content_block computes it, without
    # building and validating the rest of the block's spec
    log_p = ep.nome.log_p
    gammas: dict[tuple, list[np.ndarray]] = {}
    block_words = []
    for phi, labels, z in words:
        n, phi = len(z), tuple(complex(v) for v in phi)
        if (n, phi) not in gammas:
            gammas[n, phi] = [np.array(_block_gamma_raw(log_p, ep.kappa, phi, n, r)) for r, _, _ in _layout_blocks(n)]
        block_words += _tensor_words(gammas[n, phi], labels, z)
    return _block_ops(words, _products(ep, block_words))


def tensor_monodromy_from_blocks_words(
    ep: EllipticParams,
    words: Sequence[tuple[Sequence[complex], Sequence[int], Sequence[complex]]],
) -> list[BlockOp]:
    """Tensor-basis monodromies assembled from the per-block matrices, one
    per (phi, letters, z) in ``words``.

    Entry (alpha, beta) within the block of content r is
    (-1)^(eta(w_alpha) + eta(w_beta)) m_{w_alpha, w_beta}; across blocks it
    vanishes.  Every block's word of every word comes from one elliptic
    batch.
    """
    block_words = [
        _block_word(content_block(ep, len(z), r, phi), labels, z)
        for phi, labels, z in words
        for r, _, _ in _layout_blocks(len(z))
    ]
    mats = iter(_products(ep, block_words))
    per_word = [_layout_blocks(len(z)) for _, _, z in words]
    return _block_ops(words, [signs * next(mats)[np.ix_(order, order)] for lb in per_word for _, order, signs in lb])


# ---------------------------------------------------------------------------
# the dynamical R-matrix


def _mixed_letter() -> _Letter:
    # two-site basis: the pure even columns are 1, the pure odd column is the
    # odd unit; the mixed column (a, b) moves to (b, a) with the exchange
    # sign (-1)^(p(a)+p(b)) and y = phi_a - phi_b
    mixed = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
    return _letter(
        DIM**2,
        [tensor_index((1, 1)), tensor_index((2, 2))],
        [tensor_index((3, 3))],
        [tensor_index(ab) for ab in mixed],
        [tensor_index((b, a)) for a, b in mixed],
        [(-1.0) ** (PARITY[a - 1] + PARITY[b - 1]) for a, b in mixed],
        [a - 1 for a, _ in mixed],
        [b - 1 for _, b in mixed],
    )


_R_LETTER = _mixed_letter()


def dyn_r_matrix(ep: EllipticParams, x, phi) -> np.ndarray:
    """The 9x9 elliptic dynamical R-matrix on the ordered two-site basis.

    Diagonal values 1, 1, -c(x)/c(-x) on the pure columns; the mixed column
    (i, j) carries A^{phi_i - phi_j}(x) on the diagonal and the exchange
    entry (-1)^(p(i)+p(j)) B^{phi_i - phi_j}(x).

    ``x`` of shape S and ``phi`` of shape S' + (3,) broadcast to a stack of
    shape S'' + (9, 9), with every entry from one elliptic batch; a scalar x
    and one triple phi give one 9x9 matrix.
    """
    x, phi = np.asarray(x, dtype=complex), np.asarray(phi, dtype=complex)
    shape = np.broadcast_shapes(x.shape, phi.shape[:-1])
    xs = np.broadcast_to(x, shape).reshape(-1, 1)
    phis = np.broadcast_to(phi, shape + (3,)).reshape(-1, 3)
    ys = phis[:, _R_LETTER.gi] - phis[:, _R_LETTER.gj]
    a, b, unit, _ = coefficients(ep, a=(ys, xs), b=(ys, xs), u=xs[:, 0])
    m = np.zeros((len(xs), 9, 9), dtype=complex)
    _fill(m, slice(None), _R_LETTER, a, b, unit)
    return m.reshape(shape + (9, 9))


# ---------------------------------------------------------------------------
# dynamical shifts
#
# One rule builds every shifted R-matrix: for the control value j and the
# scalar a, phi is shifted by s_j = -a * weights[j-1] + offsets[j-1] * h with
# the half period h = -i pi / log p.  A family is its offset triple.  s_j is
# built first and then added to phi, because (phi + a) - h and phi + (a - h)
# can differ in the last bit.

#: back-shifted family: the even control values also move phi_3 by h
PSI_FAMILY = ((0, 0, 1), (0, 0, 1), (0, 0, 0))
#: shifted third family: the odd control value moves phi_3 by -h
PHI_FAMILY = ((0, 0, 0), (0, 0, 0), (0, 0, -1))
#: weight family: no half-period offsets
XI_FAMILY = ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def _shifted_phis(
    ep: EllipticParams,
    phi,
    offsets: Sequence[Sequence[int]],
    a: complex,
    weights: Sequence[Sequence[float]],
) -> np.ndarray:
    # row j-1 is phi + s_j for the control value j; phi of shape S + (3,)
    # gives S + (3, 3)
    h = -1j * np.pi / ep.nome.log_p
    shifts = np.array([[-a * wk + ok * h for wk, ok in zip(w, off)] for w, off in zip(weights, offsets)])
    return np.asarray(phi, dtype=complex)[..., None, :] + shifts


def shifted_r_apply(
    ep: EllipticParams,
    n: int,
    leg: int,
    x,
    phi,
    family: Sequence[Sequence[int]],
    a: complex,
    control: int,
    weights: Sequence[Sequence[float]] = WEIGHTS,
) -> np.ndarray:
    """R on the legs (leg, leg+1) with phi shifted per the control leg's value.

    Acts as R_{leg, leg+1}(x; phi + s_j) on the subspace where the control
    leg carries the basis vector v_j, with s_j built from the offset triple
    ``family`` by the shift rule above.  ``x`` of shape S and ``phi`` of
    shape S + (3,) give a stack of shape S + (3^n, 3^n), with every
    R-matrix from one elliptic batch.
    """
    x = np.asarray(x, dtype=complex)[..., None]
    ops = dyn_r_matrix(ep, x, _shifted_phis(ep, phi, family, a, weights))
    return controlled_op(ops, n, leg, leg + 1, control)


def _stack_residual(lhs: np.ndarray, rhs: np.ndarray):
    # rel_residual of each pair of matrices of two stacks: a float for one
    # pair, an array shaped like the stack axes for more
    big = np.maximum(np.linalg.norm(lhs, axis=(-2, -1)), np.linalg.norm(rhs, axis=(-2, -1)))
    out = np.linalg.norm(lhs - rhs, axis=(-2, -1)) / np.where(big > 0.0, big, 1.0)
    return out.item() if out.ndim == 0 else out


def dybe_residual(
    ep: EllipticParams,
    x,
    y,
    phi,
    family: Sequence[Sequence[int]],
    weights: Sequence[Sequence[float]] = WEIGHTS,
):
    """Defect of the braid-form dynamical Yang-Baxter equation on three legs.

    R12(x; a = -k by leg 3) R23(x+y; a = k by leg 1) R12(y; a = -k by leg 3)
      = R23(y; ...) R12(x+y; ...) R23(x; ...).
    ``x`` and ``y`` of shape S and ``phi`` of shape S + (3,) give one
    residual per draw, shaped S (a float for scalars and one triple).  All
    shifted R-matrices of every draw come from one elliptic batch.
    Passing perturbed ``weights`` gives a negative control.

    The length d of ``weights`` is the site set: the first d basis vectors.
    Three weights give the equation on (C^3)^(x 3); two restrict every
    R-matrix to the even two-site basis and the control values to v_1 and
    v_2, which gives the rank-one (gl(2)) equation on (C^2)^(x 3).
    """
    k = ep.kappa
    d = len(weights)
    sites = [DIM * a + b for a in range(d) for b in range(d)]
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    # the 6d R-matrices of a draw in the order (a, argument, control value)
    args = np.broadcast_to(np.stack([x, y, x + y], axis=-1)[..., None, :, None], x.shape + (2, 3, d))
    phis = np.stack([_shifted_phis(ep, phi, family, a, weights) for a in (-k, k)], axis=-3)
    phis = np.broadcast_to(phis[..., None, :, :], x.shape + (2, 3, d, 3))
    r = dyn_r_matrix(ep, args.reshape(x.shape + (6 * d,)), phis.reshape(x.shape + (6 * d, 3)))
    r = r.reshape(x.shape + (2, 3, d, 9, 9))

    def op(f, m):
        # R12 controlled by leg 3 (f = 0) or R23 by leg 1 (f = 1) at x, y or
        # x + y (m = 0, 1, 2), built as the product reaches it, so that few
        # stacks are alive at once
        ops = r[..., f, m, :, :, :][..., sites, :][..., sites]
        return controlled_op(ops, 3, *((1, 2, 3), (2, 3, 1))[f])

    # R12(x) R23(x+y) R12(y) and R23(y) R12(x+y) R23(x)
    lhs = op(0, 0) @ op(1, 2) @ op(0, 1)
    return _stack_residual(lhs, op(1, 1) @ op(0, 2) @ op(1, 0))


_FELDER_CONTROLS = {(2, 3): 1, (1, 3): 2, (1, 2): 3}


def felder_residual(
    ep: EllipticParams,
    x,
    y,
    phi,
    weights: Sequence[Sequence[float]] = WEIGHTS,
):
    """Defect of the permuted-form dynamical Yang-Baxter equation.

    With Rc = P R, the equation reads
    Rc23(x; m + k h1) Rc13(x+y; m - k h2) Rc12(y; m + k h3)
      = Rc12(y; m - k h3) Rc13(x+y; m + k h2) Rc23(x; m - k h1)
    where h_i shifts by the weight carried by leg i: the shift rule of the
    weight family with a = -beta.  ``x``, ``y`` and ``phi`` stack as in
    ``dybe_residual``, with one residual per draw; all 18 shifted R-matrices
    of every draw come from one elliptic batch.  Passing perturbed
    ``weights`` gives a negative control.
    """
    k = ep.kappa
    x, y = np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
    # (legs, argument, beta) of the left-hand factors, then the right-hand ones
    factors = [
        ((2, 3), x, k), ((1, 3), x + y, -k), ((1, 2), y, k),
        ((1, 2), y, -k), ((1, 3), x + y, k), ((2, 3), x, -k),
    ]
    # the 18 R-matrices of a draw in the order (factor, control value)
    args = np.broadcast_to(np.stack([arg for _, arg, _ in factors], axis=-1)[..., None], x.shape + (6, 3))
    phis = np.stack([_shifted_phis(ep, phi, XI_FAMILY, -beta, weights) for _, _, beta in factors], axis=-3)
    phis = np.broadcast_to(phis, x.shape + (6, 3, 3))
    r = dyn_r_matrix(ep, args.reshape(x.shape + (18,)), phis.reshape(x.shape + (18, 3)))
    rc = permutation_op() @ r.reshape(x.shape + (6, 3, 9, 9))
    del r  # a sweep's stack of R-matrices; only rc is needed below

    def op(f):
        # built as the product reaches it, so that few stacks are alive at once
        legs = factors[f][0]
        return controlled_op(rc[..., f, :, :, :], 3, *legs, _FELDER_CONTROLS[legs])

    lhs = op(0) @ op(1) @ op(2)
    return _stack_residual(lhs, op(3) @ op(4) @ op(5))
