"""Connection matrices of the quantum affine KZ equations and the elliptic
dynamical R-matrix they assemble into.

For a principal-series block the one-letter connection matrix couples a
minimal coset representative sigma to s_{n-i} sigma: the operator labelled
s_i moves the coset side at the dual position n - i.  Conjugating the block
matrices to the tensor-product basis (with the explicit signs of the basis
map) produces an operator that acts locally on two neighbouring legs as a
dynamical R-matrix, with the dynamical parameters shifted according to the
value carried by a control leg.

Every one-letter matrix, on a block, in the tensor basis or on two sites
(the dynamical R-matrix), has at most two nonzeros per column, so every word
multiplies on the one product engine ``tensorspace.column_products``.  The
tensor-basis monodromy keeps content, and both of its independent routes
return a ``tensorspace.BlockOp``: one takes its letters from the tensor
basis, one content group at a time, the other scatters the block matrices
into it with the places and signs of the basis map ``blocks.block_bases``.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .blocks import BlockBasis, PrincipalSeriesSpec, _block_gamma_raw, block_bases, content_block, validate_spec
from .elliptic import EllipticParams, PoleError, coefficients
from .symgroup import (
    compose,
    conjugation_index,
    inverse,
    min_coset_reps,
    rep_of_index,
    simple,
)
from .tensorspace import (
    PARITY,
    permutation_op,
    WEIGHTS,
    BlockOp,
    block_layout,
    column_products,
    letter_table,
    tensor_index,
    two_leg_columns,
    word_residuals,
)

__all__ = [
    "PSI_FAMILY",
    "PHI_FAMILY",
    "XI_FAMILY",
    "dual_position",
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


# the kinds of a letter's column: fixed with the value 1, fixed with the odd
# unit -c(x)/c(-x), or moving, with A(y, x) on the diagonal and sign * B(y, x)
# in the row perm[c]
_EVEN, _ODD, _MOVING = 0, 1, 2


class _Letters(NamedTuple):
    """Column data of one-letter matrices, indexed [..., column]: the column
    permutation, the kind, the exchange sign and the indices gi, gj into the
    spectral vector gamma with y = gamma[gi] - gamma[gj]."""

    perm: np.ndarray
    kind: np.ndarray
    sign: np.ndarray
    gi: np.ndarray
    gj: np.ndarray

    def take(self, rows) -> "_Letters":
        return _Letters(*(field[rows] for field in self))


def _table(letters: Sequence[tuple]) -> _Letters:
    # a read-only table, one row per (perm, kind, sign, gi, gj) letter after
    # the identity in row 0
    dim = len(letters[0][0])
    identity = (range(dim), [_EVEN] * dim, [1.0] * dim, [0] * dim, [0] * dim)
    dtypes = (np.intp, np.int8, float, np.intp, np.intp)
    table = _Letters(*(np.array(rows, dtype=t) for rows, t in zip(zip(identity, *letters), dtypes)))
    for arr in table:
        arr.flags.writeable = False
    return table


def _word_plan(words: Sequence[tuple[Sequence[int], Sequence[complex]]]) -> tuple[np.ndarray, np.ndarray]:
    # the (positions, words) array of the letters of (labels, z) words, padded
    # with 0 (the identity row of a table), and each letter's
    # x = z_i - z_(i+1) at the point moved by the letters before it
    shape = (max(1, *(len(labels) for labels, _ in words)), len(words))
    lab, x = np.zeros(shape, dtype=np.intp), np.zeros(shape, dtype=complex)
    for w, (labels, z) in enumerate(words):
        z = [complex(t) for t in z]
        if not all(1 <= i < len(z) for i in labels):
            raise ValueError(f"letters {tuple(labels)} out of range for n={len(z)}")
        for k, i in enumerate(labels):
            lab[k, w], x[k, w] = i, z[i - 1] - z[i]
            z[i - 1], z[i] = z[i], z[i - 1]
    return lab, x


def _letter_products(ep: EllipticParams, plans: Sequence[tuple], names: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """The (words, k, d, d) products of each plan's words on ``column_products``.

    A plan is (letters, gamma, x, d): the ``_Letters`` at (position, word,
    column), each word's spectral vector per column (words, columns, n), each
    letter's x (positions, words) and the block dimension.  Every A, B and odd
    unit of every plan comes from one elliptic batch: A and B at each moving
    column, the unit once per letter with an odd column.  A pole raises
    PoleError naming the words' letters ``names``.
    """
    moving = [letters.kind == _MOVING for letters, _, _, _ in plans]
    odd = [(letters.kind == _ODD).any(axis=-1) for letters, _, _, _ in plans]
    ys, xs, us = [], [], []
    for (letters, gamma, x, _), m, o in zip(plans, moving, odd):
        words, cols = np.nonzero(m)[1:]
        ys.append(gamma[words, cols, letters.gi[m]] - gamma[words, cols, letters.gj[m]])
        xs.append(np.broadcast_to(x[..., None], m.shape)[m])
        us.append(x[o])
    y, x, u = (np.concatenate([np.empty(0, complex), *parts]) for parts in (ys, xs, us))
    try:
        a, b, units, _ = coefficients(ep, y, x, u=u)
    except PoleError as exc:
        words = "; ".join(dict.fromkeys(" ".join(f"s_{i}" for i in labels) for labels in names))
        raise PoleError(
            f"one-letter matrices of {words}: {exc}", factor=exc.factor, magnitude=exc.magnitude
        ) from exc
    out = []
    for (letters, _, x, d), m, o, y_k, u_k in zip(plans, moving, odd, ys, us):
        unit = np.ones(x.shape, dtype=complex)
        unit[o], units = units[: len(u_k)], units[len(u_k) :]
        diag = np.where(letters.kind == _ODD, unit[..., None], 1.0 + 0.0j)
        off = np.zeros(m.shape, dtype=complex)
        diag[m], off[m] = a[: len(y_k)], letters.sign[m] * b[: len(y_k)]
        a, b = a[len(y_k) :], b[len(y_k) :]
        out.append(column_products(letters.perm, diag, off, d))
    return out


@functools.cache
def _block_table(n: int, index_set: tuple[int, ...], signs: tuple[int, ...]) -> _Letters:
    # row i for s_i: it moves sigma to s_(n-i) sigma when that is a basis
    # vector; a column that stays is 1 or the odd unit by the sign of its
    # conjugation index
    basis = min_coset_reps(n, index_set)
    pos = {w: k for k, w in enumerate(basis)}
    inv = np.array([inverse(sigma) for sigma in basis]) - 1
    letters = []
    for i in range(1, n):
        ni = dual_position(n, i)
        perm = [pos.get(compose(simple(n, ni), sigma), col) for col, sigma in enumerate(basis)]
        kind = [
            _MOVING if perm[col] != col
            else _EVEN if signs[index_set.index(conjugation_index(sigma, i, index_set))] == 1
            else _ODD
            for col, sigma in enumerate(basis)
        ]
        letters.append((perm, kind, np.ones(len(basis)), inv[:, ni - 1], inv[:, ni]))
    return _table(letters)


def connection_words(
    ep: EllipticParams,
    words: Sequence[tuple[PrincipalSeriesSpec, Sequence[int], Sequence[complex]]],
) -> list[np.ndarray]:
    """Products of one-letter matrices, one per (spec, letters, z) in ``words``.

    For the letters (i_1, ..., i_r) at z this is
    M^{s_i_1}(z) M^{s_i_2}(s_i_1 z) ... on the block ``spec``, each letter at
    the point moved by the letters before it.  The words may lie on
    different blocks; the words of one block dimension multiply on one
    ``column_products`` call, with their letters taken from their blocks'
    tables.  All letters of all words come from one elliptic batch, so a pole
    in any of them raises PoleError.
    """
    for spec in dict.fromkeys(spec for spec, _, _ in words):
        validate_spec(ep, spec)
    groups: dict[int, list[int]] = {}
    tables = []
    for w, (spec, _, z) in enumerate(words):
        if len(z) != spec.n:
            raise ValueError("evaluation point must have one coordinate per site")
        tables.append(_block_table(spec.n, spec.index_set, spec.signs))
        groups.setdefault(tables[-1].perm.shape[1], []).append(w)
    plans = []
    for dim, members in groups.items():
        lab, x = _word_plan([words[w][1:] for w in members])
        # the group's distinct tables stacked, each word's rows offset into them
        distinct = {id(tables[w]): tables[w] for w in members}
        offset = dict(zip(distinct, np.cumsum([0] + [len(t.perm) for t in distinct.values()])))
        lab += np.array([offset[id(tables[w])] for w in members])
        gamma = np.zeros((len(members), dim, max(words[w][0].n for w in members)), dtype=complex)
        for k, w in enumerate(members):
            gamma[k, :, : words[w][0].n] = words[w][0].gamma
        plans.append((_Letters(*map(np.concatenate, zip(*distinct.values()))).take(lab), gamma, x, dim))
    out: list = [None] * len(words)
    for members, mats in zip(groups.values(), _letter_products(ep, plans, [labels for _, labels, _ in words])):
        for w, mat in zip(members, mats):
            out[w] = mat[0]
    return out


# ---------------------------------------------------------------------------
# monodromy on the tensor-product basis, one content group at a time


@functools.cache
def _tensor_table(n: int) -> tuple[_Letters, ...]:
    # the monodromy of s_i in the tensor basis, one table per group of
    # block_layout(n), row i for s_i; gi, gj index the spectral vector of the
    # column's block.  A multi-index beta whose entries at the dual positions
    # (n-i, n-i+1) agree is fixed (1 if even, the odd unit if odd); otherwise
    # it moves to the swapped index (the leg swap of letter_table(n)), with
    # the exchange sign of its two entries and the gamma difference read
    # through its coset representative
    layout = block_layout(n)
    parity = np.array(PARITY)
    tables = []
    for idx, perms in zip(layout.index, letter_table(n)):
        digits = layout.digits[idx.reshape(-1)]
        inv = np.array([inverse(rep_of_index(beta)) for beta in (digits + 1).tolist()]) - 1
        letters = []
        for i in range(1, n):
            ni = dual_position(n, i)
            a, b = digits[:, ni - 1], digits[:, ni]
            kind = np.where(a == b, np.where(parity[a] == 1, _ODD, _EVEN), _MOVING)
            letters.append((perms[2 + ni], kind, (-1.0) ** (parity[a] + parity[b]), inv[:, ni - 1], inv[:, ni]))
        tables.append(_table(letters))
    return tuple(tables)


def tensor_monodromy_words(
    ep: EllipticParams,
    words: Sequence[tuple[Sequence[complex], Sequence[int], Sequence[complex]]],
) -> list[BlockOp]:
    """Tensor-basis monodromies, one per (phi, letters, z) in ``words``.

    The word of the letters (i_1, ..., i_r) on n = len(z) sites is the
    product of the one-letter tensor-basis monodromies (``_tensor_table``),
    each at the point moved by the letters before it, one
    ``column_products`` call per content group of ``block_layout(n)``.  The
    words may differ in phi and in n.  All letters of all words come from one
    elliptic batch, so a pole in any of them raises PoleError.
    """
    by_n: dict[int, list[int]] = {}
    for w, (_, _, z) in enumerate(words):
        by_n.setdefault(len(z), []).append(w)
    plans = []
    for n, members in by_n.items():
        lab, x = _word_plan([words[w][1:] for w in members])
        # each block's spectral vector, as content_block computes it, without
        # building and validating the rest of the block's spec, per word in
        # layout order: one _block_gamma_raw call per distinct twist (told
        # apart bit for bit, signed zeros included) and content
        keys = [np.asarray(words[w][0], dtype=complex).tobytes() for w in members]
        rows: dict[bytes, list] = {}
        for key, w in zip(keys, members):
            if key not in rows:
                rows[key] = [_block_gamma_raw(ep.nome.log_p, ep.kappa, words[w][0], n, r) for r in block_bases(n)]
        gamma = np.array([rows[key] for key in keys])
        start = 0
        for table, (k, d) in zip(_tensor_table(n), (idx.shape for idx in block_layout(n).index)):
            plans.append((table.take(lab), np.repeat(gamma[:, start : start + k], d, axis=1), x, d))
            start += k
    products = iter(_letter_products(ep, plans, [labels for _, labels, _ in words]))
    out: list = [None] * len(words)
    for n, members in by_n.items():
        stacks = [next(products) for _ in block_layout(n).index]
        for k, w in enumerate(members):
            out[w] = BlockOp(block_layout(n), (s[k] for s in stacks))
    return out


def tensor_monodromy_from_blocks_words(
    ep: EllipticParams,
    words: Sequence[tuple[Sequence[complex], Sequence[int], Sequence[complex]]],
) -> list[BlockOp]:
    """Tensor-basis monodromies assembled from the per-block matrices, one
    per (phi, letters, z) in ``words``.

    Entry (alpha, beta) within the block of content r is
    (-1)^(eta(w_alpha) + eta(w_beta)) m_{w_alpha, w_beta}, with the places
    and signs of the basis map ``block_bases(n)``; across blocks it
    vanishes.  Every block's word of every word comes from one
    ``connection_words`` call.
    """
    per_word = [block_bases(len(z)) for _, _, z in words]
    block_words = [
        (content_block(ep, len(z), r, phi), labels, z)
        for (phi, labels, z), bases in zip(words, per_word)
        for r in bases
    ]
    mats = iter(connection_words(ep, block_words))
    out = []
    for (_, _, z), bases in zip(words, per_word):
        layout = block_layout(len(z))
        blocks = (_scatter(next(mats), basis) for basis in bases.values())
        out.append(BlockOp(layout, [np.stack([next(blocks) for _ in idx]) for idx in layout.index]))
    return out


def _scatter(m: np.ndarray, basis: BlockBasis) -> np.ndarray:
    # the block matrix m on the coset basis moved to the tensor basis: entry
    # (a, b) goes to the places of w_a . leading and w_b . leading, times
    # both signs (-1)^eta
    signs = np.array(basis.signs)
    out = np.empty_like(m)
    out[np.ix_(basis.places, basis.places)] = np.outer(signs, signs) * m
    return out


# ---------------------------------------------------------------------------
# the dynamical R-matrix

# two-site basis: the pure even columns are 1, the pure odd column is the odd
# unit; the mixed column (a, b) moves to (b, a) with the exchange sign
# (-1)^(p(a)+p(b)) and y = phi_a - phi_b
_PAIRS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]
_MIXED = [tensor_index(ab) for ab in _PAIRS if ab[0] != ab[1]]
_R_PERM = np.array([tensor_index((b, a)) for a, b in _PAIRS])
_R_SIGN = np.array([(-1.0) ** (PARITY[a - 1] + PARITY[b - 1]) for a, b in _PAIRS if a != b])
_R_GI, _R_GJ = (np.array([ab[k] - 1 for ab in _PAIRS if ab[0] != ab[1]]) for k in (0, 1))


def dyn_r_matrix(ep: EllipticParams, x, phi) -> np.ndarray:
    """The 9x9 elliptic dynamical R-matrix on the ordered two-site basis.

    Diagonal values 1, 1, -c(x)/c(-x) on the pure columns; the mixed column
    (i, j) carries A^{phi_i - phi_j}(x) on the diagonal and the exchange
    entry (-1)^(p(i)+p(j)) B^{phi_i - phi_j}(x).

    ``x`` of shape S and ``phi`` of shape S' + (3,) broadcast to a stack of
    shape S'' + (9, 9), with every entry from one elliptic batch and each
    matrix one letter of ``column_products``; a scalar x and one triple phi
    give one 9x9 matrix.
    """
    x, phi = np.asarray(x, dtype=complex), np.asarray(phi, dtype=complex)
    shape = np.broadcast_shapes(x.shape, phi.shape[:-1])
    # each x and each phi difference enters the batch once, before the
    # stack is broadcast
    a, b, unit, _ = coefficients(ep, phi[..., _R_GI] - phi[..., _R_GJ], x[..., None], u=x)
    diag = np.ones(shape + (9,), dtype=complex)
    off = np.zeros(shape + (9,), dtype=complex)
    diag[..., tensor_index((3, 3))] = unit
    diag[..., _MIXED], off[..., _MIXED] = a, _R_SIGN * b
    diag, off = diag.reshape(1, -1, 9), off.reshape(1, -1, 9)
    m = column_products(np.broadcast_to(_R_PERM, off.shape), diag, off, 9)
    return np.ascontiguousarray(m.reshape(shape + (9, 9)))


# ---------------------------------------------------------------------------
# dynamical shifts
#
# One rule builds every shifted R-matrix, in one builder (``_shifted_r``):
# for the control value j and the scalar a, phi is shifted by
# s_j = -a * weights[j-1] + offsets[j-1] * h with the half period
# h = -i pi / log p.  A family is its offset triple.  s_j is built first and
# then added to phi, because (phi + a) - h and phi + (a - h) can differ in
# the last bit.

#: back-shifted family: the even control values also move phi_3 by h
PSI_FAMILY = ((0, 0, 1), (0, 0, 1), (0, 0, 0))
#: shifted third family: the odd control value moves phi_3 by -h
PHI_FAMILY = ((0, 0, 0), (0, 0, 0), (0, 0, -1))
#: weight family: no half-period offsets
XI_FAMILY = ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def _shifted_r(
    ep: EllipticParams,
    phi,
    factors: Sequence[tuple],
    family: Sequence[Sequence[int]],
    weights: Sequence[Sequence[float]],
) -> np.ndarray:
    # R(argument; phi + s_j) for every (argument, a) factor and control value
    # j, from one dyn_r_matrix batch: arguments of shape S and phi of shape
    # S + (3,) give S + (factors, len(weights), 9, 9)
    h = -1j * np.pi / ep.nome.log_p
    args = np.stack(np.broadcast_arrays(*(arg for arg, _ in factors)), axis=-1)
    shifts = np.array(
        [[[-a * wk + ok * h for wk, ok in zip(w, off)] for w, off in zip(weights, family)] for _, a in factors]
    )
    return dyn_r_matrix(ep, args[..., None], np.asarray(phi, dtype=complex)[..., None, None, :] + shifts)


def shifted_r_apply(
    ep: EllipticParams,
    n: int,
    leg: int,
    x,
    phi,
    family: Sequence[Sequence[int]],
    a: complex,
    control: int,
) -> BlockOp | list[BlockOp]:
    """R on the legs (leg, leg+1) with phi shifted per the control leg's value.

    Acts as R_{leg, leg+1}(x; phi + s_j) on the subspace where the control
    leg carries the basis vector v_j, with s_j built from the offset triple
    ``family`` by the shift rule above.  A scalar ``x`` and one triple
    ``phi`` give one ``BlockOp``; ``x`` of shape S and ``phi`` of shape
    S + (3,) give a list of them in the order of ``np.ndindex(S)``, with
    every R-matrix from one elliptic batch.  Each is one letter of
    ``column_products``.
    """
    x = np.asarray(x, dtype=complex)
    ops = _shifted_r(ep, phi, [(x, a)], family, WEIGHTS).reshape(-1, len(WEIGHTS), 9, 9)
    layout = block_layout(n)
    stacks = []
    for (perm, entries), idx in zip(two_leg_columns(ops, n, leg, leg + 1, control), layout.index):
        # one one-letter word per draw
        perms = np.broadcast_to(perm, (1, len(entries), perm.size))
        stacks.append(column_products(perms, entries[None, :, 0], entries[None, :, 1], idx.shape[1]))
    out = [BlockOp(layout, (s[w] for s in stacks)) for w in range(x.size)]
    return out[0] if x.ndim == 0 else out


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
    shifted R-matrices of every draw come from one elliptic batch, and both
    sides are words on ``tensorspace.word_residuals``.  Passing perturbed
    ``weights`` gives a negative control.

    The length d of ``weights`` is the site set: the first d basis vectors.
    Three weights give the equation on (C^3)^(x 3); two give the control
    values v_1 and v_2 and take the residual on the blocks with no v_3 leg,
    where every R-matrix acts by its even two-site restriction: the rank-one
    (gl(2)) equation on (C^2)^(x 3).
    """
    k = ep.kappa
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    # R12(x) R23(x+y) R12(y) and R23(y) R12(x+y) R23(x): R12 controlled by
    # leg 3 with a = -k, R23 by leg 1 with a = k
    r = _shifted_r(ep, phi, [(x, -k), (x + y, k), (y, -k), (y, k), (x + y, -k), (x, k)], family, weights)
    letters = [(r[..., f, :, :, :], *((1, 2, 3), (2, 3, 1))[f % 2]) for f in range(6)]
    return word_residuals(3, letters[:3], letters[3:], sites=len(weights))


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
    of every draw come from one elliptic batch.  Rc keeps the content of its
    two legs, so both sides are words on ``tensorspace.word_residuals``.
    Passing perturbed ``weights`` gives a negative control.
    """
    k = ep.kappa
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    # the left-hand factors, then the right-hand ones, with a = -beta; a
    # factor on the legs (i, j) is controlled by the third leg 6 - i - j
    legs = [(2, 3), (1, 3), (1, 2), (1, 2), (1, 3), (2, 3)]
    rc = permutation_op() @ _shifted_r(
        ep, phi, [(x, -k), (x + y, k), (y, -k), (y, k), (x + y, -k), (x, k)], XI_FAMILY, weights
    )
    letters = [(rc[..., f, :, :, :], i, j, 6 - i - j) for f, (i, j) in enumerate(legs)]
    return word_residuals(3, letters[:3], letters[3:])
