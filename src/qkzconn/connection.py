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
multiplies on ``tensorspace.column_products``, and every word of connection
matrices through one product plan, ``_products``.  The two routes of the
tensor-basis monodromy (a ``tensorspace.BlockOp``) differ only in their
letter tables: one reads the letters off the tensor basis, the other moves
the block letters in with the places and signs of ``blocks.block_bases``.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Sequence

import numpy as np

from .blocks import PrincipalSeriesSpec, _block_gamma_raw, _index_signs, block_bases, validate_spec
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


def _products(ep: EllipticParams, words: Sequence[tuple]) -> list[list[np.ndarray]]:
    """The (k, d, d) product M(z) M(s_i_1 z) ... of each part of each
    (labels, z, parts, gamma) word with the letters (i_1, ..., i_r).

    A part is (table, d): a ``_Letters`` table (row i for s_i) of k blocks
    of d columns; gamma holds the spectral vectors of the parts' blocks in
    turn.  Each word is spelled once, words that share a parts object (and
    so the shape of gamma) are planned together, and the parts of one table
    width and d multiply on one ``column_products`` call, their distinct
    tables stacked, with every coefficient from one elliptic batch.
    """
    # the letters' table rows at (position, word), padded with the identity
    # row 0, and each letter's x = z_i - z_(i+1) at its point
    length = [len(labels) for labels, _, _, _ in words]
    lab, x = (np.zeros((max([1, *length]), len(words)), dtype=t) for t in (np.intp, complex))
    shared: dict[int, tuple[Sequence, list[int]]] = {}  # the words of each parts object
    for w, (labels, z, parts, _) in enumerate(words):
        z = [complex(t) for t in z]
        if not all(1 <= i < len(z) for i in labels):
            raise ValueError(f"letters {tuple(labels)} out of range for n={len(z)}")
        for k, i in enumerate(labels):
            lab[k, w], x[k, w] = i, z[i - 1] - z[i]
            z[i - 1], z[i] = z[i], z[i - 1]
        shared.setdefault(id(parts), (parts, []))[1].append(w)
    groups: dict[tuple[int, int], list[tuple]] = {}  # by (k*d, d): the words, part, table and gammas
    for parts, ws in shared.values():
        gamma, start = np.array([words[w][3] for w in ws], dtype=complex), 0
        for part, (table, d) in enumerate(parts):
            kd = table.perm.shape[1]
            groups.setdefault((kd, d), []).append((ws, part, table, gamma[:, start : start + kd // d]))
            start += kd // d
    plans, ys, xs, us = [], [], [], []
    for (kd, d), members in groups.items():
        at = [w for ws, _, _, _ in members for w in ws]
        size = max([1, *(length[w] for w in at)])
        rows, point = lab[:size].take(at, axis=1), x[:size].take(at, axis=1)
        # the group's distinct tables stacked, each word's rows offset into them
        distinct = list({id(t): t for _, _, t, _ in members}.values())
        if len(distinct) > 1:
            offset = dict(zip(map(id, distinct), itertools.accumulate((len(t.perm) for t in distinct), initial=0)))
            rows += [offset[id(t)] for ws, _, t, _ in members for _ in ws]
            distinct = [_Letters(*map(np.concatenate, zip(*distinct)))]
        letters = distinct[0].take(rows)
        gamma = np.zeros((len(at), kd // d, max(g.shape[-1] for _, _, _, g in members)), dtype=complex)
        for (ws, _, _, g), j in zip(members, itertools.accumulate((len(ws) for ws, _, _, _ in members), initial=0)):
            gamma[j : j + len(ws), :, : g.shape[-1]] = g
        moving, odd = letters.kind == _MOVING, letters.kind == _ODD
        lettered = odd.any(axis=-1)
        # y = gamma_gi - gamma_gj of the block of each moving column
        pos, word, block = np.nonzero(moving)
        block //= d
        ys.append(gamma[word, block, letters.gi[moving]] - gamma[word, block, letters.gj[moving]])
        xs.append(point[pos, word])
        us.append(point[lettered])
        plans.append((members, letters, moving, odd, lettered, d))
    y, x, u = (np.concatenate([np.empty(0, complex), *parts]) for parts in (ys, xs, us))
    try:
        a, b, units, _ = coefficients(ep, y, x, u=u)
    except PoleError as exc:
        names = "; ".join(dict.fromkeys(" ".join(f"s_{i}" for i in labels) for labels, _, _, _ in words))
        raise PoleError(f"one-letter matrices of {names}: {exc}", factor=exc.factor, magnitude=exc.magnitude) from exc
    out = [[None] * len(parts) for _, _, parts, _ in words]
    for (members, letters, moving, odd, lettered, d), y_k, u_k in zip(plans, ys, us):
        unit = np.ones(lettered.shape, dtype=complex)
        unit[lettered], units = units[: len(u_k)], units[len(u_k) :]
        diag = np.where(odd, unit[..., None], 1.0 + 0.0j)
        off = np.zeros(moving.shape, dtype=complex)
        diag[moving], off[moving] = a[: len(y_k)], letters.sign[moving] * b[: len(y_k)]
        a, b = a[len(y_k) :], b[len(y_k) :]
        slots = [(w, part) for ws, part, _, _ in members for w in ws]
        for (w, part), mat in zip(slots, column_products(letters.perm, diag, off, d)):
            out[w][part] = mat
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
    the point moved by the letters before it, with the letters of the
    block's table.  The words may lie on different blocks; all of them
    multiply on one ``_products`` plan, so a pole in any raises PoleError.
    """
    parts = {}
    for spec in {id(spec): spec for spec, _, _ in words}.values():
        validate_spec(ep, spec)
        table = _block_table(spec.n, spec.index_set, spec.signs)
        parts[id(spec)] = [(table, table.perm.shape[1])]
    for spec, _, z in words:
        if len(z) != spec.n:
            raise ValueError("evaluation point must have one coordinate per site")
    return [mat[0] for (mat,) in _products(ep, [(labels, z, parts[id(spec)], [spec.gamma]) for spec, labels, z in words])]


# ---------------------------------------------------------------------------
# the tensor-basis monodromy: two letter tables on one product plan


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
    each at the point moved by the letters before it.  The words may differ
    in phi and in n; all of them multiply on one ``_products`` plan, so a
    pole in any raises PoleError.
    """
    return _monodromies(ep, words, _tensor_table)


@functools.cache
def _scattered_table(n: int) -> tuple[_Letters, ...]:
    # the letters of _block_table in the tensor basis, per group of block_layout(n): coset
    # column c of block r sits at block_bases(n)[r].places[c], an exchange entry takes both (-1)^eta
    bases = iter(block_bases(n).items())
    tables = []
    for idx in block_layout(n).index:
        moved = []
        for j, (r, basis) in zip(range(len(idx)), bases):
            places, signs = np.array(basis.places), np.array(basis.signs)
            order = np.argsort(places)  # the coset column at each place
            t = _block_table(n, *_index_signs(n, r)).take((slice(1, None), order))
            moved.append(t._replace(perm=j * idx.shape[1] + places[t.perm], sign=t.sign * signs[order] * signs[t.perm]))
        tables.append(_table(list(zip(*(np.concatenate(f, axis=1) for f in zip(*moved))))))
    return tuple(tables)


def tensor_monodromy_from_blocks_words(
    ep: EllipticParams,
    words: Sequence[tuple[Sequence[complex], Sequence[int], Sequence[complex]]],
) -> list[BlockOp]:
    """Tensor-basis monodromies assembled from the per-block matrices, one
    per (phi, letters, z) in ``words``.

    Entry (alpha, beta) within the block of content r is
    (-1)^(eta(w_alpha) + eta(w_beta)) m_{w_alpha, w_beta}, with the places
    and signs of the basis map ``block_bases(n)``; across blocks it
    vanishes.  Each block letter is moved so (``_scattered_table``), and the
    words multiply as those of ``tensor_monodromy_words`` do.
    """
    return _monodromies(ep, words, _scattered_table)


def _monodromies(ep: EllipticParams, words: Sequence[tuple], tables) -> list[BlockOp]:
    # the words on tables(n), one per group of block_layout(n), with the block
    # gammas of content_block once per twist (told apart bit for bit)
    parts = {n: [(t, idx.shape[1]) for t, idx in zip(tables(n), block_layout(n).index)] for n in {len(z) for *_, z in words}}
    gammas, plan = {}, []
    for phi, labels, z in words:
        n, key = len(z), (len(z), np.asarray(phi, dtype=complex).tobytes())
        if key not in gammas:
            gammas[key] = [_block_gamma_raw(ep.nome.log_p, ep.kappa, phi, n, r) for r in block_bases(n)]
        plan.append((labels, z, parts[n], gammas[key]))
    return [BlockOp(block_layout(len(z)), stacks) for (_, _, z), stacks in zip(words, _products(ep, plan))]


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
