"""Connection matrices of the quantum affine KZ equations and the elliptic
dynamical R-matrix they assemble into.

For a principal-series block the one-letter connection matrix couples a
minimal coset representative sigma to s_{n-i} sigma: the operator labelled
s_i moves the coset side at the dual position n - i.  Conjugating the block
matrices to the tensor-product basis (with the explicit signs of the basis
map) produces an operator that acts locally on two neighbouring legs as a
dynamical R-matrix, with the dynamical parameters shifted according to the
value carried by a control leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blocks import PrincipalSeriesSpec, content_block, validate_spec
from .elliptic import EllipticParams, PoleError, coeff_a, coeff_b, c_func
from .symgroup import (
    Content,
    Perm,
    act,
    compose,
    conjugation_index,
    content,
    content_labels,
    eta_exponent,
    inverse,
    leading_index,
    min_coset_reps,
    multi_index_swap,
    reduced_word,
    rep_of_index,
    simple,
)
from .tensorspace import (
    DIM,
    PARITY,
    multi_indices,
    permutation_op,
    rel_residual,
    WEIGHTS,
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
    "connection_word",
    "tensor_monodromy_simple",
    "tensor_monodromy_word",
    "tensor_monodromy_from_blocks",
    "dyn_r_matrix",
    "shifted_r_apply",
    "dybe_residual",
    "felder_residual",
    "gl2_matrix",
    "gl2_dybe_residual",
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


def _odd_unit(ep: EllipticParams, x: complex) -> complex:
    # -c(x)/c(-x) from one batch; the pole of c at x = 0 cancels in the
    # ratio, with limit 1
    if x == 0:
        return 1.0 + 0.0j
    c = c_func(ep, np.array([x, -x]))
    return complex(-c[0] / c[1])


def _fill_moving(
    ep: EllipticParams, mat: np.ndarray, x: complex, cols, rows, ys, signs=1.0
) -> None:
    # A on the diagonal of each moving column, signs * B at its swapped row;
    # one coeff_a and one coeff_b batch over the columns' y
    if cols:
        ys = np.asarray(ys, dtype=complex)
        mat[cols, cols] = coeff_a(ep, ys, x)
        mat[rows, cols] = signs * coeff_b(ep, ys, x)


def connection_simple(
    ep: EllipticParams, spec: PrincipalSeriesSpec, i: int, z: Sequence[complex]
) -> ConnectionMatrix:
    """One-letter connection matrix for the simple reflection s_i."""
    n = spec.n
    validate_spec(ep, spec)
    z = tuple(complex(t) for t in z)
    if len(z) != n:
        raise ValueError("evaluation point must have one coordinate per site")
    basis = min_coset_reps(n, spec.index_set)
    pos = {w: k for k, w in enumerate(basis)}
    x = z[i - 1] - z[i]
    ni = dual_position(n, i)
    mat = np.zeros((len(basis), len(basis)), dtype=complex)
    cols, rows, ys, odd = [], [], [], []
    for col, sigma in enumerate(basis):
        moved = compose(simple(n, ni), sigma)
        if moved in pos:
            sigma_inv = inverse(sigma)
            cols.append(col)
            rows.append(pos[moved])
            ys.append(spec.gamma[sigma_inv[ni - 1] - 1] - spec.gamma[sigma_inv[ni] - 1])
        elif spec.sign_of(conjugation_index(sigma, i, spec.index_set)) == 1:
            mat[col, col] = 1.0
        else:
            odd.append(col)
    try:
        if odd:
            mat[odd, odd] = _odd_unit(ep, x)
        _fill_moving(ep, mat, x, cols, rows, ys)
    except PoleError as exc:
        raise PoleError(
            f"one-letter matrix for s_{i}: {exc}", factor=exc.factor, magnitude=exc.magnitude
        ) from exc
    return ConnectionMatrix(spec=spec, word=simple(n, i), z=z, basis=basis, entries=mat)


def connection_word(
    ep: EllipticParams, spec: PrincipalSeriesSpec, w: Perm, z: Sequence[complex]
) -> ConnectionMatrix:
    """Monodromy matrix of an arbitrary w via the cocycle rule
    M^{w w'}(z) = M^w(z) M^{w'}(w^{-1} z)."""
    n = spec.n
    z = tuple(complex(t) for t in z)
    basis = min_coset_reps(n, spec.index_set)
    mat = np.eye(len(basis), dtype=complex)
    zcur = z
    for i in reduced_word(w):
        mat = mat @ connection_simple(ep, spec, i, zcur).entries
        zcur = act(simple(n, i), zcur)
    return ConnectionMatrix(spec=spec, word=tuple(w), z=z, basis=basis, entries=mat)


# ---------------------------------------------------------------------------
# monodromy on the tensor-product basis


def tensor_monodromy_simple(
    ep: EllipticParams, n: int, phi: Sequence[complex], i: int, z: Sequence[complex]
) -> np.ndarray:
    """The monodromy of s_i conjugated to the tensor basis, written directly.

    On a multi-index beta the operator is diagonal when the entries at the
    dual positions (n-i, n-i+1) agree (with value 1 for even entries and
    -c(x)/c(-x) for the odd entry), and otherwise couples beta to the
    swapped index with A- and B-coefficients whose argument is the gamma
    difference of the block of beta read through its coset representative.
    """
    z = tuple(complex(t) for t in z)
    x = z[i - 1] - z[i]
    ni = dual_position(n, i)
    dim = DIM**n
    mat = np.zeros((dim, dim), dtype=complex)
    gamma_cache: dict[Content, tuple[complex, ...]] = {}
    cols, rows, ys, signs, odd = [], [], [], [], []
    for beta in multi_indices(n):
        col = tensor_index(beta)
        a, b = beta[ni - 1], beta[ni]
        if a == b:
            if a == 3:
                odd.append(col)
            else:
                mat[col, col] = 1.0
            continue
        r = content(beta)
        if r not in gamma_cache:
            gamma_cache[r] = content_block(ep, n, r, phi).gamma
        gamma = gamma_cache[r]
        w_inv = inverse(rep_of_index(beta))
        cols.append(col)
        rows.append(tensor_index(multi_index_swap(beta, ni)))
        ys.append(gamma[w_inv[ni - 1] - 1] - gamma[w_inv[ni] - 1])
        signs.append((-1.0) ** ((a == 3) + (b == 3)))
    if odd:
        mat[odd, odd] = _odd_unit(ep, x)
    _fill_moving(ep, mat, x, cols, rows, ys, np.array(signs))
    return mat


def tensor_monodromy_word(
    ep: EllipticParams, n: int, phi: Sequence[complex], w: Perm, z: Sequence[complex]
) -> np.ndarray:
    """Tensor-basis monodromy of w assembled by the cocycle rule."""
    z = tuple(complex(t) for t in z)
    mat = np.eye(DIM**n, dtype=complex)
    zcur = z
    for i in reduced_word(w):
        mat = mat @ tensor_monodromy_simple(ep, n, phi, i, zcur)
        zcur = act(simple(n, i), zcur)
    return mat


def tensor_monodromy_from_blocks(
    ep: EllipticParams, n: int, phi: Sequence[complex], w: Perm, z: Sequence[complex]
) -> np.ndarray:
    """Tensor-basis monodromy of w scattered from the per-block matrices.

    Entry (alpha, beta) within the block of content r is
    (-1)^(eta(w_alpha) + eta(w_beta)) m_{w_alpha, w_beta}; across blocks it
    vanishes.
    """
    z = tuple(complex(t) for t in z)
    dim = DIM**n
    mat = np.zeros((dim, dim), dtype=complex)
    for r in content_labels(n):
        spec = content_block(ep, n, r, phi)
        block = connection_word(ep, spec, w, z)
        lead = leading_index(r)
        signs = [(-1.0) ** eta_exponent(u, r) for u in block.basis]
        indices = [tensor_index(act(u, lead)) for u in block.basis]
        for a, (ia, sa) in enumerate(zip(indices, signs)):
            for b, (ib, sb) in enumerate(zip(indices, signs)):
                mat[ia, ib] = sa * sb * block.entries[a, b]
    return mat


# ---------------------------------------------------------------------------
# the dynamical R-matrix


# two-site basis positions: pure even, pure odd, and the six mixed columns
# (a, b) with their exchange rows (b, a) and exchange signs
_EVEN_PURE = [tensor_index((1, 1)), tensor_index((2, 2))]
_ODD_PURE = tensor_index((3, 3))
_MIXED = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
_MIXED_COLS = [tensor_index(ab) for ab in _MIXED]
_MIXED_ROWS = [tensor_index((b, a)) for a, b in _MIXED]
_MIXED_SIGNS = np.array([(-1.0) ** (PARITY[a - 1] + PARITY[b - 1]) for a, b in _MIXED])


def dyn_r_matrix(ep: EllipticParams, x: complex, phi: Sequence[complex]) -> np.ndarray:
    """The 9x9 elliptic dynamical R-matrix on the ordered two-site basis.

    Diagonal values 1, 1, -c(x)/c(-x) on the pure columns; the mixed column
    (i, j) carries A^{phi_i - phi_j}(x) on the diagonal and the exchange
    entry (-1)^(p(i)+p(j)) B^{phi_i - phi_j}(x).
    """
    r = np.zeros((9, 9), dtype=complex)
    r[_EVEN_PURE, _EVEN_PURE] = 1.0
    r[_ODD_PURE, _ODD_PURE] = _odd_unit(ep, x)
    ys = [complex(phi[a - 1]) - complex(phi[b - 1]) for a, b in _MIXED]
    _fill_moving(ep, r, x, _MIXED_COLS, _MIXED_ROWS, ys, _MIXED_SIGNS)
    return r


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


def _shifted_ops(
    ep: EllipticParams,
    op_of_phi: Callable[[tuple[complex, ...]], np.ndarray],
    phi: Sequence[complex],
    offsets: Sequence[Sequence[int]],
    a: complex,
    weights: Sequence[Sequence[float]],
) -> list[np.ndarray]:
    # op_of_phi(phi + s_j) for each control value j
    h = -1j * np.pi / ep.nome.log_p
    phi = tuple(complex(t) for t in phi)
    ops = []
    for w, off in zip(weights, offsets):
        s = [-a * wk + ok * h for wk, ok in zip(w, off)]
        ops.append(op_of_phi(tuple(p + sk for p, sk in zip(phi, s))))
    return ops


def shifted_r_apply(
    ep: EllipticParams,
    n: int,
    leg: int,
    x: complex,
    phi: Sequence[complex],
    family: Sequence[Sequence[int]],
    a: complex,
    control: int,
    weights: Sequence[Sequence[float]] = WEIGHTS,
) -> np.ndarray:
    """R on the legs (leg, leg+1) with phi shifted per the control leg's value.

    Acts as R_{leg, leg+1}(x; phi + s_j) on the subspace where the control
    leg carries the basis vector v_j, with s_j built from the offset triple
    ``family`` by the shift rule above.
    """
    ops = _shifted_ops(ep, lambda f: dyn_r_matrix(ep, x, f), phi, family, a, weights)
    return controlled_op(ops, n, leg, leg + 1, control)


def _braid_form_residual(r12, r23, x: complex, y: complex) -> float:
    # R12(x) R23(x+y) R12(y) against R23(y) R12(x+y) R23(x)
    lhs = r12(x) @ r23(x + y) @ r12(y)
    rhs = r23(y) @ r12(x + y) @ r23(x)
    return rel_residual(lhs, rhs)


def dybe_residual(
    ep: EllipticParams,
    x: complex,
    y: complex,
    phi: Sequence[complex],
    family: Sequence[Sequence[int]],
    weights: Sequence[Sequence[float]] = WEIGHTS,
) -> float:
    """Defect of the braid-form dynamical Yang-Baxter equation on three legs.

    R12(x; a = -k by leg 3) R23(x+y; a = k by leg 1) R12(y; a = -k by leg 3)
      = R23(y; ...) R12(x+y; ...) R23(x; ...).
    Passing perturbed ``weights`` gives a negative control.
    """
    k = ep.kappa

    def r12(arg: complex) -> np.ndarray:
        return shifted_r_apply(ep, 3, 1, arg, phi, family, -k, control=3, weights=weights)

    def r23(arg: complex) -> np.ndarray:
        return shifted_r_apply(ep, 3, 2, arg, phi, family, k, control=1, weights=weights)

    return _braid_form_residual(r12, r23, x, y)


_FELDER_CONTROLS = {(2, 3): 1, (1, 3): 2, (1, 2): 3}


def felder_residual(
    ep: EllipticParams,
    x: complex,
    y: complex,
    phi: Sequence[complex],
    weights: Sequence[Sequence[float]] = WEIGHTS,
) -> float:
    """Defect of the permuted-form dynamical Yang-Baxter equation.

    With Rc = P R, the equation reads
    Rc23(x; m + k h1) Rc13(x+y; m - k h2) Rc12(y; m + k h3)
      = Rc12(y; m - k h3) Rc13(x+y; m + k h2) Rc23(x; m - k h1)
    where h_i shifts by the weight carried by leg i: the shift rule of the
    weight family with a = -beta.  Passing perturbed ``weights`` gives a
    negative control.
    """
    k = ep.kappa
    p_op = permutation_op()

    def rc(legs: tuple[int, int], arg: complex, beta: complex) -> np.ndarray:
        ops = _shifted_ops(ep, lambda f: p_op @ dyn_r_matrix(ep, arg, f), phi, XI_FAMILY, -beta, weights)
        return controlled_op(ops, 3, *legs, _FELDER_CONTROLS[legs])

    lhs = rc((2, 3), x, k) @ rc((1, 3), x + y, -k) @ rc((1, 2), y, k)
    rhs = rc((1, 2), y, -k) @ rc((1, 3), x + y, k) @ rc((2, 3), x, -k)
    return rel_residual(lhs, rhs)


# ---------------------------------------------------------------------------
# the rank-one elliptic fixture (two-state sites)


def gl2_matrix(ep: EllipticParams, x: complex, y: complex) -> np.ndarray:
    """The 4x4 elliptic matrix with scalar dynamical parameter y."""
    ys = np.array([y, -y], dtype=complex)
    a, b = coeff_a(ep, ys, x), coeff_b(ep, ys, x)
    m = np.eye(4, dtype=complex)
    m[1, 1], m[1, 2] = a[0], b[1]
    m[2, 1], m[2, 2] = b[0], a[1]
    return m


def _gl2_scalar_shift(j: int, a: complex) -> complex:
    # restriction of the xi-family to two-state sites: control value 1 lowers
    # the scalar dynamical parameter by a, control value 2 raises it
    return -a if j == 1 else a


def gl2_dybe_residual(
    ep: EllipticParams, x: complex, xp: complex, y: complex, flip_shifts: bool = False
) -> float:
    """Braid-form dynamical Yang-Baxter defect of the 4x4 fixture on (C^2)^(x 3).

    The empirically determined convention: the control value j = 1 shifts
    the scalar parameter by -a and j = 2 by +a, with a = -kappa on the pair
    (1,2) controlled by leg 3 and a = +kappa on the pair (2,3) controlled by
    leg 1.  ``flip_shifts`` negates the shifts (negative control).
    """
    k = -ep.kappa if flip_shifts else ep.kappa

    def embedded(pair_leg: int, arg: complex, a: complex, control: int) -> np.ndarray:
        ops = [gl2_matrix(ep, arg, y + _gl2_scalar_shift(j, a)) for j in (1, 2)]
        return controlled_op(ops, 3, pair_leg, pair_leg + 1, control)

    def r12(arg: complex) -> np.ndarray:
        return embedded(1, arg, -k, control=3)

    def r23(arg: complex) -> np.ndarray:
        return embedded(2, arg, k, control=1)

    return _braid_form_residual(r12, r23, x, xp)
