"""Dense complex operators on tensor powers of the 3-dimensional site space.

The tensor-product basis of (C^3)^(x n) is enumerated odometer-style: the
multi-index (a_1, ..., a_n) over {1, 2, 3} sits at linear index
sum_k (a_k - 1) * 3^(n-k), so the first site is the most significant digit.
For n = 2 this reproduces the ordered basis (v1 v1, v1 v2, v1 v3, v2 v1, ...).

Local operators are embedded in one way: ``two_leg_op`` writes op x I into
the legs (a, b) of a d^n x d^n matrix, with the site dimension d read from
the operator's shape (d^2 x d^2), so the same rule serves the three-state
sites and the two-state sites of the gl(2) fixture.  ``controlled_op``
builds on it for the dynamical shifts, which pick the operator by the value
of a third, control leg.
"""

from __future__ import annotations

import itertools
import math
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


def identity_op(n: int) -> np.ndarray:
    return np.eye(DIM**n, dtype=complex)


def permutation_op() -> np.ndarray:
    """Flip operator P(u x w) = w x u on the two-site space."""
    p = np.zeros((DIM**2, DIM**2), dtype=complex)
    for a in range(DIM):
        for b in range(DIM):
            p[b * DIM + a, a * DIM + b] = 1.0
    return p


def two_leg_op(op: np.ndarray, n: int, a: int, b: int) -> np.ndarray:
    """Embed a two-site operator on the (not necessarily adjacent) legs a < b.

    The site dimension d is read from the operator's shape (d^2 x d^2).
    """
    if not 1 <= a < b <= n:
        raise ValueError(f"leg pair ({a}, {b}) out of range for n={n}")
    d = math.isqrt(op.shape[0])
    out = np.empty((d**n, d**n), dtype=complex)
    # view the result with the row legs a, b first, then the column legs a, b
    legs = [a - 1, b - 1] + [k for k in range(n) if k not in (a - 1, b - 1)]
    view = out.reshape((d,) * (2 * n)).transpose(legs + [n + k for k in legs])
    rest = (1,) * (n - 2)
    eye = np.eye(d ** (n - 2)).reshape((1, 1) + (d,) * (n - 2) + (1, 1) + (d,) * (n - 2))
    np.multiply(op.reshape((d, d) + rest + (d, d) + rest), eye, out=view)
    return out


def controlled_op(ops: Sequence[np.ndarray], n: int, a: int, b: int, control: int) -> np.ndarray:
    """Act with ops[j-1] on the legs (a, b) where the control leg carries v_j.

    The result is the sum over j of two_leg_op(ops[j-1], n, a, b) restricted
    to the columns whose control leg holds the value j; d = len(ops).
    """
    if control in (a, b):
        raise ValueError("the control leg must lie outside the acting pair")
    d = len(ops)
    value = np.arange(d**n) // d ** (n - control) % d
    out = two_leg_op(ops[0], n, a, b)
    for j in range(1, d):
        np.copyto(out, two_leg_op(ops[j], n, a, b), where=value == j)
    return out


def frob(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


def rel_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Frobenius distance of two matrices over the larger of their norms."""
    scale = max(frob(lhs), frob(rhs))
    if scale == 0.0:
        return 0.0
    return frob(lhs - rhs) / scale
