"""Versioned JSON serialization of matrices, blocks and reports.  A block
record is written here alone: ``_block`` writes the fields that the
``connection`` and ``decompose`` exports share.

Complex numbers are stored as [re, im] pairs; matrices as nested lists of
such pairs.  Spectral data (the gamma vectors) is stored exactly as complex
values, including imaginary half-period offsets, rather than as evaluated
powers of the nome.

``dumps`` writes a payload as ``json.dumps(payload, sort_keys=True,
allow_nan=False)`` would, one top-level value at a time.  Every value goes
through the C encoder except a ``BlockOp`` (the ``tensor_operator`` of a
connection export), whose 3^n x 3^n rows are written from its stored blocks:
the repr of each stored part, and ``[0.0, 0.0]`` for every cell outside the
blocks, the bytes of ``matrix_to_lists(op.dense())`` without building it.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .symgroup import min_coset_reps
from .tensorspace import BlockOp

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "complex_to_pair",
    "matrix_to_lists",
    "dynamical_r_payload",
    "connection_payload",
    "decomposition_payload",
    "finite_or_null",
    "dumps",
]


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_lists(mat: np.ndarray) -> list[list[list[float]]]:
    """Rows of [re, im] pairs: the same Python floats as ``complex_to_pair``
    per entry, -0.0 included, built in one pass."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def _parameters(p: float, kappa: complex, phi=None, z=None) -> dict[str, Any]:
    params: dict[str, Any] = {"p": p, "kappa": complex_to_pair(kappa)}
    if phi is not None:
        params["phi"] = [complex_to_pair(t) for t in phi]
    if z is not None:
        params["z"] = [complex_to_pair(t) for t in z]
    return params


def dynamical_r_payload(p, kappa, phi, x, entries, residuals) -> dict[str, Any]:
    basis = [f"v{a}*v{b}" for a in (1, 2, 3) for b in (1, 2, 3)]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "dynamical_r_matrix",
        "parameters": {**_parameters(p, kappa, phi=phi), "x": complex_to_pair(x)},
        "basis": basis,
        "entries": matrix_to_lists(entries),
        "residuals": residuals,
    }


def _block(content, spec) -> dict[str, Any]:
    """The principal-series fields of a block record: its content and the
    index set, signs and gamma vector of its ``PrincipalSeriesSpec``."""
    return {
        "content": list(content),
        "index_set": list(spec.index_set),
        "signs": list(spec.signs),
        "gamma": [complex_to_pair(g) for g in spec.gamma],
    }


def connection_payload(p, kappa, phi, z, blocks, tensor_op: BlockOp) -> dict[str, Any]:
    """blocks: (content, spec, entries) triples, each written with its minimal
    coset representatives.  ``tensor_op`` is stored as is, for ``dumps``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "connection_matrices",
        "parameters": _parameters(p, kappa, phi=phi, z=z),
        "blocks": [
            {
                **_block(content, spec),
                "basis": [list(w) for w in min_coset_reps(spec.n, spec.index_set)],
                "entries": matrix_to_lists(entries),
            }
            for content, spec, entries in blocks
        ],
        "residuals": {},
        "tensor_operator": tensor_op,
    }


def decomposition_payload(p, kappa, phi, n, blocks) -> dict[str, Any]:
    """blocks: (content, spec, basis, eigen_residual, max_sign_residual)
    tuples, ``basis`` the block's ``blocks.BlockBasis``."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "block_decomposition",
        "parameters": {**_parameters(p, kappa, phi=phi), "n": n},
        "blocks": [
            {
                **_block(content, spec),
                "basis_map": [
                    {"multi_index": list(alpha), "coset_rep": list(w), "sign": sign}
                    for alpha, w, sign in zip(basis.images, basis.reps, basis.signs)
                ],
                "eigen_residual": eigen,
                "max_sign_residual": max_sign,
            }
            for content, spec, basis, eigen, max_sign in blocks
        ],
    }


def finite_or_null(obj: Any) -> Any:
    """``obj`` with every NaN or inf float, at any depth, replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite_or_null(v) for v in obj]
    return obj


_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)
_ZERO_CELL = "[0.0, 0.0]"


def _operator_text(op: BlockOp) -> str:
    # one str.format per row, on a template made once per block: the block's
    # columns hold "[{!r}, {!r}]" and every other cell the constant zero
    if not all(np.isfinite(s).all() for s in op.stacks):
        raise ValueError("Out of range float values are not JSON compliant")
    dim = op.shape[0]
    rows = [""] * dim
    for idx, s in zip(op.layout.index, op.stacks):
        k, d = idx.shape
        # per block and row, its entries as re, im, re, im, ...
        values = np.stack([s.real, s.imag], axis=-1).reshape(k, d, 2 * d).tolist()
        for cols, block in zip(idx.tolist(), values):
            cells = [_ZERO_CELL] * dim
            for j in cols:
                cells[j] = "[{!r}, {!r}]"
            template = "[" + ", ".join(cells) + "]"
            for i, row in zip(cols, block):
                rows[i] = template.format(*row)
    return "[" + ", ".join(rows) + "]"


def dumps(payload: dict[str, Any]) -> str:
    """Strict JSON on one line, with sorted keys: a non-finite float raises
    ValueError instead of writing ``NaN``.  Each top-level value but a
    ``BlockOp`` goes through ``json``'s C encoder."""
    items = (
        json.encoder.encode_basestring_ascii(key)
        + ": "
        + (_operator_text(value) if isinstance(value, BlockOp) else _ENCODER.encode(value))
        for key, value in sorted(payload.items())
    )
    return "{" + ", ".join(items) + "}"
