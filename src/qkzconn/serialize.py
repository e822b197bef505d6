"""Versioned JSON serialization of matrices, blocks and reports.

Complex numbers are stored as [re, im] pairs; matrices as nested lists of
such pairs.  Spectral data (the gamma vectors) is stored exactly as complex
values, including imaginary half-period offsets, rather than as evaluated
powers of the nome.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

import numpy as np

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "complex_to_pair",
    "pair_to_complex",
    "matrix_to_lists",
    "lists_to_matrix",
    "dynamical_r_payload",
    "connection_payload",
    "decomposition_payload",
    "finite_or_null",
    "dumps",
]


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair: Sequence[float]) -> complex:
    return complex(pair[0], pair[1])


def matrix_to_lists(mat: np.ndarray) -> list[list[list[float]]]:
    return [[complex_to_pair(v) for v in row] for row in np.asarray(mat)]


def lists_to_matrix(rows: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    return np.array([[pair_to_complex(v) for v in row] for row in rows], dtype=complex)


def _parameters(p: float, kappa: complex, phi=None, z=None) -> dict[str, Any]:
    params: dict[str, Any] = {"p": p, "kappa": complex_to_pair(kappa)}
    if phi is not None:
        params["phi"] = [complex_to_pair(t) for t in phi]
    if z is not None:
        params["z"] = [complex_to_pair(t) for t in z]
    return params


def dynamical_r_payload(p, kappa, phi, x, entries, residuals=None) -> dict[str, Any]:
    basis = [f"v{a}*v{b}" for a in (1, 2, 3) for b in (1, 2, 3)]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "dynamical_r_matrix",
        "parameters": {**_parameters(p, kappa, phi=phi), "x": complex_to_pair(x)},
        "basis": basis,
        "entries": matrix_to_lists(entries),
        "residuals": residuals or {},
    }


def connection_payload(p, kappa, phi, z, blocks, tensor_entries=None, residuals=None) -> dict[str, Any]:
    """blocks: list of dicts with keys content, index_set, signs, gamma, basis, entries."""
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "connection_matrices",
        "parameters": _parameters(p, kappa, phi=phi, z=z),
        "blocks": [
            {
                "content": list(b["content"]),
                "index_set": list(b["index_set"]),
                "signs": list(b["signs"]),
                "gamma": [complex_to_pair(g) for g in b["gamma"]],
                "basis": [list(w) for w in b["basis"]],
                "entries": matrix_to_lists(b["entries"]),
            }
            for b in blocks
        ],
        "residuals": residuals or {},
    }
    if tensor_entries is not None:
        payload["tensor_operator"] = matrix_to_lists(tensor_entries)
    return payload


def decomposition_payload(p, kappa, phi, n, blocks) -> dict[str, Any]:
    """blocks: list of dicts with content, index_set, signs, gamma, basis_map, residuals."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "block_decomposition",
        "parameters": {**_parameters(p, kappa, phi=phi), "n": n},
        "blocks": [
            {
                "content": list(b["content"]),
                "index_set": list(b["index_set"]),
                "signs": list(b["signs"]),
                "gamma": [complex_to_pair(g) for g in b["gamma"]],
                "basis_map": [
                    {
                        "multi_index": list(alpha),
                        "coset_rep": list(w),
                        "sign": sign,
                    }
                    for alpha, w, sign in b["basis_map"]
                ],
                "eigen_residual": b["eigen_residual"],
                "max_sign_residual": b["max_sign_residual"],
            }
            for b in blocks
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


def dumps(payload: dict[str, Any]) -> str:
    """Strict JSON: a non-finite float raises ValueError instead of writing ``NaN``."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
