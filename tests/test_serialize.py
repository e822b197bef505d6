"""JSON encoding of exports: the same values as the per-entry encoder, strict on NaN and inf.

A ``BlockOp`` in a payload is written from its stored blocks; the reference
for its text is ``json.dumps`` of ``matrix_to_lists(op.dense())``.
"""

import json
import math

import numpy as np
import pytest

from qkzconn import blocks, connection, serialize
from qkzconn.params import RunConfig, sample_point_band
from qkzconn.serialize import complex_to_pair, dumps, matrix_to_lists
from qkzconn.symgroup import content_labels, reduced_word
from qkzconn.tensorspace import BlockOp, block_layout

CFG = RunConfig()


def per_entry_lists(mat):
    """The reference: one ``complex_to_pair`` per entry."""
    return [[complex_to_pair(v) for v in row] for row in np.asarray(mat)]


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def signed_zeros():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = complex(-0.0, 0.0)
    m[0, 1] = complex(0.0, -0.0)
    m[1, 1] = complex(-0.0, -0.0)
    m[2, 2] = complex(1.5, -2.5e-300)
    return m


def same_floats(a, b):
    """Equal nested lists whose floats also agree in the sign of zero."""
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(same_floats(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@pytest.mark.parametrize(
    "make", [lambda rng: random_matrix(rng, 9), lambda rng: random_matrix(rng, 243), lambda rng: signed_zeros()]
)
def test_matrix_to_lists_matches_per_entry(rng, make):
    mat = make(rng)
    assert same_floats(matrix_to_lists(mat), per_entry_lists(mat))


def rmatrix_payload(ep, phi):
    x = 0.3 + 0.1j
    entries = connection.dyn_r_matrix(ep, x, phi)
    return serialize.dynamical_r_payload(CFG.p, complex(CFG.kappa), phi, x, entries, {"probe": 1.5e-16})


def connection_payload(ep, phi, n=3):
    z = sample_point_band(np.random.default_rng(3), n)
    specs = [blocks.content_block(ep, n, r, phi) for r in content_labels(n)]
    labels = reduced_word((3, 2, 1))
    mats = connection.connection_words(ep, [(spec, labels, z) for spec in specs])
    (tensor,) = connection.tensor_monodromy_words(ep, [(phi, labels, z)])
    blocks_out = zip(content_labels(n), specs, mats)
    return serialize.connection_payload(CFG.p, complex(CFG.kappa), phi, z, blocks_out, tensor)


def dense_reference(payload):
    """The payload with every BlockOp replaced by the nested lists of its dense matrix."""
    return {k: matrix_to_lists(v.dense()) if isinstance(v, BlockOp) else v for k, v in payload.items()}


def with_entry(op, value, part):
    """A copy of ``op`` with one stored entry's real or imaginary part set to ``value``."""
    stacks = [s.copy() for s in op.stacks]
    old = stacks[-1][-1, 0, -1]
    stacks[-1][-1, 0, -1] = complex(value, old.imag) if part == "real" else complex(old.real, value)
    return BlockOp(op.layout, stacks)


@pytest.mark.parametrize("build", [rmatrix_payload, connection_payload])
def test_dumps_parses_to_the_indented_document(ep, phi, build):
    payload = build(ep, phi)
    text = dumps(payload)
    assert "\n" not in text
    assert json.loads(text) == json.loads(json.dumps(dense_reference(payload), sort_keys=True, indent=2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dumps_writes_a_block_operator_as_its_dense_lists(rng, n):
    # random blocks with -0.0, 0.0 and subnormal parts among them: the text
    # is the C encoder's text of the dense lists, and parses back to the
    # same floats, the sign of every zero included
    layout = block_layout(n)
    shapes = [(k, d, d) for k, d in (idx.shape for idx in layout.index)]
    stacks = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in shapes]
    specials = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]
    specials += [complex(5e-324, -5e-324), complex(-2.5e-310, 1e-308)]
    for s in stacks:
        flat = s.reshape(-1)
        flat[rng.choice(flat.size, size=min(flat.size, len(specials)), replace=False)] = specials[: flat.size]
    op = BlockOp(layout, stacks)
    payload = {"b": [1.5, -0.0], "tensor_operator": op, "a": {"z": 1, "y": None}}
    text = dumps(payload)
    assert text == json.dumps(dense_reference(payload), sort_keys=True, allow_nan=False)
    assert same_floats(json.loads(text)["tensor_operator"], per_entry_lists(op.dense()))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0, "real"), (4, 4, "imag"), (8, 8, "real")])
def test_dumps_rejects_non_finite_rmatrix_entry(ep, phi, bad, where):
    i, j, part = where
    x = 0.3 + 0.1j
    entries = connection.dyn_r_matrix(ep, x, phi).copy()
    entries[i, j] = complex(bad, entries[i, j].imag) if part == "real" else complex(entries[i, j].real, bad)
    payload = serialize.dynamical_r_payload(CFG.p, complex(CFG.kappa), phi, x, entries, {})
    with pytest.raises(ValueError):
        dumps(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("target", ["block", "tensor", "tensor-imag"])
def test_dumps_rejects_non_finite_connection_entry(ep, phi, bad, target):
    # "tensor" sets the real part of a stored entry of the BlockOp,
    # "tensor-imag" its imaginary part
    payload = connection_payload(ep, phi)
    if target == "block":
        payload["blocks"][-1]["entries"][-1][-1][1] = bad
    else:
        part = "real" if target == "tensor" else "imag"
        payload["tensor_operator"] = with_entry(payload["tensor_operator"], bad, part)
    with pytest.raises(ValueError):
        dumps(payload)
