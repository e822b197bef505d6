"""Span tracer for the traced run, installed from outside the program.

``Tracer.install`` replaces the public functions of the traced qkzconn
modules with wrappers that record a span (name, start, end, parent,
request) each time they run.  A function is rebound in every qkzconn
module that binds it: ``from .elliptic import theta`` makes ``theta`` an
attribute of ``connection`` and ``checks`` as well, and rebinding it inside
``elliptic`` also catches the calls that ``coeff_a`` makes.  Spans live in
flat arrays in memory and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct child
spans (children of one span never overlap, as the program is single
threaded).  ``layer_metrics`` sums them into the per-layer metrics listed
in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: traced functions per module; None means every public function of the module
TRACED = {
    "elliptic": None,
    "symgroup": None,
    "blocks": None,
    "heckespin": None,
    "tensorspace": ("site_pair_op", "two_leg_op", "site_projector", "leg_permutation_op"),
    "connection": None,
    "qkz": None,
    "serialize": ("dumps",),
}

EMBED = ("tensorspace.site_pair_op", "tensorspace.two_leg_op", "tensorspace.site_projector", "tensorspace.leg_permutation_op")
COEFF = ("elliptic.coeff_a", "elliptic.coeff_b", "elliptic.c_func")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._request = -1
        self.active = False
        self.pole_errors = 0
        self._last_pole: BaseException | None = None
        # counts computed from array sizes, never measured
        self.dense_bytes = 0  # heckespin.spin_rep results
        self.embed_bytes = 0  # tensorspace embedding results
        self.matmul_flops = 0  # 8 d^3 per letter product in qkz.transport_word
        self.serialized_bytes = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request_scope(self, kind: str):
        """Root span of one request; every span under it carries its index."""
        nid = self._name_id(f"request.{kind}")
        self.active = True
        self._request = len(self.start)
        idx = self._open(nid)
        try:
            yield
        finally:
            self._close(idx)
            self.active = False
            self._request = -1

    def wrap(self, fn, name: str, after=None, pole_error=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                if pole_error is not None and isinstance(exc, pole_error) and exc is not self._last_pole:
                    self.pole_errors += 1
                    self._last_pole = exc
                raise
            self._close(idx)
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded qkzconn module."""
        from qkzconn.elliptic import PoleError

        hooks = {
            "heckespin.spin_rep": _count_spin_rep,
            "qkz.transport_word": _count_transport_word,
            "serialize.dumps": _count_dumps,
            **{name: _count_embed for name in EMBED},
        }
        wrapped = {}
        for mod_name, names in TRACED.items():
            mod = importlib.import_module(f"qkzconn.{mod_name}")
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
                if public and (names is None or attr in names):
                    full = f"{mod_name}.{attr}"
                    pole = PoleError if mod_name == "elliptic" else None
                    wrapped[obj] = self.wrap(obj, full, hooks.get(full), pole)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qkzconn" and not mod_name.startswith("qkzconn."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.request, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self times and computed counts from the recorded spans."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        own = dur - covered
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        total_s = np.bincount(a["name"], weights=dur, minlength=k)

        def pick(values, match) -> float:
            return float(sum(values[i] for i, n in enumerate(self.names) if match(n)))

        def one(values, name):
            return pick(values, lambda n: n == name)

        def module(values, prefix):
            return pick(values, lambda n: n.startswith(prefix + "."))

        def monodromy(n):
            return n.startswith("connection.tensor_monodromy_")

        def conn_residual(n):
            return n.startswith("connection.") and n.endswith("_residual")

        return {
            "elliptic.theta.calls": one(calls, "elliptic.theta"),
            "elliptic.theta.self_s": one(self_s, "elliptic.theta"),
            "elliptic.coeff.calls": pick(calls, lambda n: n in COEFF),
            "elliptic.coeff.self_s": pick(self_s, lambda n: n in COEFF),
            "elliptic.pow_p.calls": one(calls, "elliptic.pow_p"),
            "elliptic.pole_errors": float(self.pole_errors),
            "elliptic.self_s": module(self_s, "elliptic"),
            "symgroup.calls": module(calls, "symgroup"),
            "symgroup.self_s": module(self_s, "symgroup"),
            "blocks.content_block.calls": one(calls, "blocks.content_block"),
            "blocks.self_s": module(self_s, "blocks"),
            "heckespin.spin_rep.calls": one(calls, "heckespin.spin_rep"),
            "heckespin.spin_rep.s": one(total_s, "heckespin.spin_rep"),
            "heckespin.self_s": module(self_s, "heckespin"),
            "heckespin.dense_bytes_computed": float(self.dense_bytes),
            "tensorspace.embed.calls": pick(calls, lambda n: n in EMBED),
            "tensorspace.embed.self_s": pick(self_s, lambda n: n in EMBED),
            "tensorspace.embed.bytes_computed": float(self.embed_bytes),
            "connection.dyn_r_matrix.calls": one(calls, "connection.dyn_r_matrix"),
            "connection.dyn_r_matrix.self_s": one(self_s, "connection.dyn_r_matrix"),
            "connection.connection_simple.calls": one(calls, "connection.connection_simple"),
            "connection.connection_simple.self_s": one(self_s, "connection.connection_simple"),
            "connection.tensor_monodromy.calls": pick(calls, monodromy),
            "connection.tensor_monodromy.self_s": pick(self_s, monodromy),
            "connection.residual.calls": pick(calls, conn_residual),
            "connection.residual.self_s": pick(self_s, conn_residual),
            "connection.self_s": module(self_s, "connection"),
            "qkz.transport_letter.calls": one(calls, "qkz.transport_letter"),
            "qkz.transport_word.self_s": one(self_s, "qkz.transport_word"),
            "qkz.matmul_flops_computed": float(self.matmul_flops),
            "qkz.self_s": module(self_s, "qkz"),
            "serialize.dumps.calls": one(calls, "serialize.dumps"),
            "serialize.dumps.s": one(total_s, "serialize.dumps"),
            "serialize.bytes_out": float(self.serialized_bytes),
            "trace.spans": float(len(dur)),
        }


def _count_spin_rep(tracer: Tracer, args, rep) -> None:
    mats = (rep.braid, *rep.t_ops, *rep.t_inv_ops, rep.zeta, rep.zeta_inv)
    tracer.dense_bytes += sum(m.nbytes for m in mats)


def _count_embed(tracer: Tracer, args, mat) -> None:
    tracer.embed_bytes += mat.nbytes


def _count_transport_word(tracer: Tracer, args, mat) -> None:
    word = args[1]
    tracer.matmul_flops += 8 * mat.shape[0] ** 3 * len(word.letters)


def _count_dumps(tracer: Tracer, args, text) -> None:
    tracer.serialized_bytes += len(text.encode())
