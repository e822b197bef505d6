"""Seeded request streams of the benchmark workloads.

Each stream yields ``gate.Request`` objects that call qkzconn's public
functions.  A request's inputs come from ``numpy.random.default_rng([seed,
i])`` for request number ``i``, so one seed always gives the same stream;
the program sees only the generated inputs.  Every battery runs the same
default configuration, whatever the seed.
"""

from __future__ import annotations

import itertools
import os
from functools import partial

import numpy as np

from qkzconn import cli, heckespin, qkz
from qkzconn.checks import run_suite
from qkzconn.params import RunConfig, sample_phi, sample_point, sample_point_band
from qkzconn.symgroup import act, content_labels, eta_exponent, leading_index
from qkzconn.tensorspace import rel_residual, tensor_index

import gate

# Every battery is `qkzconn verify all` as shipped: RunConfig() is the CLI's
# default configuration (n = 4, seed 7).  Batteries at other sweep seeds
# are not used: about 1 seed in 40 fails a check by a residual above
# its tolerance (connection-cocycle, connection-unitarity, dyn-unitarity),
# a precision defect of the program, and a failed request fails the run.
BATTERY_CONFIG = RunConfig()

# Harness draws of phi keep every pair of components at least this far
# apart.  phi_a = phi_b is a pole of the dynamical R-matrix; within about
# 2e-3 of it the one-letter unitarity residual of `rmatrix` exceeds 1e-9.
PHI_MIN_SEPARATION = 1e-2

TRANSPORT_N = 6
# Pairs (i, j) with i + j = 7: their translation words have the same total
# length, so every transport request does the same number of matmuls.
TRANSPORT_PAIRS = ((1, 6), (2, 5), (3, 4))
BRAID_DEPTH = 40.0
# the tolerances of the qkz-flatness and braid-limit checks
FLATNESS_TOL = RunConfig().residual_tol
BRAID_LIMIT_TOL = 1e-10

EXPORT_N = 5
W0 = "s1 s2 s1 s3 s2 s1 s4 s3 s2 s1"  # reduced word of the longest element of S_5
# One connection export per EXPORT_CYCLE requests, the rest rmatrix exports.
# A 30 s run then holds over 1000 rmatrix requests, so their 99th
# percentile has at least 10 samples beyond it.
EXPORT_CYCLE = 64
ROUTE_TOL = 1e-9  # tolerance of the monodromy-routes check

#: requests in one whole cycle of each workload's request mix.  A timed run
#: ends on a cycle boundary, so its mean is the mean of the designed mix; a
#: traced run is one cycle, so its span counts repeat exactly.
CYCLE = {"battery": 1, "transport": 1, "export": EXPORT_CYCLE}


def battery(seed: int, scratch: str):
    while True:
        yield gate.Request("battery", partial(run_suite, "all", BATTERY_CONFIG), gate.check_report)


def generic_phi(rng: np.random.Generator) -> tuple[complex, complex, complex]:
    """``sample_phi``, redrawn until no two components lie within PHI_MIN_SEPARATION."""
    while True:
        phi = sample_phi(rng)
        if min(abs(a - b) for a, b in itertools.combinations(phi, 2)) >= PHI_MIN_SEPARATION:
            return phi


def transport(seed: int, scratch: str):
    ep = RunConfig().elliptic()
    for i in itertools.count():
        rng = np.random.default_rng([seed, i])
        phi = generic_phi(rng)
        a, b = TRANSPORT_PAIRS[rng.integers(len(TRANSPORT_PAIRS))]
        z = sample_point(rng, TRANSPORT_N, ep.nome)
        lam = (int(rng.choice((1, -1))),) + (0,) * (TRANSPORT_N - 1)
        yield gate.Request("transport", partial(_transport, ep, phi, a, b, z, lam), _check_transport)


def _transport(ep, phi, i, j, z, lam) -> dict[str, float]:
    rep = heckespin.spin_rep(heckespin.HeckeParams(elliptic=ep, n=TRANSPORT_N), phi)
    return {
        "flatness": qkz.flatness_residual(rep, i, j, z),
        "braid_limit": qkz.braid_limit_residual(rep, lam, BRAID_DEPTH),
    }


def _check_transport(out: dict[str, float]) -> str | None:
    return gate.first_failure(
        gate.residual_failure("flatness", out["flatness"], FLATNESS_TOL),
        gate.residual_failure("braid-limit", out["braid_limit"], BRAID_LIMIT_TOL),
    )


def _fmt(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


def export(seed: int, scratch: str):
    path = os.path.join(scratch, "export.json")
    for i in itertools.count():
        rng = np.random.default_rng([seed, i])
        p, kappa = rng.uniform(0.3, 0.4), rng.uniform(0.2, 0.3)
        phi = generic_phi(rng)
        # Values are passed as --flag=value: argparse reads a separate value
        # with a leading minus, such as `--z -0.4,...`, as an option and exits 2.
        common = [f"--p={p!r}", f"--kappa={kappa!r}", "--phi=" + ",".join(map(_fmt, phi)), "--out", path]
        if i % EXPORT_CYCLE == EXPORT_CYCLE - 1:
            z = sample_point_band(rng, EXPORT_N)
            argv = ["connection", "--n", str(EXPORT_N), "--w", W0, "--z=" + ",".join(map(_fmt, z)), *common]
            yield gate.Request("connection", partial(run_cli, argv, path), gate_export(_check_connection_json))
        else:
            (x,) = sample_point_band(rng, 1)
            argv = ["rmatrix", "--x=" + _fmt(x), *common]
            yield gate.Request("rmatrix", partial(run_cli, argv, path), gate_export(gate.check_rmatrix_json))


def run_cli(argv: list[str], path: str) -> tuple[int, str]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    return code, path


def gate_export(check):
    """Gate an export: exit code 0, then ``check`` on the JSON file it wrote."""

    def gated(out: tuple[int, str]) -> str | None:
        code, path = out
        try:
            if code != 0:
                return gate.check_exit_code(code)
            with open(path, encoding="utf-8") as handle:
                return check(handle.read())
        finally:
            if os.path.exists(path):
                os.remove(path)

    return gated


def _check_connection_json(text: str) -> str | None:
    """Parse strictly, then require the tensor operator to equal the scatter
    of the per-block matrices (the two routes of the monodromy-routes check)."""
    payload = gate.strict_loads(text)
    labels = content_labels(EXPORT_N)
    if len(payload["blocks"]) != len(labels):
        return f"{len(payload['blocks'])} blocks, expected {len(labels)}"
    tensor = _matrix(payload["tensor_operator"])
    if tensor.shape != (3**EXPORT_N, 3**EXPORT_N):
        return f"tensor operator has shape {tensor.shape}"
    scattered = np.zeros_like(tensor)
    for block in payload["blocks"]:
        r = tuple(block["content"])
        basis = [tuple(u) for u in block["basis"]]
        entries = _matrix(block["entries"])
        if entries.shape != (len(basis), len(basis)):
            return f"block {r} has shape {entries.shape} for {len(basis)} basis vectors"
        lead = leading_index(r)
        index = [tensor_index(act(u, lead)) for u in basis]
        sign = np.array([(-1.0) ** eta_exponent(u, r) for u in basis])
        scattered[np.ix_(index, index)] = np.outer(sign, sign) * entries
    return gate.residual_failure("monodromy routes", rel_residual(tensor, scattered), ROUTE_TOL)


def _matrix(rows) -> np.ndarray:
    pairs = np.asarray(rows, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


STREAMS = {"battery": battery, "transport": transport, "export": export}
