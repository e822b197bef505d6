"""Run configuration and deterministic parameter sampling; the constants
``SITE_CAP``, ``BAND_WIDTH`` and ``BAND_HEIGHT`` are not ``RunConfig`` fields."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticParams, Nome, check_coupling

__all__ = [
    "RunConfig",
    "sample_phi",
    "sample_point",
    "sample_point_band",
    "sample_scalar",
    "sample_dynamical",
]


#: largest site count a run accepts.  Every operator on n sites is stored by
#: content block (the largest block at n = 6 is 90 x 90); what still bounds n
#: is memory: at n = 7 ``blocks.genericity_report`` holds (3^n)^2 n complex
#: label differences (535 MB), and the ``connection`` export's
#: ``tensor_operator`` is about 67 MB of JSON text
SITE_CAP = 6


@dataclass(frozen=True)
class RunConfig:
    """Parameters, tolerance and output settings of a verification run."""

    p: float = 0.35
    kappa: complex = 0.27
    phi: tuple[complex, complex, complex] | None = None
    n: int = 4
    seed: int = 7
    residual_tol: float = 1e-9
    out: str | None = None
    fmt: str = "table"

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"nome must satisfy 0 < p < 1, got {self.p}")
        if self.n < 2:
            raise ValueError(f"need at least two sites, got n={self.n}")
        if self.n > SITE_CAP:
            raise ValueError(f"n={self.n} exceeds the desk-scale cap {SITE_CAP}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        check_coupling(self.kappa)
        if self.fmt not in ("json", "table"):
            raise ValueError(f"format must be json or table, got {self.fmt!r}")
        # NaN and inf pass a plain "<= 0" test; both would decide every verdict
        if not (math.isfinite(self.residual_tol) and self.residual_tol > 0.0):
            raise ValueError(f"residual_tol must be positive and finite, got {self.residual_tol}")

    def elliptic(self) -> EllipticParams:
        return EllipticParams(nome=Nome(self.p), kappa=complex(self.kappa))

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def resolved_phi(self) -> tuple[complex, complex, complex]:
        if self.phi is not None:
            return self.phi
        return sample_phi(np.random.default_rng(self.seed ^ 0x5A17))


def sample_phi(rng: np.random.Generator) -> tuple[complex, complex, complex]:
    """A dynamical-parameter triple, each component drawn independently.

    Nothing keeps the components apart: two of them can land arbitrarily
    close, near the pole phi_a = phi_b of the dynamical R-matrix.  A caller
    that needs separated components redraws, as the benchmark's
    ``generic_phi`` does.
    """
    re = rng.uniform(-0.45, 0.45, size=3)
    im = rng.uniform(0.02, 0.3, size=3)
    return tuple(complex(a, b) for a, b in zip(re, im))


def sample_point(rng: np.random.Generator, n: int, nome: Nome) -> tuple[complex, ...]:
    """Random evaluation point: n draws of ``sample_scalar``."""
    return tuple(sample_scalar(rng, nome) for _ in range(n))


def sample_scalar(rng: np.random.Generator, nome: Nome) -> complex:
    """Random spectral-parameter difference: |Re x| <= 1, Im x in one vertical period."""
    period = 2.0 * math.pi / abs(nome.log_p)
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.0, period))


def sample_dynamical(rng: np.random.Generator) -> complex:
    """Random scalar dynamical parameter, kept away from the lattice and with a
    moderate imaginary part so products with spectral arguments stay at desk
    scale in double precision."""
    re = rng.uniform(0.08, 0.45) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return complex(re, rng.uniform(0.02, 0.4))


BAND_WIDTH = 0.8
BAND_HEIGHT = 0.3


def sample_point_band(rng: np.random.Generator, n: int) -> tuple[complex, ...]:
    """Evaluation point in a narrow horizontal band: |Re z_i| <= BAND_WIDTH,
    0 <= Im z_i <= BAND_HEIGHT.

    Connection-matrix sweeps use this window: the spectral vectors of the
    blocks carry imaginary parts of several half-periods, and the
    quasi-periodic prefactors grow like p^(-Im y * Im x), so points drawn
    over a full vertical period would push the matrix entries outside the
    range where unitarity products cancel to double precision.
    """
    return tuple(
        complex(rng.uniform(-BAND_WIDTH, BAND_WIDTH), rng.uniform(0.0, BAND_HEIGHT)) for _ in range(n)
    )
