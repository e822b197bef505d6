"""Run configuration and deterministic parameter sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import EllipticParams, Nome

__all__ = [
    "RunConfig",
    "sample_phi",
    "sample_point",
    "sample_point_band",
    "sample_scalar",
    "sample_dynamical",
]


#: largest site count a run accepts: one dense operator on (C^3)^(x 6) is 729 x 729
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
    """A generic dynamical-parameter triple with well-separated components."""
    re = rng.uniform(-0.45, 0.45, size=3)
    im = rng.uniform(0.02, 0.3, size=3)
    return tuple(complex(a, b) for a, b in zip(re, im))


def sample_point(rng: np.random.Generator, n: int, nome: Nome) -> tuple[complex, ...]:
    """Random evaluation point: |Re z_i| <= 1, Im z_i in one vertical period."""
    period = 2.0 * math.pi / abs(nome.log_p)
    return tuple(
        complex(rng.uniform(-1.0, 1.0), rng.uniform(0.0, period)) for _ in range(n)
    )


def sample_scalar(rng: np.random.Generator, nome: Nome) -> complex:
    """Random spectral-parameter difference, same strip as sample_point."""
    period = 2.0 * math.pi / abs(nome.log_p)
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.0, period))


def sample_dynamical(rng: np.random.Generator) -> complex:
    """Random scalar dynamical parameter, kept away from the lattice and with a
    moderate imaginary part so products with spectral arguments stay at desk
    scale in double precision."""
    re = rng.uniform(0.08, 0.45) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return complex(re, rng.uniform(0.02, 0.4))


def sample_point_band(
    rng: np.random.Generator, n: int, width: float = 0.8, height: float = 0.3
) -> tuple[complex, ...]:
    """Evaluation point in a narrow horizontal band.

    Connection-matrix sweeps use this window: the spectral vectors of the
    blocks carry imaginary parts of several half-periods, and the
    quasi-periodic prefactors grow like p^(-Im y * Im x), so points drawn
    over a full vertical period would push the matrix entries outside the
    range where unitarity products cancel to double precision.
    """
    return tuple(
        complex(rng.uniform(-width, width), rng.uniform(0.0, height)) for _ in range(n)
    )
