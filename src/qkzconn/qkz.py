"""Transport cocycle of the quantum affine KZ equations for a spin representation.

Words in the extended affine symmetric group are sequences over the simple
reflections and the rotation letter xi (with its inverse).  The group acts
on evaluation points by permuting coordinates and integer translations; the
transport operator of a word is the left-to-right cocycle product, each
letter evaluated at the point moved by the inverses of the preceding
letters.  Deep in the dominant chamber the translation transports converge
to the commuting braid-limit operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import PoleError, pow_p
from .heckespin import SpinRep, y_tilde
from .tensorspace import identity_op, rel_residual

__all__ = [
    "Letter",
    "AffineWord",
    "affine_word",
    "s_letter",
    "XI",
    "XI_INV",
    "translation_word",
    "translation_defect",
    "translation_power_word",
    "transport_letter",
    "transport_word",
    "flatness_residual",
    "braid_limit_residual",
]

Letter = tuple[str, int]

XI: Letter = ("xi", 1)
XI_INV: Letter = ("xi", -1)


def s_letter(i: int) -> Letter:
    return ("s", i)


def _free_reduce(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    # cancel adjacent xi xi^{-1} pairs eagerly
    out: list[Letter] = []
    for letter in letters:
        if out and letter[0] == "xi" and out[-1][0] == "xi" and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class AffineWord:
    """A word over {s_1, ..., s_{n-1}, xi, xi^{-1}}, freely reduced in xi."""

    n: int
    letters: tuple[Letter, ...]

    def __post_init__(self) -> None:
        for kind, val in self.letters:
            if kind == "s":
                if not 1 <= val < self.n:
                    raise ValueError(f"letter s_{val} out of range for n={self.n}")
            elif kind == "xi":
                if val not in (1, -1):
                    raise ValueError("xi letters carry exponent +-1")
            else:
                raise ValueError(f"unknown letter kind {kind!r}")
        object.__setattr__(self, "letters", _free_reduce(self.letters))

    def __mul__(self, other: "AffineWord") -> "AffineWord":
        if self.n != other.n:
            raise ValueError("cannot concatenate words on different site counts")
        return AffineWord(self.n, self.letters + other.letters)

    def inverse(self) -> "AffineWord":
        inv = tuple(
            (kind, -val) if kind == "xi" else (kind, val)
            for kind, val in reversed(self.letters)
        )
        return AffineWord(self.n, inv)

    def point_action(self, z: Sequence[complex]) -> tuple[complex, ...]:
        """The group element applied to a point (letters act right to left)."""
        cur = tuple(z)
        for letter in reversed(self.letters):
            cur = _letter_point_action(letter, cur)
        return cur

def _letter_point_action(letter: Letter, z: tuple[complex, ...]) -> tuple[complex, ...]:
    kind, val = letter
    if kind == "s":
        out = list(z)
        out[val - 1], out[val] = out[val], out[val - 1]
        return tuple(out)
    if val == 1:  # xi . z = (z_n + 1, z_1, ..., z_{n-1})
        return (z[-1] + 1,) + z[:-1]
    return z[1:] + (z[0] - 1,)  # xi^{-1} . z = (z_2, ..., z_n, z_1 - 1)


def affine_word(n: int, letters: Sequence[Letter]) -> AffineWord:
    return AffineWord(n, tuple(letters))


def translation_word(n: int, j: int) -> AffineWord:
    """A word realising the translation by e_j, verified by its affine action.

    Built from xi = s_1 ... s_{n-1} tau(e_n): the base case is
    tau(e_n) = s_{n-1} ... s_1 xi, and tau(e_j) is its conjugate by a cycle
    moving position n to position j.
    """
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range for n={n}")
    base = affine_word(n, [s_letter(i) for i in range(n - 1, 0, -1)] + [XI])
    if j == n:
        word = base
    else:
        cycle = affine_word(n, [s_letter(i) for i in range(j, n)])
        word = cycle * base * cycle.inverse()
    defect = translation_defect(word, j)
    if defect != 0.0:
        raise ValueError(f"translation word for e_{j} misses the unit shift by {defect}")
    return word


def translation_defect(word: AffineWord, j: int) -> float:
    """Distance between the word's action on a probe point and the probe shifted by e_j."""
    probe = tuple(complex(10 * (k + 1)) for k in range(word.n))
    moved = word.point_action(probe)
    return max(abs(m - v - (1 if k == j - 1 else 0)) for k, (m, v) in enumerate(zip(moved, probe)))


def translation_power_word(n: int, lam: Sequence[int]) -> AffineWord:
    """A word for the commuting product of translations with exponents lam."""
    if len(lam) != n:
        raise ValueError("exponent vector length must match the number of sites")
    word = affine_word(n, [])
    for j, e in enumerate(lam, start=1):
        if e == 0:
            continue
        tj = translation_word(n, j)
        if e < 0:
            tj = tj.inverse()
            e = -e
        for _ in range(e):
            word = word * tj
    return word


def transport_letter(rep: SpinRep, letter: Letter, z: Sequence[complex]) -> np.ndarray:
    """One-letter transport: the xi letters are constant, the s_i letters are
    (T_i^{-1} - p^{z_i - z_{i+1}} T_i) / (1/q - q p^{z_i - z_{i+1}})."""
    kind, val = letter
    if kind == "xi":
        return rep.zeta if val == 1 else rep.zeta_inv
    i = val
    ep = rep.params.elliptic
    q = rep.params.q
    t = pow_p(ep, complex(z[i - 1]) - complex(z[i]))
    den = 1.0 / q - q * t
    if abs(den) < ep.pole_tol * max(1.0, abs(q * t)):
        raise PoleError(
            f"pole: transport denominator 1/q - q p^(z_{i}-z_{i + 1}) has modulus {abs(den):.3e}",
            factor="1/q - q*p^(z_i - z_{i+1})",
            magnitude=abs(den),
        )
    return (rep.t_inv(i) - t * rep.t(i)) / den


def transport_word(rep: SpinRep, word: AffineWord, z: Sequence[complex]) -> np.ndarray:
    """Cocycle product C_{l_1}(z) C_{l_2}(l_1^{-1} z) C_{l_3}(l_2^{-1} l_1^{-1} z) ..."""
    if word.n != rep.n:
        raise ValueError("word and representation disagree on the number of sites")
    mat = identity_op(rep.n)
    zcur = tuple(complex(t) for t in z)
    for k, letter in enumerate(word.letters):
        try:
            mat = mat @ transport_letter(rep, letter, zcur)
        except PoleError as exc:
            raise PoleError(f"letter {k} {letter}: {exc}", factor=exc.factor, magnitude=exc.magnitude) from exc
        zcur = _letter_point_action((letter[0], -letter[1]) if letter[0] == "xi" else letter, zcur)
    return mat


def flatness_residual(rep: SpinRep, i: int, j: int, z: Sequence[complex]) -> float:
    """Defect of the commuting-translation identity
    C_{tau(e_i)}(z) C_{tau(e_j)}(z - e_i) = C_{tau(e_j)}(z) C_{tau(e_i)}(z - e_j)."""
    wi = translation_word(rep.n, i)
    wj = translation_word(rep.n, j)
    lhs = transport_word(rep, wi * wj, z)
    rhs = transport_word(rep, wj * wi, z)
    return rel_residual(lhs, rhs)


def braid_limit_residual(rep: SpinRep, lam: Sequence[int], depth: float) -> float:
    """Distance of the translation transport from its braid limit, evaluated at
    the point with z_i - z_{i+1} = -depth for all i."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    n = rep.n
    z = tuple(complex((k - 1) * depth) for k in range(1, n + 1))
    word = translation_power_word(n, lam)
    transported = transport_word(rep, word, z)
    limit = y_tilde(rep, lam)
    return rel_residual(transported, limit)
