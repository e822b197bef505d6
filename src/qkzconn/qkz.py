"""Transport cocycle of the quantum affine KZ equations for a spin representation.

Words in the extended affine symmetric group are sequences over the simple
reflections and the rotation letter xi (with its inverse).  The group acts
on evaluation points by permuting coordinates and integer translations; the
transport operator of a word is the left-to-right cocycle product, each
letter evaluated at the point moved by the inverses of the preceding
letters.  Deep in the dominant chamber the translation transports converge
to the commuting braid-limit operators.

Every transport letter, (T_i^{-1} - t T_i) / (1/q - q t), zeta or
zeta^{-1}, has at most two nonzeros per column, at the places the letter
table of ``tensorspace`` names.  ``transport_words`` hands the letters to
``heckespin.spin_products``, which combines the column entries that the
spin representation stores for its generators and multiplies them by
column operations, at a cost of O(sum k d^2) per letter instead of the
O(sum k d^3) of a block matmul; a law comparing two transports builds no operator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import PoleError, pow_p
from .heckespin import SpinRep, _family_letters, baxter_denominator, rho_vector, spin_products, word_pair_residuals
from .tensorspace import BlockOp

__all__ = [
    "Letter",
    "AffineWord",
    "affine_word",
    "s_letter",
    "XI",
    "translation_word",
    "translation_defect",
    "translation_power_word",
    "transport_words",
    "transport_word",
    "transport_pair_residuals",
    "flatness_words",
    "flatness_residual",
    "braid_limit_residual",
    "braid_limit_slope",
]

Letter = tuple[str, int]

XI: Letter = ("xi", 1)


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


@functools.cache
def translation_word(n: int, j: int) -> AffineWord:
    """A word realising the translation by e_j.

    Cached per (n, j); an ``AffineWord`` is immutable.  The check
    ``translation-words`` verifies the spelling by its affine action
    (``translation_defect``).

    tau(e_j) = s_{j-1} ... s_1 xi s_{n-1} ... s_j: the s-letters on the right
    move z_j to the last place, xi shifts it by one into the first place, and
    the s-letters on the left move it back to place j.  The word has n
    letters: n - 1 simple reflections, the length of tau(e_j), and one xi,
    which has length 0.
    """
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range for n={n}")
    left = [s_letter(i) for i in range(j - 1, 0, -1)]
    right = [s_letter(i) for i in range(n - 1, j - 1, -1)]
    return affine_word(n, left + [XI] + right)


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


def transport_words(rep: SpinRep, words: Sequence[tuple[AffineWord, Sequence[complex]]]) -> list[BlockOp]:
    """Cocycle products C_{l_1}(z) C_{l_2}(l_1^{-1} z) C_{l_3}(l_2^{-1} l_1^{-1} z) ...,
    one per (word, z) in ``words``.

    A xi letter transports by zeta or zeta^{-1}; the letter s_i at the point
    z transports by (T_i^{-1} - t T_i) / (1/q - q t) with t = p^{z_i - z_{i+1}}.
    Every t of every word comes from one ``pow_p`` call and every denominator
    is checked at once: a pole raises PoleError naming the word and the letter.

    The letters multiply on ``spin_products``, one ``column_products`` call
    per content group, with a shorter word padded by the identity.  A xi
    letter or a pad takes t = 0 and denominator 1, which leave its entries
    exact, so the batch equals the one-word products value for value.
    """
    return spin_products(rep, *_transport_letters(rep, words))


def transport_pair_residuals(rep: SpinRep, words: Sequence[tuple[AffineWord, Sequence[complex]]]) -> list[float]:
    """``word_pair_residuals`` of the transports of words[2k] and words[2k + 1]."""
    letters, t, den = _transport_letters(rep, words)
    return word_pair_residuals(rep, list(zip(letters[::2], letters[1::2])), t, den)


def _transport_letters(rep: SpinRep, words: Sequence[tuple[AffineWord, Sequence[complex]]], extra=()):
    # each (word, z) spelled as letters (row, 0), row 1 zeta, 2 zeta^{-1}, 2 + i the pair
    # (T_i^{-1}, T_i) with each s_i read at the point moved by the inverses of the letters
    # before it; then the generator words ``extra``; and the (positions, words) t and den
    n = rep.n
    ep = rep.params.elliptic
    q = rep.params.q
    letters = []
    xs, at = [], []
    for w, (word, z) in enumerate(words):
        if word.n != n:
            raise ValueError("word and representation disagree on the number of sites")
        zcur = tuple(complex(t) for t in z)
        spelled = []
        for k, letter in enumerate(word.letters):
            kind, val = letter
            if kind == "s":
                spelled.append((2 + val, 0))
                xs.append(zcur[val - 1] - zcur[val])
                at.append((k, w))
            else:
                spelled.append((1 if val == 1 else 2, 0))
            zcur = _letter_point_action((kind, -val) if kind == "xi" else letter, zcur)
        letters.append(spelled)
    t = pow_p(ep, np.array(xs, dtype=complex))
    den, pole = baxter_denominator(t, q)
    if pole.any():
        first = int(np.argmax(pole))
        k, w = at[first]
        bad = words[w][0].letters
        i = bad[k][1]
        raise PoleError(
            f"word {w} {bad}, letter {k} {bad[k]}: pole: transport denominator "
            f"1/q - q p^(z_{i}-z_{i + 1}) has modulus {abs(den[first]):.3e}",
            factor="1/q - q*p^(z_i - z_{i+1})",
            magnitude=float(abs(den[first])),
        )
    letters += extra
    shape = (max(1, max(map(len, letters), default=0)), len(letters))
    tw, dw = np.zeros(shape, dtype=complex), np.ones(shape, dtype=complex)
    where = tuple(np.array(at, dtype=np.intp).reshape(-1, 2).T)
    tw[where], dw[where] = t, den
    return letters, tw, dw


def transport_word(rep: SpinRep, word: AffineWord, z: Sequence[complex]) -> BlockOp:
    """The transport of one word at z (see ``transport_words``)."""
    return transport_words(rep, [(word, z)])[0]


def flatness_residual(rep: SpinRep, i: int, j: int, z: Sequence[complex]) -> float:
    """Defect of the commuting-translation identity
    C_{tau(e_i)}(z) C_{tau(e_j)}(z - e_i) = C_{tau(e_j)}(z) C_{tau(e_i)}(z - e_j)."""
    return transport_pair_residuals(rep, flatness_words(rep.n, i, j, z))[0]


def flatness_words(n: int, i: int, j: int, z: Sequence[complex]) -> list[tuple[AffineWord, Sequence[complex]]]:
    """The two sides of the flatness identity for (i, j) as (word, z) pairs."""
    wi = translation_word(n, i)
    wj = translation_word(n, j)
    return [(wi * wj, z), (wj * wi, z)]


def braid_limit_residual(rep: SpinRep, lam: Sequence[int], depth: float) -> float:
    """Distance of the translation transport from its braid limit ``y_tilde``
    (the X-family word, its scale p^{-(rho, lam)} as the first letter's
    denominator p^{(rho, lam)}) at the point with z_i - z_{i+1} = -depth."""
    if not (math.isfinite(depth) and depth > 0):
        raise ValueError(f"depth must be positive and finite, got {depth}")
    n, ep = rep.n, rep.params.elliptic
    z = tuple(complex((k - 1) * depth) for k in range(1, n + 1))
    limit = [_family_letters(n, lam, opposite=True)]
    letters, t, den = _transport_letters(rep, [(translation_power_word(n, lam), z)], limit)
    den[0, 1] = pow_p(ep, sum(r * l for r, l in zip(rho_vector(n, ep.kappa), lam)))
    return word_pair_residuals(rep, [letters], t, den)[0]


def braid_limit_slope(rep: SpinRep, lam: Sequence[int]) -> float:
    """The decay rate of ``braid_limit_residual`` (log p) between the depths a
    and 2a, a = ceil(6 log 0.35 / log p): 6 at p = 0.35, deeper as subleading
    terms slow down (p -> 1), shallower before rounding (p -> 0); NaN at a zero."""
    a = math.ceil(6.0 * math.log(0.35) / rep.params.elliptic.nome.log_p)
    near, far = (braid_limit_residual(rep, lam, float(depth)) for depth in (a, 2 * a))
    return (math.log(far) - math.log(near)) / a if near > 0 and far > 0 else math.nan
