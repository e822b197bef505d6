"""Symmetric group combinatorics: words, cosets, and multi-index bookkeeping.

Permutations are tuples of 1-based images (one-line notation), so ``w[k-1]``
is w(k).  Composition is (u v)(x) = u(v(x)), and the action on an n-tuple t
is (w . t)_i = t_{w^{-1}(i)}, i.e. the entry at position k moves to position
w(k).  Multi-indices are n-tuples over {1, 2, 3}; their content r = (r1, r2,
r3) counts the entries equal to 1, 2, 3.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]
Content = tuple[int, int, int]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def simple(n: int, i: int) -> Perm:
    """The neighbour transposition s_i swapping i and i+1 (1 <= i < n)."""
    if not 1 <= i < n:
        raise ValueError(f"simple reflection index {i} out of range for n={n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def compose(u: Perm, v: Perm) -> Perm:
    """(u v)(x) = u(v(x)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    return tuple(u[x - 1] for x in v)


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for k, img in enumerate(w, start=1):
        inv[img - 1] = k
    return tuple(inv)


def act(w: Perm, values: Sequence) -> tuple:
    """Permutation action on tuples: (w . t)_i = t_{w^{-1}(i)}.

    >>> act((2, 3, 1), ("a", "b", "c"))
    ('c', 'a', 'b')
    """
    out = [None] * len(w)
    for k, img in enumerate(w):
        out[img - 1] = values[k]
    return tuple(out)


def length(w: Perm) -> int:
    """Number of inversions #{(i, j) : i < j, w(i) > w(j)}.

    >>> length((2, 3, 1))
    2
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def reduced_word(w: Perm) -> tuple[int, ...]:
    """Lexicographically first reduced word (i_1, ..., i_r) with w = s_{i_1} ... s_{i_r}.

    Greedy: peel the smallest left descent (the smallest i with
    w^{-1}(i) > w^{-1}(i+1)) from the left.

    >>> reduced_word((1, 2, 3))
    ()
    >>> reduced_word((3, 1, 2))
    (2, 1)
    """
    n = len(w)
    cur = list(w)
    word: list[int] = []
    remaining = length(w)
    while remaining > 0:
        for i in range(1, n):
            if cur.index(i) > cur.index(i + 1):
                word.append(i)
                # left multiplication by s_i swaps the values i and i+1
                a, b = cur.index(i), cur.index(i + 1)
                cur[a], cur[b] = cur[b], cur[a]
                remaining -= 1
                break
        else:  # pragma: no cover - unreachable for a valid permutation
            raise AssertionError("no descent found on a non-identity permutation")
    return tuple(word)


def from_word(n: int, word: Iterable[int]) -> Perm:
    """Multiply out a word in the simple reflections, left to right."""
    w = identity_perm(n)
    for i in word:
        w = compose(w, simple(n, i))
    return w


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic one-line order."""
    return itertools.permutations(range(1, n + 1))


def is_min_coset_rep(w: Perm, index_set: Iterable[int]) -> bool:
    """w has minimal length in w S_{n,I}, i.e. l(w s_i) = l(w) + 1 for i in I.

    Right multiplication by s_i swaps positions i, i+1, so the condition is
    w(i) < w(i+1).
    """
    return all(w[i - 1] < w[i] for i in index_set)


def min_coset_reps(n: int, index_set: Iterable[int]) -> tuple[Perm, ...]:
    """Minimal representatives of S_n / S_{n,I}, lexicographic in one-line form.

    >>> min_coset_reps(3, {2})
    ((1, 2, 3), (2, 1, 3), (3, 1, 2))
    """
    index_set = frozenset(index_set)
    return tuple(w for w in all_perms(n) if is_min_coset_rep(w, index_set))


# ---------------------------------------------------------------------------
# multi-indices over {1, 2, 3}


def content(alpha: Sequence[int]) -> Content:
    """(r1, r2, r3) = number of entries of alpha equal to 1, 2, 3."""
    return (alpha.count(1), alpha.count(2), alpha.count(3))


def content_labels(n: int) -> list[Content]:
    """All (r1, r2, r3) with nonnegative entries summing to n."""
    return [
        (r1, r2, n - r1 - r2)
        for r1 in range(n + 1)
        for r2 in range(n + 1 - r1)
    ]


def leading_index(r: Content) -> tuple[int, ...]:
    """The sorted-descending multi-index (3,..,3, 2,..,2, 1,..,1) of content r."""
    r1, r2, r3 = r
    return (3,) * r3 + (2,) * r2 + (1,) * r1


def occurrence_positions(alpha: Sequence[int], j: int) -> tuple[int, ...]:
    """Increasing list of 1-based positions k with alpha_k = j."""
    return tuple(k for k, a in enumerate(alpha, start=1) if a == j)


def multi_index_swap(alpha: Sequence[int], k: int) -> tuple[int, ...]:
    """alpha with the entries at positions k, k+1 exchanged (the action of s_k)."""
    out = list(alpha)
    out[k - 1], out[k] = out[k], out[k - 1]
    return tuple(out)


def content_stabiliser(n: int, r: Content) -> frozenset[int]:
    """Index set I of the parabolic stabilising the leading index of content r.

    I = {1, ..., n-1} minus the block boundaries {r3, r2+r3}.
    """
    r1, r2, r3 = r
    if r1 + r2 + r3 != n or min(r) < 0:
        raise ValueError(f"{r} is not a content label for n={n}")
    boundaries = {r3, r2 + r3} & set(range(1, n))
    return frozenset(set(range(1, n)) - boundaries)


def rep_of_index(alpha: Sequence[int]) -> Perm:
    """The coset representative w with w . leading_index(content) = alpha.

    Sends 1..r3 to the positions of the 3-entries in increasing order, then
    the 2-positions, then the 1-positions; always a minimal coset
    representative for the content stabiliser.

    >>> rep_of_index((1, 3, 2))
    (2, 3, 1)
    """
    return occurrence_positions(alpha, 3) + occurrence_positions(alpha, 2) + occurrence_positions(alpha, 1)


def eta_exponent(w: Perm, r: Content, inclusive: bool = True) -> int:
    """Sign exponent of the coset representative w for a block of content r.

    Counts pairs (i, j) with 1 <= j <= r3 < i <= n and w(i) < w(j); with
    ``inclusive=False`` the range is 1 <= j < r3 instead, which kills the
    count whenever r3 = 1.  The inclusive variant agrees with the occurrence
    count of 1- and 2-entries preceding 3-entries in w . leading_index(r).

    >>> eta_exponent((2, 3, 1), (1, 1, 1))
    1
    >>> eta_exponent((2, 3, 1), (1, 1, 1), inclusive=False)
    0
    """
    n = len(w)
    r3 = r[2]
    if not is_min_coset_rep(w, content_stabiliser(n, r)):
        raise ValueError(f"{w} is not a minimal coset representative for content {r}")
    j_top = r3 if inclusive else r3 - 1
    return sum(
        1
        for j in range(1, j_top + 1)
        for i in range(r3 + 1, n + 1)
        if w[i - 1] < w[j - 1]
    )


def conjugation_index(sigma: Perm, i: int, index_set: Iterable[int]) -> int:
    """The unique index k in I with s_{n-i} sigma = sigma s_k.

    Requires sigma to be a minimal coset representative and s_{n-i} sigma to
    fall out of the representative set.
    """
    n = len(sigma)
    index_set = frozenset(index_set)
    if not is_min_coset_rep(sigma, index_set):
        raise ValueError(f"{sigma} is not a minimal coset representative for I={sorted(index_set)}")
    moved = compose(simple(n, n - i), sigma)
    if is_min_coset_rep(moved, index_set):
        raise ValueError(
            f"s_{n - i} * {sigma} stays a minimal representative; no conjugation index exists"
        )
    u = compose(inverse(sigma), moved)
    for k in index_set:
        if u == simple(n, k):
            return k
    raise ValueError(f"conjugate {u} of s_{n - i} is not a simple reflection in I")  # pragma: no cover
