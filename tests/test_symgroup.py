"""Permutation words, cosets and multi-index combinatorics, brute-force checked."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkzconn.symgroup import (
    act,
    all_perms,
    compose,
    conjugation_index,
    content,
    content_labels,
    content_stabiliser,
    eta_exponent,
    from_word,
    identity_perm,
    inverse,
    is_min_coset_rep,
    leading_index,
    length,
    min_coset_reps,
    occurrence_positions,
    reduced_word,
    rep_of_index,
    simple,
)

perms_n = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


class TestWords:
    def test_length_examples(self):
        assert length(identity_perm(4)) == 0
        assert length((4, 3, 2, 1)) == 6
        assert length((2, 3, 1)) == 2

    def test_length_brute_force(self):
        for w in all_perms(4):
            brute = sum(
                1 for i, j in itertools.combinations(range(4), 2) if w[i] > w[j]
            )
            assert length(w) == brute

    def test_reduced_word_examples(self):
        assert reduced_word(identity_perm(3)) == ()
        assert reduced_word((2, 1, 3, 4)) == (1,)
        w = (3, 1, 2)
        word = reduced_word(w)
        assert len(word) == 2
        assert from_word(3, word) == w

    @settings(max_examples=150, deadline=None)
    @given(w=perms_n)
    def test_reduced_word_multiplies_back(self, w):
        w = tuple(w)
        word = reduced_word(w)
        assert len(word) == length(w)
        assert from_word(len(w), word) == w

    @settings(max_examples=100, deadline=None)
    @given(w=perms_n, data=st.data())
    def test_exchange_condition(self, w, data):
        w = tuple(w)
        n = len(w)
        i = data.draw(st.integers(min_value=1, max_value=n - 1))
        assert abs(length(compose(w, simple(n, i))) - length(w)) == 1

    def test_compose_convention(self):
        # (u v)(x) = u(v(x)): act with v first
        u, v = (2, 1, 3), (1, 3, 2)
        uv = compose(u, v)
        for x in (1, 2, 3):
            assert uv[x - 1] == u[v[x - 1] - 1]

    @settings(max_examples=100, deadline=None)
    @given(w=perms_n)
    def test_inverse(self, w):
        w = tuple(w)
        n = len(w)
        assert compose(w, inverse(w)) == identity_perm(n)

    def test_act_moves_positions(self):
        w = (2, 3, 1)
        assert act(w, ("a", "b", "c")) == ("c", "a", "b")
        # entry at position k lands at position w(k)
        vals = ("x", "y", "z")
        out = act(w, vals)
        for k in range(1, 4):
            assert out[w[k - 1] - 1] == vals[k - 1]


class TestCosets:
    def test_full_index_set(self):
        assert min_coset_reps(4, {1, 2, 3}) == (identity_perm(4),)

    def test_empty_index_set(self):
        assert set(min_coset_reps(3, set())) == set(all_perms(3))

    def test_n3_example(self):
        reps = min_coset_reps(3, {2})
        assert len(reps) == 3
        # brute force: minimal length in each left coset of <s_2>
        sub = [identity_perm(3), simple(3, 2)]
        minimal = set()
        seen = set()
        for w in all_perms(3):
            coset = frozenset(compose(w, s) for s in sub)
            if coset in seen:
                continue
            seen.add(coset)
            minimal.add(min(coset, key=length))
        assert set(reps) == minimal

    def test_sizes(self):
        import math

        for n in (3, 4):
            for r in content_labels(n):
                index_set = content_stabiliser(n, r)
                sub_order = math.prod(
                    math.factorial(k) for k in _run_lengths(sorted(index_set), n)
                )
                assert len(min_coset_reps(n, index_set)) * sub_order == math.factorial(n)


def _run_lengths(index_set, n):
    # a parabolic in type A is a product of symmetric groups on runs of
    # consecutive indices; a run of length L gives a factor (L+1)!
    runs = []
    current = 0
    prev = None
    for i in index_set:
        if prev is not None and i == prev + 1:
            current += 1
        else:
            if current:
                runs.append(current + 1)
            current = 1
        prev = i
    if current:
        runs.append(current + 1)
    return runs


class TestMultiIndex:
    def test_content(self):
        assert content((1, 3, 2, 3)) == (1, 1, 2)

    def test_content_labels(self):
        assert len(content_labels(2)) == 6
        assert len(content_labels(3)) == 10
        for r in content_labels(5):
            assert sum(r) == 5

    def test_leading_index(self):
        assert leading_index((1, 1, 1)) == (3, 2, 1)
        assert leading_index((2, 0, 2)) == (3, 3, 1, 1)

    def test_occurrences(self):
        assert occurrence_positions((1, 3, 2, 3), 3) == (2, 4)

    def test_stabiliser(self):
        assert content_stabiliser(3, (1, 1, 1)) == frozenset()
        assert content_stabiliser(3, (0, 2, 1)) == frozenset({2})
        assert content_stabiliser(4, (4, 0, 0)) == frozenset({1, 2, 3})

    def test_rep_of_index_worked_case(self):
        assert rep_of_index((1, 3, 2)) == (2, 3, 1)

    def test_rep_of_index_properties(self, rng):
        for _ in range(40):
            alpha = tuple(int(v) for v in rng.integers(1, 4, size=5))
            w = rep_of_index(alpha)
            r = content(alpha)
            assert act(w, leading_index(r)) == alpha
            assert is_min_coset_rep(w, content_stabiliser(5, r))

    def test_bijection_with_cosets(self):
        for n in (3, 4, 5):
            for r in content_labels(n):
                reps = min_coset_reps(n, content_stabiliser(n, r))
                images = {act(w, leading_index(r)) for w in reps}
                assert len(images) == len(reps)
                assert all(content(a) == r for a in images)
                assert {rep_of_index(a) for a in images} == set(reps)


class TestEta:
    def test_identity(self):
        assert eta_exponent(identity_perm(3), (1, 1, 1)) == 0

    def test_worked_case(self):
        # one 1-entry before the single 3-entry, no 2-entry before it
        assert eta_exponent((2, 3, 1), (1, 1, 1)) == 1

    def test_strict_variant_kills_single_odd(self):
        # with a strict upper bound the count is empty whenever r3 = 1
        for w in min_coset_reps(3, content_stabiliser(3, (1, 1, 1))):
            assert eta_exponent(w, (1, 1, 1), inclusive=False) == 0

    def test_occurrence_formula(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 6))
            alpha = tuple(int(v) for v in rng.integers(1, 4, size=n))
            w = rep_of_index(alpha)
            r = content(alpha)
            ones = occurrence_positions(alpha, 1)
            twos = occurrence_positions(alpha, 2)
            threes = occurrence_positions(alpha, 3)
            count = sum(1 for a in twos for b in threes if a < b) + sum(
                1 for a in ones for b in threes if a < b
            )
            assert eta_exponent(w, r) == count

    def test_precondition(self):
        with pytest.raises(ValueError):
            eta_exponent((1, 3, 2), (0, 2, 1), inclusive=True)  # not a coset rep for I={2}


class TestConjugationIndex:
    def test_examples(self):
        # moving the representative back into the subgroup picks out the index
        assert conjugation_index(identity_perm(3), 1, {2}) == 2
        assert conjugation_index(identity_perm(4), 3, {1, 3}) == 1

    def test_error_when_still_minimal(self):
        with pytest.raises(ValueError):
            conjugation_index(identity_perm(3), 2, {2})  # s_1 e stays minimal

    def test_brute_force(self):
        for n in (3, 4):
            for r in content_labels(n):
                index_set = content_stabiliser(n, r)
                for sigma in min_coset_reps(n, index_set):
                    for i in range(1, n):
                        moved = compose(simple(n, n - i), sigma)
                        if is_min_coset_rep(moved, index_set):
                            continue
                        k = conjugation_index(sigma, i, index_set)
                        assert k in index_set
                        assert moved == compose(sigma, simple(n, k))
