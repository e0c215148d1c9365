import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import is_weakly_union_free
from threshold_lab.errors import BudgetExceededError
from threshold_lab.rng import derive_stream
from threshold_lab.unionfree import (
    count_union_collisions,
    determining_pairs,
    janson_delta_bound,
    union_collision_trial,
    union_obstacle_bruteforce,
    union_obstacle_count,
    wuf_threshold_p,
)


def _collisions_bruteforce(masks):
    pairs = list(combinations(masks, 2))
    total = 0
    for (a, b), (c, d) in combinations(pairs, 2):
        if (a | b) == (c | d) and len({a, b, c, d}) == 4:
            total += 1
    return total


def test_determining_pairs_tiny():
    assert determining_pairs(0b1) == []
    got = set(map(frozenset, determining_pairs(0b110)))
    assert got == {
        frozenset({0b010, 0b100}),
        frozenset({0b110, 0b100}),
        frozenset({0b110, 0b010}),
    }


def test_determining_pairs_count_and_union():
    for k in range(1, 9):
        u = (1 << k) - 1
        pairs = determining_pairs(u)
        assert len(pairs) == (3**k - 3) // 2
        assert all(r | s == u for r, s in pairs)
        assert all(r != s for r, s in pairs)
        assert len(set(map(frozenset, pairs))) == len(pairs)


def test_determining_pairs_sparse_universe():
    # elements need not be contiguous bits
    u = 0b10101
    pairs = determining_pairs(u)
    assert len(pairs) == (3**3 - 3) // 2
    assert all(r | s == u for r, s in pairs)


def test_determining_pairs_budget():
    with pytest.raises(BudgetExceededError):
        determining_pairs((1 << 14) - 1)


def test_collisions_known_families():
    # pairwise-disjoint singletons never share a union
    assert count_union_collisions([1 << i for i in range(6)]) == 0
    # {1}, {2}, {1,2}, {} : {1} u {2} = {1,2} u {} with four distinct sets
    assert count_union_collisions([0b01, 0b10, 0b11, 0b00]) == 1
    # {0,3} u {1,2} = {0,1} u {2,3} is the only union any two pairs share
    assert count_union_collisions([0b1001, 0b0110, 0b0011, 0b1100]) == 1
    # chains of nested sets cannot produce four distinct members
    assert is_weakly_union_free([0b000, 0b001, 0b011])
    assert not is_weakly_union_free([0b01, 0b10, 0b11, 0b00])
    assert is_weakly_union_free([0b01, 0b10, 0b11])


def test_collisions_duplicate_rejection():
    with pytest.raises(ValueError):
        count_union_collisions([1, 1, 2])
    with pytest.raises(ValueError):
        count_union_collisions([-1, 2, 5, 6])


@st.composite
def _families(draw):
    """Families of 0-60 members over [n], n <= 24, mixing arbitrary members with
    the empty set, the full set, a nested chain and a dense block."""
    n = draw(st.integers(1, 24))
    full = (1 << n) - 1
    members = draw(st.sets(st.integers(0, full), max_size=60))
    if draw(st.booleans()):
        members |= {0, full}
    if draw(st.booleans()):  # the prefixes of a random order of [n]
        order = draw(st.permutations(range(n)))
        members |= {sum(1 << e for e in order[:j]) for j in range(n + 1)}
    if draw(st.booleans()):  # every subset of the first four elements
        members |= set(range(min(full, 15) + 1))
    return draw(st.permutations(sorted(members)))[:60]


@settings(max_examples=300, deadline=None)
@given(_families(), st.data())
def test_collision_count_matches_pair_grouping_oracle(family, data):
    assert count_union_collisions(family) == oracles.count_union_collisions(family)
    assert count_union_collisions(np.array(family, dtype=np.int64)) == oracles.count_union_collisions(family)
    if family:
        dup = data.draw(st.sampled_from(family))
        with pytest.raises(ValueError, match="duplicate"):
            count_union_collisions(family + [dup])


def test_collision_count_memory_budget():
    # 25 bytes a cell of the m x m union tables is 2.5 GB at m = 10^4
    with pytest.raises(BudgetExceededError, match="memory budget"):
        count_union_collisions(np.arange(10**4))


def test_collision_flag_agreement_random():
    rng = derive_stream(70, 0)
    for _ in range(300):
        size = int(rng.integers(0, 9))
        masks = rng.choice(32, size=size, replace=False).tolist()
        x = count_union_collisions(masks)
        assert x == _collisions_bruteforce(masks)
        assert (x == 0) == is_weakly_union_free(masks)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 31), max_size=10), st.data())
def test_weak_union_freeness_downward_closed(family, data):
    family = list(family)
    if is_weakly_union_free(family):
        sub = data.draw(st.lists(st.sampled_from(family), unique=True)) if family else []
        assert is_weakly_union_free(sub)


def test_obstacle_count_values():
    assert union_obstacle_count(3) == 66
    assert union_obstacle_count(2) == 0
    assert union_obstacle_count(0) == 0


def test_obstacle_count_asymptotics():
    ratios = [union_obstacle_count(n) / (10.0**n / 8) for n in range(3, 25)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))  # climbs toward 1
    assert all(r < 1.0 for r in ratios)
    assert ratios[20 - 3] > 0.9  # within 10% by n = 20


def test_obstacle_bruteforce_values():
    # frozen from the exhaustive pair-of-pairs census
    assert union_obstacle_bruteforce(2) == 1
    assert union_obstacle_bruteforce(3) == 39
    assert union_obstacle_bruteforce(4) == 673
    # strictly monotone under ground-set growth, and below the formula
    assert 1 < 39 < 673
    assert union_obstacle_bruteforce(3) < union_obstacle_count(3)
    with pytest.raises(BudgetExceededError):
        union_obstacle_bruteforce(5)


def test_delta_bound_shape():
    assert janson_delta_bound(10, 0.0) == 0.0
    # inside the sampling window every term decays with n
    vals = [janson_delta_bound(n, 10 ** (-n / 4)) for n in (8, 12, 16, 20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # at p = 52^(-n/7) the third term sits exactly at 1
    for n in (7, 14):
        p = 52.0 ** (-n / 7)
        assert abs(52.0**n * p**7 - 1.0) < 1e-9


def test_wuf_threshold_values():
    assert abs(wuf_threshold_p(4) - 0.1) < 1e-15
    assert abs(wuf_threshold_p(8) - 0.01) < 1e-15
    assert abs(wuf_threshold_p(14) - 10**-3.5) < 1e-15


def test_trial_reports_property():
    x, holds = union_collision_trial(derive_stream(71, 0), 8, 0.02)
    assert holds == (x == 0)
    with pytest.raises(ValueError):
        union_collision_trial(derive_stream(71, 1), 25, 0.1)


def test_expected_collisions_markov():
    # mean collision count against p^4 times the exact small-n census
    n, p, trials = 4, 0.1, 4000
    xs = np.array(
        [union_collision_trial(derive_stream(72, i), n, p)[0] for i in range(trials)]
    )
    truth = p**4 * union_obstacle_bruteforce(n)
    se = xs.std(ddof=1) / math.sqrt(trials)
    assert abs(xs.mean() - truth) < 3 * se


def test_expected_collisions_markov_large_n():
    # beyond exhaustive reach the closed form stands in for the census; its
    # shared-member overcount is a vanishing fraction at this size
    n, trials = 14, 2000
    p = wuf_threshold_p(n)
    xs = np.array(
        [union_collision_trial(derive_stream(73, i), n, p)[0] for i in range(trials)]
    )
    truth = p**4 * union_obstacle_count(n)
    se = xs.std(ddof=1) / math.sqrt(trials)
    assert abs(xs.mean() - truth) < 3 * se
