import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import determining_pairs, is_weakly_union_free
from threshold_lab.errors import BudgetExceededError
from threshold_lab.rng import bernoulli_ranks, derive_stream
from threshold_lab.unionfree import (
    count_union_collisions,
    janson_delta_bound,
    union_collision_trial,
    union_obstacle_bruteforce,
    union_obstacle_count,
    wuf_threshold_p,
)


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


def test_collision_count_budget_refuses_before_copying_the_family(monkeypatch):
    # the 25 * 2^34 bytes of union tables of 2^17 masks are refused before
    # the family's 1 MiB is sorted or copied
    monkeypatch.setattr("threshold_lab.errors.MAX_ARRAY_BYTES", 1 << 20)
    family = np.arange(1 << 17)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="union tables"):
            count_union_collisions(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < family.nbytes


def test_collision_flag_agreement_random():
    rng = derive_stream(70, 0)
    for _ in range(300):
        size = int(rng.integers(0, 9))
        masks = rng.choice(32, size=size, replace=False).tolist()
        x = count_union_collisions(masks)
        assert x == oracles.union_collisions_bruteforce(masks)
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
    with pytest.raises(ValueError):
        union_obstacle_bruteforce(-1)
    # the 25 * 4^n bytes of union tables are refused before the power set is
    # built, which at n = 20 would trace 8 MiB
    for n in (13, 20):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="memory budget"):
                union_obstacle_bruteforce(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, n


@pytest.mark.parametrize("n", range(7))
def test_obstacle_census_matches_quadruple_loop(n):
    assert union_obstacle_bruteforce(n) == oracles.union_collisions_bruteforce(range(1 << n))


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
        union_collision_trial(derive_stream(71, 1), 63, 0.1)


# The ranks of 2^40 and 2^62 sets reach past bit 32.  Each trial's count is
# checked against the oracle on its own draw, at and past the threshold (a
# draw at n = 62 has about 1400 members there, which the oracle counts in
# under a second), and at p = 2^-55, about 128 members of 2^62.
@pytest.mark.parametrize("n, p", [(40, wuf_threshold_p(40)), (40, 2 * wuf_threshold_p(40)),
                                  (62, wuf_threshold_p(62)), (62, 2.0**-55)])
def test_trial_counts_int64_masks_above_2_to_32(n, p):
    x, holds = union_collision_trial(derive_stream(74, n), n, p)
    masks = bernoulli_ranks(1 << n, p, derive_stream(74, n))
    assert masks[-1] >> 32
    assert x == oracles.count_union_collisions(masks.tolist())
    assert holds == (x == 0)


@pytest.mark.parametrize("n", [40, 62])
def test_counts_collisions_of_masks_above_bit_32(n):
    # {n-1} u {n-3, n-2} = {n-2, n-1} u {n-3}, added to the members drawn at
    # p = 2^-55 (about 2^(n-55)) or, at n = 40, at the threshold
    p = 2.0**-55 if n == 62 else wuf_threshold_p(n)
    drawn = bernoulli_ranks(1 << n, p, derive_stream(74, n))
    built = [1 << n - 1, 3 << n - 3, 3 << n - 2, 1 << n - 3]
    family = np.union1d(drawn, built)
    x = count_union_collisions(family)
    assert x > 0 and x == oracles.count_union_collisions(family.tolist())
    assert count_union_collisions(built) == 1


# n = 10 takes fewer trials: its ~100-member union tables cost a few times n = 4's
@pytest.mark.parametrize("n, trials", [(4, 4000), (10, 500)])
def test_expected_collisions_markov(n, trials):
    # mean collision count against p^4 times the exact census
    p = 0.1
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
