import math
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.errors import BudgetExceededError
from threshold_lab.perms import (
    count_undercovered,
    cover_trial,
    covering_set,
    covering_threshold_p,
    covers,
    delete_and_flatten,
    joint_cover_neighborhood,
    joint_covers,
    lex_rank,
    lex_unrank,
    pack_trial,
    packing_threshold_bounds,
    pattern_rank_table,
    verify_cover_counts,
    verify_joint_bounds,
)
from threshold_lab.rng import bernoulli_ranks, derive_stream

perm_strategy = st.permutations(range(1, 6)).map(tuple)


def test_delete_and_flatten_cases():
    assert delete_and_flatten((2, 1, 3), 3) == (2, 1)
    assert delete_and_flatten((2, 1, 3), 1) == (1, 2)
    for m in (2, 5, 9):
        ident = tuple(range(1, m + 1))
        for i in range(1, m + 1):
            assert delete_and_flatten(ident, i) == tuple(range(1, m))
    with pytest.raises(ValueError):
        delete_and_flatten((1, 2), 3)
    with pytest.raises(ValueError):
        delete_and_flatten((1, 2), 0)


def test_covers_cases():
    assert not covers((3, 2, 1), (1, 2))
    assert covers((1, 3, 2), (1, 2))
    with pytest.raises(ValueError):
        covers((1, 2, 3), (1, 2, 3))


@settings(max_examples=50, deadline=None)
@given(perm_strategy, st.integers(1, 5))
def test_deletion_roundtrip(rho, i):
    assert covers(rho, delete_and_flatten(rho, i))


def test_covering_set_small():
    got = covering_set((1, 2))
    assert got == set(permutations((1, 2, 3))) - {(3, 2, 1)}
    assert len(got) == 5
    for pi in permutations((1, 2, 3)):
        assert len(covering_set(pi)) == 10


@settings(max_examples=30, deadline=None)
@given(perm_strategy)
def test_covering_set_roundtrip(pi):
    got = covering_set(pi)
    assert len(got) == len(pi) ** 2 + 1
    assert all(covers(rho, pi) for rho in got)


def test_joint_covers_opposite_pair():
    got = joint_covers((1, 2), (2, 1))
    assert got == {(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)}
    with pytest.raises(ValueError):
        joint_covers((1, 2), (1, 2))
    with pytest.raises(ValueError):
        joint_covers((1, 2), (1, 2, 3))


def test_neighborhood_small():
    assert joint_cover_neighborhood((1, 2)) == {(2, 1)}
    with pytest.raises(BudgetExceededError):
        joint_cover_neighborhood(tuple(range(1, 9)))


def test_neighborhood_symmetry():
    perms5 = [tuple(p) for p in permutations(range(1, 5))]
    nbhd = {p: joint_cover_neighborhood(p) for p in perms5}
    for p, others in nbhd.items():
        for q in others:
            assert p in nbhd[q]


def test_exhaustive_verifiers():
    assert all(ok for _, ok, _, _ in verify_cover_counts(5))
    for n, nb_ok, _, joint_ok, joint_max in verify_joint_bounds(4):
        assert nb_ok and joint_ok
        if n >= 2:
            assert joint_max == 4


def test_count_undercovered_edges():
    assert count_undercovered([], 4, 1) == factorial(4)
    full = [tuple(p) for p in permutations(range(1, 5))]
    assert count_undercovered(full, 3, 1) == 0
    # a single monotone cover only reaches the monotone pattern
    assert count_undercovered([(1, 2, 3, 4, 5)], 4, 1) == 23


def test_count_undercovered_matches_pairwise_check():
    # oracle: explicit covers() sweep over the whole pattern space
    rng = derive_stream(60, 0)
    all_big = [tuple(p) for p in permutations(range(1, 6))]
    family = [all_big[i] for i in rng.choice(len(all_big), size=25, replace=False)]
    for lam in (1, 2):
        slow = sum(
            1
            for pi in permutations(range(1, 5))
            if sum(covers(rho, tuple(pi)) for rho in family) < lam
        )
        assert count_undercovered(family, 4, lam) == slow


def test_lex_rank_roundtrip():
    perms4 = [tuple(p) for p in permutations(range(1, 5))]
    assert [lex_rank(p) for p in perms4] == list(range(24))
    for r in range(24):
        assert lex_rank(lex_unrank(r, 4)) == r


def test_pattern_table_fanout():
    # every larger permutation covers between 1 and n+1 distinct patterns
    n = 5
    table = pattern_rank_table(n)
    sentinel = factorial(n)
    fanout = (table < sentinel).sum(axis=1)
    assert fanout.min() >= 1 and fanout.max() <= n + 1
    # monotone rows cover exactly one pattern
    assert fanout[0] == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_pattern_table_matches_deletions(n):
    # every row against its deletions, flattened and ranked one by one
    table = pattern_rank_table(n)
    assert table.dtype == np.int32
    for rank, row in enumerate(table.tolist()):
        rho = lex_unrank(rank, n + 1)
        expect = sorted({lex_rank(delete_and_flatten(rho, i)) for i in range(1, n + 2)})
        assert sorted(row) == expect + [factorial(n)] * (n + 1 - len(expect))


def test_trials_match_count_undercovered():
    n, p = 5, 0.02
    for i in range(8):
        x_fast, holds = cover_trial(derive_stream(61, i), n, 1, p)
        ranks = bernoulli_ranks(factorial(n + 1), p, derive_stream(61, i))
        family = [lex_unrank(r, n + 1) for r in ranks]
        assert x_fast == count_undercovered(family, n, 1)
        assert holds == (x_fast == 0)


def test_pack_trial_counts_overcovered():
    n = 4
    x, holds = pack_trial(derive_stream(62, 0), n, 1, 1.0)
    # full selection covers every pattern n^2 + 1 > 1 times
    assert x == factorial(n) and not holds
    x, holds = pack_trial(derive_stream(62, 1), n, 1, 0.0)
    assert x == 0 and holds


def test_covering_threshold_values():
    assert abs(covering_threshold_p(8, 1, 0.0) - 0.15117582975435317) < 1e-12
    inc = covering_threshold_p(8, 2, 0.0) - covering_threshold_p(8, 1, 0.0)
    assert abs(inc - 0.04393032671509814) < 1e-12


def test_covering_threshold_matches_single_cover_form():
    # the lam=1 expression equals (ln n - 1 + ln n / 2n + r/n) / n exactly
    for n in (10, 100, 1000):
        for r in (-2.0, 0.0, 3.0):
            ours = covering_threshold_p(n, 1, r)
            other = (math.log(n) - 1 + math.log(n) / (2 * n) + r / n) / n
            assert abs(ours - other) < 1e-12 * other


def test_covering_threshold_clamp():
    with pytest.raises(ValueError):
        covering_threshold_p(8, 1, -100.0)
    assert covering_threshold_p(8, 1, -100.0, clamp=True) == 0.0


def test_packing_bounds():
    lo, hi = packing_threshold_bounds(6, 1)
    assert abs(lo - 0.0010352166562499028) < 1e-15
    assert abs(hi - 0.006211299937499416) < 1e-15
    for n in (4, 6, 9):
        for lam in (1, 2, 3):
            lo, hi = packing_threshold_bounds(n, lam)
            assert lo < hi
            assert abs(hi / lo - n ** (2 / (lam + 1))) < 1e-9
