import math
import tracemalloc
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    count_undercovered,
    covering_set,
    covers,
    delete_and_flatten,
    joint_cover_neighborhood,
    joint_covers,
    lex_rank,
    lex_unrank,
)
from threshold_lab import perms
from threshold_lab.errors import BudgetExceededError
from threshold_lab.perms import (
    cover_trial,
    covering_threshold_p,
    pack_trial,
    packing_threshold_bounds,
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


def test_table_verifiers_match_the_set_oracle():
    # row for row against covering sets built and intersected one by one
    assert verify_cover_counts(6) == oracles.verify_cover_counts(6)
    assert verify_joint_bounds(6) == oracles.verify_joint_bounds(6)


def test_table_verifiers_past_the_set_oracle():
    # |covers| = n^2 + 1, and the neighborhoods (240 and 378) stay under n^3
    assert verify_cover_counts(8)[6:] == [(7, True, 50, 50), (8, True, 65, 65)]
    assert verify_joint_bounds(8)[5:] == [(7, True, 240, True, 4), (8, True, 378, True, 4)]


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
    table = perms._pattern_rows(n, np.arange(factorial(n + 1))).T
    sentinel = factorial(n)
    fanout = (table < sentinel).sum(axis=1)
    assert fanout.min() >= 1 and fanout.max() <= n + 1
    # monotone rows cover exactly one pattern
    assert fanout[0] == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_pattern_table_matches_deletions(n):
    # every row against its deletions, flattened and ranked one by one
    table = perms._pattern_rows(n, np.arange(factorial(n + 1))).T
    assert table.dtype == (np.uint8 if n <= 5 else np.uint16)
    for rank, row in enumerate(table.tolist()):
        rho = lex_unrank(rank, n + 1)
        expect = sorted({lex_rank(delete_and_flatten(rho, i)) for i in range(1, n + 2)})
        assert sorted(row) == expect + [factorial(n)] * (n + 1 - len(expect))


@pytest.mark.parametrize("n", range(1, 9))
def test_pattern_table_rows_match_the_lehmer_build(n):
    # as multisets per row, sentinels included: the grown table keeps each
    # deletion in its column, the Lehmer build sorts its rows
    table = perms._pattern_rows(n, np.arange(factorial(n + 1))).T
    expect = oracles.lehmer_pattern_rank_table(n)
    assert np.array_equal(np.sort(table, axis=1), np.sort(expect, axis=1))


@pytest.mark.parametrize("n", range(1, 9))
def test_derived_rows_match_the_whole_table_build(n):
    # every row of S_{n+1}, derived from the level of S_n, against S_1 grown
    # to S_{n+1} a whole size at a time
    expect = oracles.grown_pattern_rank_table(n)
    rows = perms._pattern_rows(n, np.arange(factorial(n + 1)))
    assert rows.dtype == expect.dtype and np.array_equal(rows.T, expect)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_derived_rows_of_any_ranks_are_the_table_rows(n):
    # unsorted, repeated ranks and an empty block, as well as sorted ones
    ranks = derive_stream(63, n).integers(0, factorial(n + 1), size=500)
    table = oracles.grown_pattern_rank_table(n)
    for block in (ranks, np.sort(ranks), ranks[:0]):
        assert np.array_equal(perms._pattern_rows(n, block).T, table[block])


def test_derived_rows_of_s10_match_deletions():
    # the uint32 rows of S_10 from the uint16 level of S_9, sampled: the
    # first and last rank of each block f and a few thousand others, against
    # each row's deletions flattened and ranked one by one
    n, size = 9, factorial(9)
    ends = [r for f in range(n + 1) for r in (f * size, (f + 1) * size - 1)]
    ranks = np.concatenate([ends, derive_stream(66, 0).integers(0, factorial(n + 1), 3000)])
    rows = perms._pattern_rows(n, ranks)
    assert rows.dtype == np.uint32 and rows.shape == (n + 1, len(ranks))
    for rank, row in zip(ranks.tolist(), rows.T.tolist()):
        rho = lex_unrank(rank, n + 1)
        expect = sorted({lex_rank(delete_and_flatten(rho, i)) for i in range(1, n + 2)})
        assert sorted(row) == expect + [size] * (n + 1 - len(expect)), rank


@pytest.mark.parametrize("n", [3, 5, 7, 8])
def test_trials_match_the_table_path(n):
    # the trials' counts from their selected rows alone, against a gather of
    # the whole table at the same selection: sparse, at the covering
    # threshold, from 1/3 (one coin per index), none and all
    for p in (0.0, 0.002, covering_threshold_p(n, 1, 0.0), 0.7, 1.0):
        for i in range(3):
            expect = oracles.table_coverage_counts(derive_stream(64, i), n, p)
            assert np.array_equal(perms._coverage_counts(derive_stream(64, i), n, p), expect)
            for lam in (1, 2):
                x = int(np.count_nonzero(expect < lam))
                assert cover_trial(derive_stream(64, i), n, lam, p) == (x, x == 0)
                x = int(np.count_nonzero(expect > lam))
                assert pack_trial(derive_stream(64, i), n, lam, p) == (x, x == 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_equal_deletions_are_adjacent_runs(n):
    # the sentinel pass compares neighbouring columns only: deleting rho_i and
    # rho_j (i < j) leaves one pattern only if every adjacent pair between does
    for rho in permutations(range(1, n + 2)):
        dels = [delete_and_flatten(rho, i) for i in range(1, n + 2)]
        same = [dels[i] == dels[i + 1] for i in range(n)]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                assert (dels[i] == dels[j]) == all(same[i:j]), (rho, i, j)


@pytest.mark.parametrize("n", range(2, 9))
def test_joint_pair_keys_match_the_lehmer_build(n):
    # keyed a block of rows at a time, in blocks capped by _COUNT_BLOCK at n = 8
    assert np.array_equal(np.sort(perms._joint_pair_keys(n)), np.sort(oracles.joint_pair_keys(n)))


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
    assert covering_threshold_p(8, 1, -100.0) == 0.0
    assert covering_threshold_p(8, 1, 100.0) == 1.0
    assert covering_threshold_p(8, 1, -math.inf) == 0.0
    assert covering_threshold_p(8, 1, math.inf) == 1.0
    with pytest.raises(ValueError, match="nan"):
        covering_threshold_p(8, 1, math.nan)


def test_packing_bounds():
    lo, hi = packing_threshold_bounds(6, 1)
    assert abs(lo - 0.0010352166562499028) < 1e-15
    assert abs(hi - 0.006211299937499416) < 1e-15
    for n in (4, 6, 9):
        for lam in (1, 2, 3):
            lo, hi = packing_threshold_bounds(n, lam)
            assert lo < hi
            assert abs(hi / lo - n ** (2 / (lam + 1))) < 1e-9


@pytest.mark.parametrize("n", [8, 9])
def test_pattern_level_build_stays_within_its_budget(monkeypatch, n):
    # the bytes the level of S_n asks the budget for bound its traced peak
    asked = []
    monkeypatch.setattr(perms, "check_budget", lambda nbytes, what: asked.append(nbytes))
    tracemalloc.start()
    try:
        values, ranks = perms._pattern_level.__wrapped__(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == ranks.shape == (n, factorial(n)) and ranks.dtype == np.uint16
    assert values.nbytes + ranks.nbytes < peak <= asked[0]


def test_pattern_level_budget():
    # the level of S_11 (11! x 11 ranks, about 2.5 GiB to build) is refused before any allocation
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="memory budget"):
            perms._pattern_level(11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cover_trial_memory_on_a_cached_table():
    # one n = 8 trial at the lam = 2 threshold selects about 71k rows (637k
    # ranks); deriving and counting them in blocks keeps its temporaries
    # small.  The trial reads the level of S_8, which is what is cached here
    n, lam = 8, 2
    p = covering_threshold_p(n, lam, 0.0)
    perms._pattern_level(n)
    tracemalloc.start()
    try:
        cover_trial(derive_stream(16, 0), n, lam, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_joint_pair_keys_stay_within_their_budget(monkeypatch):
    # the bytes the n = 7 pair keys ask the budget for bound the traced peak
    # of building them and of the caller's unique over them
    perms._pattern_level(7)
    asked = []
    monkeypatch.setattr(perms, "check_budget", lambda nbytes, what: asked.append(nbytes))
    tracemalloc.start()
    try:
        keys = perms._joint_pair_keys(7)
        pairs, shared = np.unique(keys, return_counts=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.dtype == np.uint32 and int(shared.max()) == 4
    assert keys.nbytes < peak <= asked[0]


def test_joint_pair_budget():
    # n = 9 (10! rows x 45 pairs, about 4.9 GiB charged) is refused before any block is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="memory budget"):
            perms._joint_pair_keys(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
