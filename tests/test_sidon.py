import math
import tracemalloc
from itertools import combinations_with_replacement, product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import is_bh_g, is_truncated_basis
from threshold_lab import sidon
from threshold_lab.errors import MAX_ARRAY_BYTES, BudgetExceededError
from threshold_lab.rng import bernoulli_ranks, derive_stream
from threshold_lab.sidon import (
    _as_element_array,
    _max_multiplicity,
    basis_threshold_p,
    bh_g_trial,
    count_equal_sum_tuples,
    representation_counts,
    sidon_threshold_k,
    truncated_basis_trial,
)


def test_counts_small_table():
    counts = representation_counts([1, 2, 3], 2)
    assert counts[2] == 1 and counts[3] == 1 and counts[4] == 2
    assert counts[5] == 1 and counts[6] == 1
    assert counts.sum() == comb(3 + 1, 2)


def test_counts_singleton():
    for h in (2, 3, 5):
        counts = representation_counts([4], h)
        assert counts[4 * h] == 1 and counts.sum() == 1


def test_counts_all_distinct_pairs():
    counts = representation_counts([1, 2, 5], 2)
    for s in (2, 3, 4, 6, 7, 10):
        assert counts[s] == 1
    assert counts.sum() == 6


def test_counts_rejects():
    with pytest.raises(ValueError):
        representation_counts([1, 2], 1)
    with pytest.raises(ValueError):
        representation_counts([1, 1, 2], 2)
    with pytest.raises(ValueError):
        representation_counts([-1, 2], 2)


def _counts_bruteforce(elements, h):
    top = h * max(elements) if elements else 0
    out = np.zeros(top + 1, dtype=np.int64)
    for tup in combinations_with_replacement(sorted(elements), h):
        out[sum(tup)] += 1
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.integers(0, 40), min_size=1, max_size=12),
    st.integers(2, 4),
)
def test_counts_match_bruteforce_and_total(elements, h):
    elements = sorted(elements)
    counts = representation_counts(elements, h)
    brute = _counts_bruteforce(elements, h)
    assert np.array_equal(counts, brute)
    assert counts.sum() == comb(len(elements) + h - 1, h)


@pytest.mark.parametrize("k", [1, 255, 256, 257, 512, 513, 601])
def test_pair_counts_match_ordered_pair_oracle(k):
    # sizes on each side of representation_counts' row-block edges, each set holding 0
    rng = np.random.default_rng(k)
    els = np.r_[0, rng.choice(np.arange(1, 4 * k), k - 1, replace=False)]
    assert np.array_equal(representation_counts(els, 2), oracles.pair_representation_counts(els))


def test_max_multiplicity_table_path_matches_pair_oracle():
    # about 1200 elements of [3000]: their C(k + 1, 2) pairs outnumber the sums
    els = bernoulli_ranks(3000, 0.4, derive_stream(7, 0)) + 1
    assert comb(len(els) + 1, 2) > 2 * int(els[-1]) + 1
    assert _max_multiplicity(els, 2) == int(oracles.pair_representation_counts(els).max())


@pytest.mark.parametrize("k, top", [(1, 0), (257, 257), (601, 10**4), (3000, 3000), (10, 10**6)])
def test_pair_count_budget_is_its_peak(monkeypatch, k, top):
    # the bytes checked are the tracemalloc peak, up to numpy's fixed ufunc
    # iteration buffers (two of getbufsize() int64) and a few object headers
    checked = []
    monkeypatch.setattr(sidon, "check_budget", lambda nbytes, what: checked.append(nbytes))
    els = np.unique(np.linspace(0, top, k).astype(np.int64))
    assert len(els) == k
    tracemalloc.start()
    try:
        representation_counts(els, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked[0] <= peak <= checked[0] + 16 * np.getbufsize() + 4096


@pytest.mark.parametrize("spread", ["even", "distinct"])
@pytest.mark.parametrize("k, h", [(5, 2), (60, 2), (200, 2), (600, 2), (5, 3), (12, 3), (60, 3),
                                  (150, 3), (25, 4), (12, 5)])
def test_tuple_sums_stay_within_their_budget(monkeypatch, k, h, spread):
    # the bytes the tuple-sum path asks the budget for bound its traced peak,
    # to within the 8 KiB charged for small objects, for elements spread
    # evenly over [10^7] (sums shared by many tuples) and for random ones of
    # [10^12] (sums nearly all distinct)
    asked = []
    monkeypatch.setattr(sidon, "check_budget", lambda nbytes, what: asked.append(nbytes))
    els = (np.linspace(1, 10**7, k) if spread == "even"
           else np.random.default_rng(k).choice(10**12, k, replace=False) + 1)
    els = np.unique(els.astype(np.int64))
    n_tuples = comb(k + h - 1, h)
    assert len(els) == k and n_tuples <= h * int(els[-1]) + 1
    tracemalloc.start()
    try:
        _max_multiplicity(els, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n_tuples < peak <= asked[0] <= peak + (8 << 10)


def test_pair_count_budget_refuses_before_allocating():
    # 3 * 2*10^9 bins of int64 are refused before any of them is allocated
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="memory budget"):
            representation_counts([0, 10**9], 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bounded_multiplicity_checks():
    assert not is_bh_g([1, 2, 3], 2, 1)  # 1+3 = 2+2
    assert is_bh_g([1, 2, 5], 2, 1)
    assert is_bh_g([1, 2, 3], 2, 2)
    assert is_bh_g([7], 4, 1)
    assert is_bh_g([], 2, 1)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 50), min_size=2, max_size=10), st.integers(2, 3), st.integers(1, 2))
def test_removal_preserves_bounded_multiplicity(elements, h, g):
    elements = sorted(elements)
    if is_bh_g(elements, h, g):
        assert is_bh_g(elements[1:], h, g)
        assert is_bh_g(elements[:-1], h, g)


@pytest.mark.parametrize("elements", [
    [8, 0, 4], {4, 8, 0}, range(8, -1, -4), np.array([4, 8, 0], dtype=np.int32)])
def test_element_array_accepts_any_order_and_container(elements):
    arr = _as_element_array(elements)
    assert arr.dtype == np.int64 and arr.tolist() == [0, 4, 8]


@pytest.mark.parametrize("elements,match", [
    ([1, -2], "non-negative"), ([3, 1, 3], "distinct"), (np.array([2, 2]), "distinct")])
def test_element_array_rejects_negative_and_repeated(elements, match):
    with pytest.raises(ValueError, match=match):
        _as_element_array(elements)


def test_truncated_basis_full_and_empty():
    n = 10
    assert is_truncated_basis(range(n + 1), n, 2, 1, 0.5)
    assert not is_truncated_basis([], n, 2, 1, 0.5)
    # complete set at g=2: e.g. 5 = 0+5 = 1+4 = 2+3 gives three pair sums
    assert is_truncated_basis(range(n + 1), n, 2, 2, 0.5)
    counts = representation_counts(range(n + 1), 2)
    assert counts[5] == 3


def test_truncated_basis_window_edges():
    # elements {0, n} represent only 0, n, 2n; window [n/2, 3n/2] needs more
    n = 10
    assert not is_truncated_basis([0, n], n, 2, 1, 0.5)
    with pytest.raises(ValueError):
        is_truncated_basis([1], 10, 2, 1, 0.0)
    with pytest.raises(ValueError):
        is_truncated_basis([1], 10, 2, 0, 0.5)


def _tuple_systems_bruteforce(n, l):
    # independent quadruple loop for h=2, g=1
    cnt = 0
    for a1 in range(1, n + 1):
        for a2 in range(a1, n + 1):
            for b1 in range(1, n + 1):
                for b2 in range(b1, n + 1):
                    if (a1, a2) < (b1, b2) and a1 + a2 == b1 + b2:
                        if len({a1, a2, b1, b2}) == l:
                            cnt += 1
    return cnt


def test_tuple_systems_small_exact():
    for n in (4, 6, 9):
        census = count_equal_sum_tuples(n, 2, 1)
        if n == 6:  # frozen from the quadruple-loop oracle
            assert census[3:] == [6, 7]
        for l in (2, 3, 4):
            assert census[l] == _tuple_systems_bruteforce(n, l), (n, l)
    # every l, one entry each from 0 to h(g+1) and none past it, with n = 1
    # and 2 (no subset at all) among the sizes
    for h, g in product((2, 3, 4), (1, 2, 3)):
        for n in (1, 2, 3, 5, 7) if h < 4 else (1, 2, 3, 5):
            want = [oracles.count_equal_sum_tuples(n, h, g, l) for l in range(h * (g + 1) + 2)]
            assert count_equal_sum_tuples(n, h, g) + [0] == want, (n, h, g)


@pytest.mark.parametrize("n, h, g", [(24, 2, 11), (26, 2, 11), (30, 2, 13), (9, 3, 7)])
def test_tuple_systems_with_g_near_the_largest_group(n, h, g):
    # (g+1)-subsets of the one or two largest sum groups: the deepest blocks
    want = [oracles.count_equal_sum_tuples(n, h, g, l) for l in range(g + 1, h * (g + 1) + 1)]
    assert count_equal_sum_tuples(n, h, g)[g + 1 :] == want


def test_pair_census_closed_forms_match_the_oracle():
    for n in (1, 2, 3, 10, 20, 40, 80):
        for l in (3, 4):
            assert oracles.equal_sum_pairs_closed_form(n, l) == oracles.count_equal_sum_tuples(
                n, 2, 1, l), (n, l)


@pytest.mark.parametrize("n", [80, 160, 300])
def test_pair_census_matches_closed_forms(n):
    census = count_equal_sum_tuples(n, 2, 1)
    for l in (3, 4):
        assert census[l] == oracles.equal_sum_pairs_closed_form(n, l)


def test_tuple_systems_overdetermined():
    for n in (4, 8, 16):
        census = count_equal_sum_tuples(n, 2, 1)
        assert census[:2] == [0, 0]
        # no entry beyond h(g+1), where the oracle finds none
        assert len(census) == 5 and oracles.count_equal_sum_tuples(n, 2, 1, 5) == 0


def test_tuple_systems_contains_mixed_multiplicity():
    # the n=6 count includes systems like (1,3)/(2,2): 3 distinct symbols
    assert count_equal_sum_tuples(6, 2, 1)[3] >= 1


def test_tuple_systems_budget():
    with pytest.raises(BudgetExceededError):
        count_equal_sum_tuples(4000, 2, 1)
    with pytest.raises(BudgetExceededError):
        count_equal_sum_tuples(240, 2, 2)


@pytest.mark.parametrize("n, h, g", [(4000, 2, 1), (9000, 2, 1), (240, 2, 2)])
def test_tuple_systems_refused_before_the_tuples_exist(n, h, g):
    # the peak is at most the group-size table (7.6 MiB at n = 4000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="memory budget"):
            count_equal_sum_tuples(n, h, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


@pytest.mark.parametrize("n, h, g", [(120, 2, 2), (40, 3, 1)])
def test_tuple_systems_trace_less_than_they_charge(monkeypatch, n, h, g):
    checked = {}
    monkeypatch.setattr(sidon, "check_budget",
                        lambda nbytes, what: checked.setdefault(what, nbytes))
    tracemalloc.start()
    try:
        count_equal_sum_tuples(n, h, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= checked[f"blocks of {g + 1}-subsets"]


def test_tuple_systems_admit_what_the_count_caps_did(monkeypatch):
    # at (h, g) = (2, 1) the retired caps (2*10^6 tuples, 3*10^7 subsets) took
    # n up to 711, with 29888870 subsets; its charges all fit, so the census runs
    class Priced(Exception):
        pass

    checked = []

    def record(nbytes, what):
        checked.append(nbytes)
        if "candidate" in what:
            raise Priced  # priced in full; the census itself takes seconds

    monkeypatch.setattr(sidon, "check_budget", record)
    with pytest.raises(Priced):
        count_equal_sum_tuples(711, 2, 1)
    assert checked[-1] == 16 * 29888870
    assert max(checked) <= MAX_ARRAY_BYTES


def test_max_symbol_growth_exponent():
    # at l = h(g+1) the census grows like n^(l-g); small-n transients sit
    # above the exponent, so each pair is fitted where its window is reached
    from threshold_lab.analysis import loglog_slope

    pts = [(n, count_equal_sum_tuples(n, 2, 1)[4]) for n in (10, 20, 40)]
    assert abs(loglog_slope(pts) - 3.0) <= 0.3
    pts = [(n, count_equal_sum_tuples(n, 2, 2)[6]) for n in (30, 60, 120)]
    assert abs(loglog_slope(pts) - 4.0) <= 0.3


def test_threshold_k_values():
    assert abs(sidon_threshold_k(10**6, 2, 1) - 10**1.5) < 1e-9
    assert abs(sidon_threshold_k(10**6, 3, 1) - 10.0) < 1e-12
    # exponent g/(h(g+1)) climbs toward 1/h as g grows
    assert sidon_threshold_k(10**6, 2, 50) < (10**6) ** (1 / 2)
    assert sidon_threshold_k(10**6, 2, 50) > sidon_threshold_k(10**6, 2, 1)


def test_basis_threshold_values():
    # g=1 route at h=2, alpha=1/2: constant is 2! 1! / (1/2) = 4
    got = basis_threshold_p(10**4, 2, 1, 0.5, 0.0)
    assert abs(got - 0.052877267575427295) < 1e-12
    # h=2 route at g=2: the iterated-log coefficient (g-2) vanishes
    got = basis_threshold_p(10**4, 2, 2, 0.5, 0.0)
    assert abs(got - math.sqrt(4 * math.log(10**4) / 10**4)) < 1e-15
    # the two routes coincide at (h, g) = (2, 1)
    a = basis_threshold_p(10**4, 2, 1, 0.5, 0.0)
    b = math.sqrt((4 * math.log(10**4) - 4 * math.log(math.log(10**4))) / 10**4)
    assert abs(a - b) < 1e-15


def test_basis_threshold_guards():
    with pytest.raises(ValueError):
        basis_threshold_p(10**4, 3, 2, 0.5, 0.0)  # unsupported pair
    with pytest.raises(ValueError):
        basis_threshold_p(10**4, 2, 2, 0.5, -40.0)  # radicand below 0
    with pytest.raises(ValueError):
        basis_threshold_p(10**4, 2, 1, 0.0, 0.0)


# element sets on each side of _max_multiplicity's size rule: few elements
# spread wide (tuple sums formed directly), many packed tight (dense table)
_SIDES = {
    "tuples": st.sets(st.integers(0, 10**4), max_size=8).map(lambda s: s | {10**4}),
    "table": st.sets(st.integers(0, 8), min_size=6),
}


@pytest.mark.parametrize("side", sorted(_SIDES))
@given(data=st.data(), h=st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_max_multiplicity_matches_table(side, data, h):
    elements = data.draw(_SIDES[side])
    rule = comb(len(elements) + h - 1, h) <= h * max(elements) + 1
    assert rule == (side == "tuples")
    assert _max_multiplicity(elements, h) == int(representation_counts(elements, h).max())


def test_max_multiplicity_edges():
    assert _max_multiplicity([], 2) == 0
    assert _max_multiplicity([0], 3) == 1
    with pytest.raises(ValueError):
        _max_multiplicity([1, 2], 1)


def test_trials_report_property():
    top, holds = bh_g_trial(derive_stream(50, 0), 2000, 2, 1, 0.002)
    assert holds == (top <= 1)
    top, holds = truncated_basis_trial(derive_stream(50, 2), 200, 2, 2, 0.5, 0.3)
    assert isinstance(top, int) and isinstance(holds, bool)


def test_trial_empty_set():
    top, holds = bh_g_trial(derive_stream(51, 0), 100, 2, 1, 0.0)
    assert top == 0 and holds
    top, holds = truncated_basis_trial(derive_stream(51, 1), 100, 2, 1, 0.5, 0.0)
    assert top == 0 and not holds
