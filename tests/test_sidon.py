import math
from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshold_lab.errors import BudgetExceededError
from threshold_lab.rng import derive_stream
from threshold_lab.sidon import (
    _max_multiplicity,
    basis_threshold_p,
    bh_g_trial,
    bh_g_trial_uniform,
    count_equal_sum_tuples,
    is_bh_g,
    is_truncated_basis,
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
    # frozen from the quadruple-loop oracle at n=6
    assert count_equal_sum_tuples(6, 2, 1, 3) == 6
    assert count_equal_sum_tuples(6, 2, 1, 4) == 7
    for n in (4, 6, 9):
        for l in (2, 3, 4):
            assert count_equal_sum_tuples(n, 2, 1, l) == _tuple_systems_bruteforce(n, l)


def test_tuple_systems_overdetermined():
    for n in (4, 8, 16):
        for l in (0, 1):
            assert count_equal_sum_tuples(n, 2, 1, l) == 0
    assert count_equal_sum_tuples(8, 2, 1, 5) == 0  # beyond h(g+1)


def test_tuple_systems_contains_mixed_multiplicity():
    # the n=6 count includes systems like (1,3)/(2,2): 3 distinct symbols
    assert count_equal_sum_tuples(6, 2, 1, 3) >= 1


def test_tuple_systems_budget():
    with pytest.raises(BudgetExceededError):
        count_equal_sum_tuples(4000, 2, 1, 3)
    with pytest.raises(BudgetExceededError):
        count_equal_sum_tuples(240, 2, 2, 6)


def test_max_symbol_growth_exponent():
    # at l = h(g+1) the census grows like n^(l-g); small-n transients sit
    # above the exponent, so each pair is fitted where its window is reached
    from threshold_lab.analysis import loglog_slope

    pts = [(n, count_equal_sum_tuples(n, 2, 1, 4)) for n in (10, 20, 40)]
    assert abs(loglog_slope(pts) - 3.0) <= 0.3
    pts = [(n, count_equal_sum_tuples(n, 2, 2, 6)) for n in (30, 60, 120)]
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
    top, holds = bh_g_trial_uniform(derive_stream(50, 1), 2000, 2, 1, 5)
    assert holds == (top <= 1)
    top, holds = truncated_basis_trial(derive_stream(50, 2), 200, 2, 2, 0.5, 0.3)
    assert isinstance(top, int) and isinstance(holds, bool)


def test_trial_empty_set():
    top, holds = bh_g_trial(derive_stream(51, 0), 100, 2, 1, 0.0)
    assert top == 0 and holds
    top, holds = truncated_basis_trial(derive_stream(51, 1), 100, 2, 1, 0.5, 0.0)
    assert top == 0 and not holds
