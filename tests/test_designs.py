import math
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from threshold_lab.designs import (
    DesignParams,
    KSetFamily,
    _colex_rank,
    _colex_unrank,
    _coverage_incidence,
    coverage_profile,
    covering_threshold_p,
    deficiency_count,
    deficiency_trial,
    expected_deficient,
    overfull_count,
    overfull_trial,
    packing_threshold_p,
    sample_design_family,
)
from threshold_lab.errors import BudgetExceededError
from threshold_lab.rng import derive_stream


def _mask(elems):
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def test_params_validation():
    DesignParams(12, 4, 2, 1)
    with pytest.raises(ValueError):
        DesignParams(12, 4, 4, 1)
    with pytest.raises(ValueError):
        DesignParams(12, 13, 2, 1)
    with pytest.raises(ValueError):
        DesignParams(31, 4, 2, 1)
    with pytest.raises(ValueError):
        DesignParams(12, 4, 2, 0)


def test_colex_roundtrip():
    subs = list(combinations(range(9), 3))
    ranks = sorted(_colex_rank(s) for s in subs)
    assert ranks == list(range(comb(9, 3)))
    for s in subs:
        assert _colex_unrank(_colex_rank(s), 3) == s


def _assert_incidence_matches_oracle(n, k, t):
    table = _coverage_incidence.__wrapped__(n, k, t)
    assert table.dtype == np.int64
    assert np.array_equal(table, oracles.coverage_incidence(n, k, t)), (n, k, t)


def test_incidence_matches_row_by_row_colex_ranks_small():
    for n in range(2, 13):
        for k in range(2, n + 1):
            for t in range(1, k):
                _assert_incidence_matches_oracle(n, k, t)


@pytest.mark.parametrize("n,k,t", [(20, 5, 2), (22, 6, 3)])
def test_incidence_matches_row_by_row_colex_ranks(n, k, t):
    _assert_incidence_matches_oracle(n, k, t)


def test_incidence_memory_budget_checked_before_building():
    # C(24,12) = 2704156 rows pass the row cap, but 924 ranks a row do not fit
    with pytest.raises(BudgetExceededError, match="memory budget"):
        _coverage_incidence.__wrapped__(24, 12, 6)


def test_family_validation():
    KSetFamily(5, 3, (_mask((0, 1, 2)), _mask((0, 1, 3))))
    with pytest.raises(ValueError):
        KSetFamily(5, 3, (_mask((0, 1)),))
    with pytest.raises(ValueError):
        KSetFamily(5, 3, (_mask((0, 1, 2)), _mask((0, 1, 2))))


def test_sampling_degenerate_p():
    params = DesignParams(10, 4, 2)
    assert len(sample_design_family(params, 0.0, derive_stream(0, 0))) == 0
    full = sample_design_family(params, 1.0, derive_stream(0, 0))
    assert len(full) == comb(10, 4)


def test_sampling_mean_size():
    # 200 trials at (n=10, k=4), p=1/2: mean family size near C(10,4)/2 = 105
    params = DesignParams(10, 4, 2)
    sizes = [
        len(sample_design_family(params, 0.5, derive_stream(21, i)))
        for i in range(200)
    ]
    se = math.sqrt(comb(10, 4) * 0.25 / 200)
    assert abs(np.mean(sizes) - 105.0) < 3 * se


def test_sampling_huge_universe_by_ranks():
    # C(30,15) is far past the coin-flip budget; selection switches to a
    # binomial size draw plus distinct uniform ranks, the same Bernoulli law
    params = DesignParams(30, 15, 2)
    p = 2e-6
    family = sample_design_family(params, p, derive_stream(22, 0))
    assert all(bin(m).count("1") == 15 for m in family.masks)
    assert len(set(family.masks)) == len(family)
    sizes = [
        len(sample_design_family(params, p, derive_stream(22, i))) for i in range(30)
    ]
    mean = comb(30, 15) * p
    se = math.sqrt(comb(30, 15) * p / 30)  # binomial sd ~ sqrt(Up) here
    assert abs(np.mean(sizes) - mean) < 4 * se


def test_profile_full_and_empty_family():
    params = DesignParams(5, 3, 2)
    full = sample_design_family(params, 1.0, derive_stream(0, 0))
    profile = coverage_profile(full, params)
    # every t-set lies in exactly C(n-t, k-t) k-sets
    assert np.all(profile == comb(3, 1))
    empty = KSetFamily(5, 3, ())
    assert np.all(coverage_profile(empty, params) == 0)


def test_profile_direct_inspection():
    # family {0,1,2}, {0,1,3} inside (n=5, k=3, t=2)
    params = DesignParams(5, 3, 2)
    family = KSetFamily(5, 3, (_mask((0, 1, 2)), _mask((0, 1, 3))))
    profile = coverage_profile(family, params)
    assert profile[_colex_rank((0, 1))] == 2
    assert profile[_colex_rank((0, 2))] == 1
    assert profile[_colex_rank((2, 3))] == 0
    assert profile.sum() == len(family) * comb(3, 2)
    # deficiency/overfull against the same hand-computed profile
    assert deficiency_count(profile, 2) == 9
    assert overfull_count(profile, 1) == 1


def test_count_edges():
    params = DesignParams(6, 3, 2)
    zeros = np.zeros(params.n_tsets, dtype=np.int64)
    assert deficiency_count(zeros, 1) == params.n_tsets
    full = np.full(params.n_tsets, params.supersets_per_tset)
    assert deficiency_count(full, params.supersets_per_tset) == 0
    assert overfull_count(zeros, 1) == 0
    assert overfull_count(full, params.supersets_per_tset) == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_adding_a_member_is_monotone(data):
    params = DesignParams(7, 3, 2)
    universe = list(combinations(range(7), 3))
    picks = data.draw(st.lists(st.sampled_from(universe), max_size=8, unique=True))
    extra = data.draw(st.sampled_from([c for c in universe if c not in picks]))
    lam = data.draw(st.integers(1, 3))
    before = coverage_profile(KSetFamily(7, 3, tuple(_mask(c) for c in picks)), params)
    after = coverage_profile(
        KSetFamily(7, 3, tuple(_mask(c) for c in picks) + (_mask(extra),)), params
    )
    assert deficiency_count(after, lam) <= deficiency_count(before, lam)
    assert overfull_count(after, lam) >= overfull_count(before, lam)


def test_covering_threshold_values():
    assert abs(covering_threshold_p(DesignParams(12, 4, 2, 1), 0.0) - 0.09310343871169834) < 1e-12
    assert abs(covering_threshold_p(DesignParams(12, 4, 2, 2), 0.0) - 0.12493940160209659) < 1e-12


def test_covering_threshold_guards_and_clamp():
    params = DesignParams(14, 4, 2, 1)
    with pytest.raises(ValueError):
        covering_threshold_p(params, -6.0)  # expression goes negative
    assert covering_threshold_p(params, -6.0, clamp=True) == 0.0


def test_packing_threshold_values():
    assert abs(packing_threshold_p(DesignParams(20, 3, 2, 1)) - 20.0**-2) < 1e-15
    assert abs(packing_threshold_p(DesignParams(20, 4, 2, 3)) - 20.0**-2.5) < 1e-15
    # exponent decreases toward k - t as lam grows
    prev = 0.0
    for lam in (1, 2, 3, 8, 50):
        p = packing_threshold_p(DesignParams(20, 4, 2, lam))
        assert p > prev
        prev = p
    assert prev < 20.0 ** -(4 - 2)


def test_expected_deficient_edges():
    params = DesignParams(12, 4, 2, 1)
    assert expected_deficient(params, 0.0) == params.n_tsets
    assert expected_deficient(params, 1.0) == 0.0
    v = expected_deficient(DesignParams(12, 4, 2, 2), 0.1)
    assert abs(v - 3.4562735729627341) < 1e-12


def test_trials_match_mask_level_ops():
    # the bincount fast path and the mask-level profile agree trial by trial
    params = DesignParams(9, 4, 2, 2)
    for i in range(12):
        x_fast, holds = deficiency_trial(derive_stream(30, i), params, 0.2)
        family = sample_design_family(params, 0.2, derive_stream(30, i))
        x_slow = deficiency_count(coverage_profile(family, params), params.lam)
        assert x_fast == x_slow and holds == (x_fast == 0)
        y_fast, _ = overfull_trial(derive_stream(30, i), params, 0.2)
        y_slow = overfull_count(coverage_profile(family, params), params.lam)
        assert y_fast == y_slow


def _cover_holds(stream, params, p):
    return deficiency_trial(stream, params, p)[1]


def test_bisected_transition_near_threshold_curve():
    from functools import partial

    from threshold_lab.analysis import threshold_bisect

    params = DesignParams(14, 4, 2, 1)
    scan = threshold_bisect(
        lambda p: partial(_cover_holds, params=params, p=p),
        0.02,
        0.30,
        trials_per_eval=300,
        tol=2e-3,
        seed=90001,
        increasing=True,
    )
    predicted = covering_threshold_p(params, 0.0)
    assert predicted / 1.5 <= scan.p_half <= predicted * 1.5


def test_exchangeability_of_coverage():
    # mean per-t-set coverage equals p * C(n-t, k-t) within 3 SE
    params = DesignParams(10, 4, 2)
    p = 0.15
    means = []
    for i in range(300):
        family = sample_design_family(params, p, derive_stream(40, i))
        means.append(coverage_profile(family, params).mean())
    target = p * params.supersets_per_tset
    se = np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(np.mean(means) - target) < 3 * se
