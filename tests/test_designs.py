import math
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from threshold_lab import designs
from threshold_lab.designs import (
    DesignParams,
    _coverage_incidence,
    _profile_from_selection,
    covering_threshold_p,
    deficiency_count,
    deficiency_trial,
    expected_deficient,
    overfull_count,
    overfull_trial,
    packing_threshold_p,
)
from threshold_lab.errors import MAX_ARRAY_BYTES, BudgetExceededError
from threshold_lab.rng import bernoulli_ranks, derive_stream


def test_params_validation():
    DesignParams(12, 4, 2, 1)
    with pytest.raises(ValueError):
        DesignParams(12, 4, 4, 1)
    with pytest.raises(ValueError):
        DesignParams(12, 13, 2, 1)
    with pytest.raises(ValueError):
        DesignParams(12, 4, 2, 0)
    # C(n, k) * C(k, t) must be exact in float64: 2^53 is, 2 * C(2^27, 2) is
    # not, and C(10^6, 5*10^5) is refused before it is computed
    DesignParams(2**53, 2**53, 1)
    for n, k in [(2**27, 2), (10**6, 5 * 10**5)]:
        with pytest.raises(ValueError, match="2\\^53"):
            DesignParams(n, k, 1)


def test_colex_rank_numbers_subsets():
    subs = list(combinations(range(9), 3))
    ranks = sorted(oracles.colex_rank(s) for s in subs)
    assert ranks == list(range(comb(9, 3)))


def _assert_incidence_matches_oracle(n, k, t):
    table = _coverage_incidence.__wrapped__(n, k, t)
    assert table.dtype == np.min_scalar_type(comb(n, t))
    assert np.array_equal(table, oracles.coverage_incidence(n, k, t)), (n, k, t)


def test_incidence_matches_row_by_row_colex_ranks_small():
    for n in range(2, 13):
        for k in range(2, n + 1):
            for t in range(1, k):
                _assert_incidence_matches_oracle(n, k, t)


# (20, 19, 18): the i = 8 gather table holds C(19, 9) = 92378, which no
# 18-subset of [20] reaches but the uint8 of C(20, 18) = 190 could not hold;
# (40, 3, 2) and (300, 2, 1) are past n = 30, and 300 members take uint16
@pytest.mark.parametrize("n,k,t", [(14, 4, 2), (20, 5, 2), (22, 6, 3), (20, 19, 18),
                                   (40, 3, 2), (300, 2, 1)])
def test_incidence_matches_row_by_row_colex_ranks(n, k, t):
    _assert_incidence_matches_oracle(n, k, t)


def test_incidence_memory_budget_checked_before_building():
    # C(24,12) = 2704156 rows of 924 ranks do not fit
    with pytest.raises(BudgetExceededError, match="memory budget"):
        _coverage_incidence.__wrapped__(24, 12, 6)


def _asked_for(monkeypatch, n, k, t):
    """Bytes the build of the (n, k, t) table asks the budget for first; the
    patched check refuses them, so no table is built."""
    asked = []

    def record_and_refuse(nbytes, what):
        asked.append(nbytes)
        raise LookupError(what)

    monkeypatch.setattr(designs, "check_budget", record_and_refuse)
    with pytest.raises(LookupError):
        _coverage_incidence.__wrapped__(n, k, t)
    return asked[0]


def test_incidence_budget_refuses_tables_over_2_to_23_rows_and_over_2_to_22_from_k_4(
        monkeypatch):
    # so the byte budget alone does the work of a row cap: at every n <= 30,
    # and at the k = 2 and k = 3 edges past it, where some tables of over
    # 2^22 rows fit
    cases = [(n, k, t) for n in range(2, 31) for k in range(2, n + 1) for t in range(1, k)]
    cases += [(n, 2, 1) for n in range(2890, 4200, 3)]
    cases += [(n, 3, t) for n in range(290, 420) for t in (1, 2)]
    fits_past_2_to_22 = set()
    for n, k, t in cases:
        rows = comb(n, k)
        if rows > 1 << 22:
            asked = _asked_for(monkeypatch, n, k, t)
            if rows > (1 << 22 if k >= 4 else 1 << 23):
                assert asked > MAX_ARRAY_BYTES, (n, k, t)
            elif asked <= MAX_ARRAY_BYTES:
                fits_past_2_to_22.add(k)
    assert fits_past_2_to_22 == {2, 3}


def test_incidence_budget_refuses_a_large_t(monkeypatch):
    # one k-set of 10^5 members has only 10^5 columns, but their 10^10
    # positions are charged before they are enumerated
    assert _asked_for(monkeypatch, 100000, 100000, 99999) > MAX_ARRAY_BYTES


def test_incidence_budget_charges_every_gather_pass(monkeypatch):
    # the 2000 x 1999 table fits, but its 1998 gather passes, which would
    # take minutes, are refused before the table is built
    asked = []

    def record_and_refuse_the_passes(nbytes, what):
        asked.append(nbytes)
        if "passes" in what:
            raise LookupError(what)

    monkeypatch.setattr(designs, "check_budget", record_and_refuse_the_passes)
    with pytest.raises(LookupError):
        _coverage_incidence.__wrapped__(2000, 1999, 1998)
    assert asked[0] <= MAX_ARRAY_BYTES < asked[1]


# (16384, 16384, 1) is one row whose build traces the Python ints of [n],
# and (500, 500, 499) one whose 499 x 500 positions outweigh the table
@pytest.mark.parametrize("n,k,t,limit", [(20, 5, 2, 1 << 20), (22, 6, 3, 10 << 20),
                                         (16384, 16384, 1, 3 << 19), (500, 500, 499, 1 << 20)])
def test_incidence_build_stays_within_its_budget(monkeypatch, n, k, t, limit):
    # the table is added up in its final dtype, so its build traces a few
    # times the table and what enumerates it, and never what it asked the
    # budget for
    asked = []
    monkeypatch.setattr(designs, "check_budget", lambda nbytes, what: asked.append(nbytes))
    tracemalloc.start()
    try:
        table = _coverage_incidence.__wrapped__(n, k, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes < peak <= min(limit, asked[0])


def test_trials_at_degenerate_p():
    # p = 0 leaves every t-set uncovered; p = 1 covers each C(6, 2) = 15 times
    params = DesignParams(10, 4, 2)
    assert deficiency_trial(derive_stream(0, 0), params, 0.0) == (params.n_tsets, False)
    assert deficiency_trial(derive_stream(0, 0), params, 1.0) == (0, True)
    assert overfull_trial(derive_stream(0, 0), params, 1.0) == (params.n_tsets, False)


def test_profile_full_and_empty_family():
    params = DesignParams(5, 3, 2)
    profile = _profile_from_selection(params, 1.0, derive_stream(0, 0))
    # every t-set lies in exactly C(n-t, k-t) k-sets
    assert np.all(profile == comb(3, 1))
    assert np.all(_profile_from_selection(params, 0.0, derive_stream(0, 0)) == 0)


def _profile(n, k, t, ranks):
    """Coverage counts of the k-subsets at the given lex ranks, from the incidence table."""
    return np.bincount(_coverage_incidence(n, k, t)[list(ranks)].ravel(), minlength=comb(n, t))


def test_profile_direct_inspection():
    # family {0,1,2}, {0,1,3}: the first two lex 3-subsets of [5], with t=2
    profile = _profile(5, 3, 2, [0, 1])
    assert profile[oracles.colex_rank((0, 1))] == 2
    assert profile[oracles.colex_rank((0, 2))] == 1
    assert profile[oracles.colex_rank((2, 3))] == 0
    assert profile.sum() == 2 * comb(3, 2)
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
    universe = range(comb(7, 3))
    picks = data.draw(st.lists(st.sampled_from(universe), max_size=8, unique=True))
    extra = data.draw(st.sampled_from([c for c in universe if c not in picks]))
    lam = data.draw(st.integers(1, 3))
    before = _profile(7, 3, 2, picks)
    after = _profile(7, 3, 2, picks + [extra])
    assert deficiency_count(after, lam) <= deficiency_count(before, lam)
    assert overfull_count(after, lam) >= overfull_count(before, lam)


def test_covering_threshold_values():
    assert abs(covering_threshold_p(DesignParams(12, 4, 2, 1), 0.0) - 0.09310343871169834) < 1e-12
    assert abs(covering_threshold_p(DesignParams(12, 4, 2, 2), 0.0) - 0.12493940160209659) < 1e-12


def test_covering_threshold_guards_and_clamp():
    params = DesignParams(14, 4, 2, 1)
    # (ln 91 + r) / 66 leaves [0, 1] below r = -ln 91 and above r = 66 - ln 91
    assert covering_threshold_p(params, -6.0) == 0.0
    assert covering_threshold_p(params, 62.0) == 1.0
    assert covering_threshold_p(params, -math.inf) == 0.0
    assert covering_threshold_p(params, math.inf) == 1.0
    with pytest.raises(ValueError, match="nan"):
        covering_threshold_p(params, math.nan)


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


def _expected_deficient_exact(params, p):
    """C(n,t) * sum_{j < lam, j <= M} C(M,j) p^j (1-p)^(M-j), in exact rationals."""
    m, q = params.supersets_per_tset, Fraction(p)
    return params.n_tsets * sum(
        comb(m, j) * q**j * (1 - q) ** (m - j) for j in range(min(params.lam, m + 1)))


@pytest.mark.parametrize("params,p", [
    (DesignParams(12, 4, 2, 2), 0.1),
    (DesignParams(9, 4, 2, 3), 0.2),
    (DesignParams(16, 4, 2, 1), 0.5),  # a far tail: about 5e-26
    (DesignParams(10, 3, 1, 5), 0.9),
    (DesignParams(20, 5, 2, 4), 0.005),
    (DesignParams(22, 6, 3, 6), 0.004),
    (DesignParams(5, 4, 3, 5), 0.5),  # lam - 1 >= M: every term of the law
])
def test_expected_deficient_matches_exact_sum(params, p):
    exact = float(_expected_deficient_exact(params, p))
    assert abs(expected_deficient(params, p) - exact) <= 1e-12 * exact


def test_expected_deficient_when_lam_exceeds_supersets():
    # M = C(2, 1) = 2 covers per 3-set, lam - 1 = 4: every 3-set is deficient
    params = DesignParams(5, 4, 3, 5)
    for p in (0.0, 0.5, 1.0):
        assert expected_deficient(params, p) == pytest.approx(10, rel=1e-12)


def test_trials_match_mask_level_ops():
    # the bincount fast path and the mask-level profile agree trial by trial
    params = DesignParams(9, 4, 2, 2)
    for i in range(12):
        x_fast, holds = deficiency_trial(derive_stream(30, i), params, 0.2)
        ranks = bernoulli_ranks(comb(9, 4), 0.2, derive_stream(30, i))
        profile = oracles.tset_profile(ranks, 9, 4, 2)
        x_slow = deficiency_count(profile, params.lam)
        assert x_fast == x_slow and holds == (x_fast == 0)
        y_fast, _ = overfull_trial(derive_stream(30, i), params, 0.2)
        assert y_fast == overfull_count(profile, params.lam)


def test_bisected_transition_near_threshold_curve():
    from functools import partial

    from threshold_lab.analysis import threshold_bisect

    params = DesignParams(14, 4, 2, 1)
    scan = threshold_bisect(
        lambda p: partial(deficiency_trial, params=params, p=p),
        0.02,
        0.30,
        trials_per_eval=300,
        tol=2e-3,
        seed=90001,
    )
    predicted = covering_threshold_p(params, 0.0)
    assert predicted / 1.5 <= scan.p_half <= predicted * 1.5


def test_exchangeability_of_coverage():
    # mean per-t-set coverage equals p * C(n-t, k-t) within 3 SE
    params = DesignParams(10, 4, 2)
    p = 0.15
    means = []
    for i in range(300):
        means.append(_profile_from_selection(params, p, derive_stream(40, i)).mean())
    target = p * params.supersets_per_tset
    se = np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(np.mean(means) - target) < 3 * se
