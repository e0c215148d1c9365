import concurrent.futures
import itertools
import math
import multiprocessing
import os
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from threshold_lab import analysis, designs
from threshold_lab.analysis import (
    EULER_GAMMA,
    binomial_tail,
    gumbel_sup_distance,
    loglog_slope,
    map_trials,
    poisson_tv_distance,
    run_trials,
    selected_row_counts,
    threshold_bisect,
    wilson_interval,
)
from threshold_lab.errors import BracketError
from threshold_lab.rng import bernoulli_ranks, derive_stream


def test_euler_gamma():
    assert abs(EULER_GAMMA - 0.5772156649015328606) < 1e-15


def test_tail_full_range_is_one():
    for n, p in [(10, 0.3), (100, 0.01), (500, 0.5), (1000, 0.999)]:
        assert abs(binomial_tail(n, p, 0, n) - 1.0) < 1e-12
    # log-space ulps accumulate linearly in n; precision degrades gracefully
    assert abs(binomial_tail(10_000, 0.5, 0, 10_000) - 1.0) < 5e-11


def test_tail_degenerate_p():
    assert binomial_tail(10, 0.0, 0, 5) == 1.0
    assert binomial_tail(10, 1.0, 0, 5) == 0.0


def test_tail_complementarity():
    # lower range difference equals the upper tail computed independently
    lower = binomial_tail(20, 0.3, 0, 20) - binomial_tail(20, 0.3, 0, 5)
    assert abs(lower - stats.binom.sf(5, 20, 0.3)) < 1e-12


def test_tail_matches_scipy():
    assert abs(binomial_tail(50, 0.2, 3, 17) - (stats.binom.cdf(17, 50, 0.2) - stats.binom.cdf(2, 50, 0.2))) < 1e-12


def _exact_tail(n, p, t0, t1):
    p = Fraction(p)  # the float's exact value, and 1 - p exactly
    inner = sum(math.comb(n, j) * p ** (j - t0) * (1 - p) ** (t1 - j) for j in range(t0, t1 + 1))
    return inner * p**t0 * (1 - p) ** (n - t1)


@pytest.mark.parametrize("n", [924, 8855])
def test_tail_matches_exact_rational_sums(n):
    # lower tails as expected_deficient sums them, and windows around the mean
    for p in (1e-4, 1e-3, 0.01, 0.05, 0.2):
        mean = int(n * p)
        for t0, t1 in ((0, 0), (0, 1), (0, 4), (2, 9), (max(0, mean - 5), mean + 5)):
            exact = float(_exact_tail(n, p, t0, t1))
            if exact > 1e-300:  # past that a float tail underflows
                assert abs(binomial_tail(n, p, t0, t1) / exact - 1) < 1e-13, (p, t0, t1)


@pytest.mark.parametrize("p", [math.nan, -0.2, 1.5])
def test_binomial_functions_reject_p_outside_unit_interval(p):
    with pytest.raises(ValueError, match="p must lie in"):
        binomial_tail(10, p, 0, 3)


@pytest.mark.parametrize("mu", [math.nan, 0.0, -0.2])
def test_tv_rejects_non_positive_mu(mu):
    with pytest.raises(ValueError, match="mu must be positive"):
        poisson_tv_distance({0: 1, 1: 1}, mu)


@pytest.mark.parametrize("histogram", [{-3: 10}, {0: 5, -1: 1}, {0: 5, 2.0: 1}, {"1": 3}],
                         ids=["negative", "negative-beside-zero", "float", "string"])
def test_tv_rejects_values_that_are_not_non_negative_integers(histogram):
    with pytest.raises(ValueError, match="non-negative integers"):
        poisson_tv_distance(histogram, 1.0)


def test_tv_rejects_negative_counts():
    with pytest.raises(ValueError, match="counts must be non-negative"):
        poisson_tv_distance({0: 5, 1: -1}, 1.0)
    # numpy integer values are accepted as the Python ones are
    assert poisson_tv_distance({np.int64(0): 1000}, math.log(2)) == poisson_tv_distance(
        {0: 1000}, math.log(2))


def _poisson_pmf(j, mu):
    return math.exp(-mu + j * math.log(mu) - math.lgamma(j + 1))


def test_tv_zero_for_matching_histogram():
    mu = 3.7
    hist = {j: _poisson_pmf(j, mu) for j in range(0, 80)}
    assert poisson_tv_distance(hist, mu) < 1e-9


def test_tv_point_mass():
    # point mass at 0 against mean ln 2: distance is exactly 1 - e^(-mu) = 1/2
    assert abs(poisson_tv_distance({0: 1000}, math.log(2)) - 0.5) < 1e-12


def test_tv_ignores_empty_bins():
    hist = {0: 10, 2: 5}
    padded = {0: 10, 1: 0, 2: 5, 3: 0}
    assert poisson_tv_distance(hist, 1.3) == poisson_tv_distance(padded, 1.3)


def test_tv_triangle_like():
    # |d(A, mu) - d(B, mu)| <= TV(A, B) for random histogram pairs
    rng = derive_stream(31, 0)
    for _ in range(50):
        support = int(rng.integers(3, 12))
        a = rng.integers(0, 20, size=support) + 1
        b = rng.integers(0, 20, size=support) + 1
        mu = float(rng.uniform(0.2, 8.0))
        ha = {j: int(a[j]) for j in range(support)}
        hb = {j: int(b[j]) for j in range(support)}
        emp_tv = 0.5 * float(np.abs(a / a.sum() - b / b.sum()).sum())
        da = poisson_tv_distance(ha, mu)
        db = poisson_tv_distance(hb, mu)
        assert abs(da - db) <= emp_tv + 1e-12


def test_gumbel_self_consistency():
    u = derive_stream(17, 0).random(2000)
    samples = -np.log(-np.log(u))  # inverse-CDF draws from the limit law itself
    assert gumbel_sup_distance(samples) < 0.05


def test_gumbel_constant_sample():
    c = 0.0
    stat = gumbel_sup_distance([c] * 200)
    assert stat >= 1 - math.exp(-math.exp(-c)) - 1e-12
    assert 0.0 <= stat <= 1.0


def test_gumbel_needs_samples():
    with pytest.raises(ValueError):
        gumbel_sup_distance([0.0] * 99)


def test_wilson_bounds_order():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


@pytest.mark.parametrize("successes", [-1, 5])
def test_wilson_rejects_successes_outside_trials(successes):
    with pytest.raises(ValueError, match="successes"):
        wilson_interval(successes, 3)


def _no_probe(param):
    raise AssertionError("a probe ran")


@pytest.mark.parametrize("bad", [{"tol": math.nan}, {"target": math.nan}, {"target": 0.0},
                                 {"target": 1.0}, {"target": 1.5}], ids=str)
def test_bisect_refuses_nan_tol_and_target_off_the_open_unit_interval(bad):
    kwargs = {"trials_per_eval": 20, "tol": 1e-2, "seed": 0, **bad}
    with pytest.raises(ValueError):
        threshold_bisect(_no_probe, 0.0, 1.0, **kwargs)


def _always_true(stream):
    return True


def _always_false(stream):
    return False


def _fair_coin(stream):
    return bool(stream.random() < 0.5)


def test_run_trials_degenerate():
    s = run_trials(_always_true, 100, seed=0)
    assert s.estimate == 1.0 and s.ci_high == 1.0
    s = run_trials(_always_false, 100, seed=0)
    assert s.estimate == 0.0 and s.ci_low == 0.0


def test_run_trials_fair_coin():
    s = run_trials(_fair_coin, 10_000, seed=123)
    assert 0.47 <= s.estimate <= 0.53
    assert s.ci_low <= s.estimate <= s.ci_high


# near the middle of the transition (about 0.57 of trials hold), so 60
# trials mix outcomes whatever the draw
_DESIGN, _DESIGN_P = designs.DesignParams(9, 4, 2, 1), 0.17


def _cover_holds(stream):
    """The bool adapter of a model trial, which returns (X, holds)."""
    return designs.deficiency_trial(stream, _DESIGN, _DESIGN_P)[1]


def test_pair_trial_scores_as_its_bool_adapter(monkeypatch, opened):
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    pair = partial(designs.deficiency_trial, params=_DESIGN, p=_DESIGN_P)
    summaries = [run_trials(fn, 60, seed=17, workers=workers)
                 for fn in (pair, _cover_holds) for workers in (1, 2)]
    assert all(s == summaries[0] for s in summaries)
    assert 0 < summaries[0].successes < 60
    assert opened == [2, 2]  # both runs at 2 workers went to a pool


def _index_draw(stream):
    return int(stream.integers(1 << 62))


@pytest.mark.parametrize(
    "trials,workers", [(1, 2), (2, 2), (7, 2), (9, 3), (64, 2), (3, 2), (4, 3), (5, 4)])
def test_map_trials_worker_invariance(monkeypatch, opened, trials, workers):
    # results come back in trial order however the indices are split into chunks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    expected = [_index_draw(derive_stream(5, i)) for i in range(trials)]
    assert map_trials(_index_draw, trials, seed=5, workers=1) == expected
    assert map_trials(_index_draw, trials, seed=5, workers=workers) == expected
    # with a free pool the trials after the first two go to a pool of at most
    # one process each, and a single trial left is not worth one
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    assert map_trials(_index_draw, trials, seed=5, workers=workers) == expected
    assert opened == ([min(workers, trials - 2)] if trials > 3 else [])


def test_pool_is_never_wider_than_the_usable_cpus(monkeypatch):
    # a stand-in pool records its width and maps inline, so nothing forks
    widths = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    assert map_trials(_index_draw, 400, 7, workers=64) == map_trials(_index_draw, 400, 7)
    assert widths == [2]


def test_cheap_trials_open_no_pool(monkeypatch, opened):
    # a clock that moves 5 us a reading, one reading a trial, so a stalled
    # trial cannot make the rest look worth a pool
    ticks = itertools.count()
    monkeypatch.setattr(analysis, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * 5e-6))
    assert map_trials(_index_draw, 2000, seed=5, workers=2) == map_trials(
        _index_draw, 2000, seed=5, workers=1)
    args = (lambda p: partial(_biased_coin, p=p), 0.0, 1.0)
    kwargs = dict(trials_per_eval=400, tol=0.05, seed=3)
    assert threshold_bisect(*args, workers=2, **kwargs).rows == threshold_bisect(
        *args, workers=1, **kwargs).rows
    assert opened == []


@pytest.mark.parametrize("share,pools", [(0.99, []), (1.01, [2])])
def test_pool_opens_once_its_priced_saving_passes_0_15_s(monkeypatch, opened, share, pools):
    # 12 trials on a clock that moves one step a reading: priced at trial 2,
    # after one step, the 10 trials left on two workers save 10 * step / 2
    step = 0.15 * share / 5
    ticks = itertools.count()
    monkeypatch.setattr(analysis, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * step))
    assert map_trials(_index_draw, 12, seed=5, workers=2) == map_trials(
        _index_draw, 12, seed=5, workers=1)
    assert opened == pools


@pytest.mark.parametrize("block", [1, 5, 6, 7, 1 << 16])
def test_selected_row_counts_in_blocks_match_one_bincount(monkeypatch, block):
    # blocks of under one row, of whole rows, and straddling a row boundary
    monkeypatch.setattr(analysis, "_SELECT_BLOCK", block)
    table = derive_stream(17, 0).integers(0, 40, size=(500, 3), dtype=np.uint16)
    for p in (0.0, 0.3, 0.9):
        counts = selected_row_counts(partial(np.take, table, axis=0), len(table), 3, 41, p,
                                     derive_stream(17, 1))
        ranks = bernoulli_ranks(len(table), p, derive_stream(17, 1))
        expect = np.bincount(table[ranks].ravel(), minlength=41)
        assert counts.dtype == expect.dtype and np.array_equal(counts, expect)


def _incidence_builds_before(stream):
    builds = designs._coverage_incidence.cache_info().misses
    designs._coverage_incidence(12, 4, 2)
    return builds


def test_forked_workers_inherit_the_parents_tables(monkeypatch, opened):
    # trial 0 builds the table in the parent; the pool forks after it, so no
    # trial on a worker finds the table missing
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    designs._coverage_incidence.cache_clear()
    assert map_trials(_incidence_builds_before, 16, seed=0, workers=2) == [0] + [1] * 15
    assert opened == [2]


def _step_trial(stream, param, knee, rising=False):
    # true above the knee when rising, else true up to it
    return (param > knee) == rising


@pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
def test_bisect_deterministic_step(rising):
    # the direction is read from the endpoint probes, not declared
    scan = threshold_bisect(
        lambda p: partial(_step_trial, param=p, knee=0.3, rising=rising),
        0.0,
        1.0,
        trials_per_eval=20,
        tol=1e-3,
        seed=0,
    )
    assert 0.299 <= scan.p_half <= 0.301
    params = [row[0] for row in scan.rows]
    assert params == sorted(params)


def test_bisect_ends_when_the_midpoint_rounds_onto_an_endpoint():
    # a tol below the float spacing at 0.3 leaves two adjacent floats, whose
    # midpoint is one of them; the scan ends there rather than probing it forever
    probes = itertools.count()

    def make_trial(p):
        assert next(probes) < 100, f"still probing at {p!r}"
        return partial(_step_trial, param=p, knee=0.3, rising=True)

    scan = threshold_bisect(
        make_trial,
        0.01,
        0.9,
        trials_per_eval=20,
        tol=1e-300,
        seed=0,
    )
    params = [row[0] for row in scan.rows]
    below, above = max(p for p in params if p <= 0.3), min(p for p in params if p > 0.3)
    assert above == math.nextafter(below, 1.0) and below <= scan.p_half <= above


def _biased_coin(stream, p):
    return bool(stream.random() < p)


def test_bisect_lands_inside_target_band():
    # on a smooth monotone experiment the located point estimates back to
    # within the target's own confidence band
    scan = threshold_bisect(
        lambda p: partial(_biased_coin, p=p),
        0.0,
        1.0,
        trials_per_eval=800,
        tol=0.02,
        seed=7,
    )
    check = run_trials(partial(_biased_coin, p=scan.p_half), 2000, seed=99)
    assert check.ci_low <= 0.5 <= check.ci_high


def test_bisect_bracket_violation():
    with pytest.raises(BracketError):
        threshold_bisect(
            lambda p: partial(_step_trial, param=p, knee=2.0),  # always true
            0.0,
            1.0,
            trials_per_eval=20,
            tol=1e-2,
            seed=0,
        )


def test_bisect_refuses_an_endpoint_whose_interval_covers_the_target():
    # a fair coin at the low end is on neither side of 0.5, so neither
    # direction holds, though the high end lies clearly below
    low = run_trials(_fair_coin, 400, analysis._probe_seed(0, 0))
    assert low.ci_low < 0.5 < low.ci_high
    with pytest.raises(BracketError):
        threshold_bisect(lambda p: _fair_coin if p == 0.0 else _always_false, 0.0, 1.0,
                         trials_per_eval=400, tol=1e-2, seed=0)


def test_bisect_opens_and_shuts_a_pool_per_probe(monkeypatch, opened):
    # cheap probes open no pool, so a free pool stands in for costly ones
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    args = (lambda p: partial(_biased_coin, p=p), 0.0, 1.0)
    kwargs = dict(trials_per_eval=40, tol=0.05, seed=3)
    pooled = threshold_bisect(*args, workers=2, **kwargs)
    assert len(pooled.rows) > 3
    assert opened == [2] * len(pooled.rows)
    assert multiprocessing.active_children() == []
    serial = threshold_bisect(*args, workers=1, **kwargs)
    assert pooled.rows == serial.rows
    assert pooled.p_half == serial.p_half


def test_bisect_bracket_violation_shuts_pool_down(monkeypatch, opened):
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    with pytest.raises(BracketError):
        threshold_bisect(
            lambda p: partial(_step_trial, param=p, knee=2.0),  # always true
            0.0,
            1.0,
            trials_per_eval=20,
            tol=1e-2,
            seed=0,
            workers=2,
        )
    assert opened == [2, 2]  # one pool for each endpoint probe
    assert multiprocessing.active_children() == []


def test_loglog_slope_exact_powers():
    xs = [2.0, 4.0, 8.0, 16.0]
    assert abs(loglog_slope([(x, x**2) for x in xs]) - 2.0) < 1e-12
    assert abs(loglog_slope([(x, 7 * x**3) for x in xs]) - 3.0) < 1e-12


def test_loglog_slope_guards():
    with pytest.raises(ValueError):
        loglog_slope([(1.0, 1.0), (2.0, 4.0)])
    with pytest.raises(ValueError):
        loglog_slope([(1.0, 1.0), (2.0, 4.0), (-3.0, 9.0)])
    with pytest.raises(ValueError):
        loglog_slope([(1.0, 1.0), (1.0, 4.0), (3.0, 9.0)])
