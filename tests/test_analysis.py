import concurrent.futures
import math
import multiprocessing
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy import stats

from threshold_lab import analysis, designs
from threshold_lab.analysis import (
    EULER_GAMMA,
    binomial_tail,
    binomial_tail_term_ratio,
    gumbel_sup_distance,
    loglog_slope,
    map_trials,
    poisson_tv_distance,
    run_trials,
    threshold_bisect,
    wilson_interval,
)
from threshold_lab.errors import BracketError
from threshold_lab.rng import derive_stream


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


def test_term_ratio_small_np():
    # np = 1e-2: the first term dominates up to (n-1)p/2 relative
    r = binomial_tail_term_ratio(10**6, 1e-8, 1, 3, mode="first")
    assert abs(r - 1.0050166616656202) < 1e-9


def test_term_ratio_large_np():
    # np = 1e3 with bounded upper index: last term dominates to ~2/np
    r = binomial_tail_term_ratio(10**6, 1e-3, 0, 2, mode="last")
    assert abs(r - 1.0019999980025618) < 1e-9
    assert abs(r - 1.0) < 1e-2


def test_term_ratio_degenerate():
    assert binomial_tail_term_ratio(50, 0.3, 4, 4, mode="first") == 1.0
    assert binomial_tail_term_ratio(50, 0.3, 4, 4, mode="last") == 1.0


def test_term_ratio_guards():
    with pytest.raises(ValueError):
        binomial_tail_term_ratio(100, 0.5, 0, 21, mode="last")
    with pytest.raises(ValueError):
        binomial_tail_term_ratio(10, 0.0, 1, 3, mode="first")  # zero term
    with pytest.raises(ValueError):
        binomial_tail_term_ratio(10, 0.5, 0, 3, mode="middle")


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


def _index_draw(stream):
    return int(stream.integers(1 << 62))


@pytest.mark.parametrize("trials,workers", [(1, 2), (2, 2), (7, 2), (9, 3), (64, 2)])
def test_map_trials_worker_invariance(monkeypatch, opened, trials, workers):
    # results come back in trial order however the indices are split into chunks
    expected = [_index_draw(derive_stream(5, i)) for i in range(trials)]
    assert map_trials(_index_draw, trials, seed=5, workers=1) == expected
    assert map_trials(_index_draw, trials, seed=5, workers=workers) == expected
    # with a free pool every run of three or more trials hands its tail to the pool
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    assert map_trials(_index_draw, trials, seed=5, workers=workers) == expected
    assert opened == ([workers] if trials > 2 else [])


@pytest.fixture
def opened(monkeypatch):
    """The ``max_workers`` of every pool opened during the test."""
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    # analysis imports the pool class from concurrent.futures when it opens one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return opened


def test_cheap_trials_open_no_pool(opened):
    assert map_trials(_index_draw, 2000, seed=5, workers=2) == map_trials(
        _index_draw, 2000, seed=5, workers=1)
    args = (lambda p: partial(_biased_coin, p=p), 0.0, 1.0)
    kwargs = dict(trials_per_eval=400, tol=0.05, seed=3, increasing=True)
    assert threshold_bisect(*args, workers=2, **kwargs).rows == threshold_bisect(
        *args, workers=1, **kwargs).rows
    assert opened == []


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


def _step_trial(stream, param, knee):
    return param <= knee


def test_bisect_deterministic_step():
    scan = threshold_bisect(
        lambda p: partial(_step_trial, param=p, knee=0.3),
        0.0,
        1.0,
        trials_per_eval=20,
        tol=1e-3,
        seed=0,
        increasing=False,
    )
    assert 0.299 <= scan.p_half <= 0.301
    params = [row[0] for row in scan.rows]
    assert params == sorted(params)


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
        increasing=True,
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
            increasing=False,
        )


def test_bisect_runs_every_probe_on_one_pool(monkeypatch, opened):
    # cheap probes open no pool, so a free pool stands in for costly ones
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    args = (lambda p: partial(_biased_coin, p=p), 0.0, 1.0)
    kwargs = dict(trials_per_eval=40, tol=0.05, seed=3, increasing=True)
    pooled = threshold_bisect(*args, workers=2, **kwargs)
    assert opened == [2]
    assert len(pooled.rows) > 3
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
            increasing=False,
            workers=2,
        )
    assert opened == [2]
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
