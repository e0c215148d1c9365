import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from scipy.stats import ks_2samp

import oracles

from threshold_lab import balls
from threshold_lab.analysis import EULER_GAMMA, run_trials, wilson_interval
from threshold_lab.balls import (
    OccupancyState,
    count_overfull,
    normalize_waiting_time,
    overfull_trial,
    packing_threshold_n,
    waiting_time,
    waiting_time_mean,
)
from threshold_lab.rng import derive_stream


def test_count_overfull_direct():
    assert count_overfull(OccupancyState(np.array([0, 0, 0]), 3, 0), 1) == 0
    assert count_overfull(OccupancyState(np.array([3, 1, 2]), 3, 6), 1) == 2
    with pytest.raises(ValueError):
        count_overfull(OccupancyState(np.array([1]), 1, 1), 0)


@pytest.mark.parametrize(
    "n_boxes, lam, n_balls", [(10**6, 1, 1000), (1000, 1, 60), (50, 2, 200), (7, 1, 0)]
)
def test_overfull_trial_matches_bincount(n_boxes, lam, n_balls):
    # loads of the occupied boxes only against a bincount over every box,
    # trial by trial on the same streams
    for i in range(20):
        x, holds = overfull_trial(derive_stream(3, i), n_boxes, lam, n_balls)
        state = OccupancyState.from_throws(n_balls, n_boxes, derive_stream(3, i))
        assert x == count_overfull(state, lam) and holds == (x == 0)


def test_overfull_trial_rejects_bad_lambda():
    with pytest.raises(ValueError):
        overfull_trial(derive_stream(3, 0), 10, 0, 5)


@pytest.mark.parametrize("n_boxes", [10**9, 10], ids=["distinct-boxes", "few-boxes"])
def test_overfull_trial_stays_within_its_budget(monkeypatch, n_boxes):
    # the bytes 10^5 balls ask the budget for bound the traced peak of
    # counting their boxes, whether nearly every ball has a box of its own or
    # all share 10
    n_balls, asked = 10**5, []
    monkeypatch.setattr(balls, "check_budget", lambda nbytes, what: asked.append(nbytes))
    overfull_trial(derive_stream(85, 0), n_boxes, 1, n_balls)
    tracemalloc.start()
    try:
        overfull_trial(derive_stream(85, 1), n_boxes, 1, n_balls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n_balls < peak <= asked[-1]


def test_overfull_two_boxes_exhaustive():
    # all 2^2 equally likely assignments of 2 balls to 2 boxes
    xs = []
    for balls in product(range(2), repeat=2):
        counts = np.bincount(balls, minlength=2)
        xs.append(count_overfull(OccupancyState(counts, 2, 2), 1))
    assert np.mean(xs) == 0.5
    assert np.mean([x == 0 for x in xs]) == 0.5


def test_packing_threshold_values():
    assert abs(packing_threshold_n(10**4, 1) - 100.0) < 1e-9
    assert abs(packing_threshold_n(10**6, 2) - 10**4) < 1e-6
    assert abs(packing_threshold_n(10**6, 3) - 10**4.5) < 1e-6


def test_waiting_time_single_box():
    assert waiting_time(1, 1, derive_stream(0, 0)) == 1
    assert waiting_time(1, 5, derive_stream(0, 1)) == 5


def test_waiting_time_two_boxes_mean():
    # classical two-box collection: E(T) = 2 * (1 + 1/2) = 3, and the exact
    # law P(T = k) = 2^-(k-1) for k >= 2 gives the same by direct summation
    exact = sum(k * 2.0 ** -(k - 1) for k in range(2, 200))
    assert abs(exact - 3.0) < 1e-12
    ts = [waiting_time(2, 1, derive_stream(3, i)) for i in range(4000)]
    se = np.std(ts, ddof=1) / math.sqrt(len(ts))
    assert abs(np.mean(ts) - 3.0) < 3 * se


def test_waiting_time_stochastically_monotone_in_lam():
    # T >= N lam on every draw, and T grows with lam in law: with k draws per
    # lam each empirical CDF lies within eps of its own CDF except with
    # probability 2 exp(-2 k eps^2) (Dvoretzky-Kiefer-Wolfowitz), so the
    # ordering F_1 >= F_2 >= F_3 can fail on the samples by at most 2 eps
    n, k, delta = 17, 2000, 1e-6
    eps = math.sqrt(math.log(2 / delta) / (2 * k))
    samples = {
        lam: np.array([waiting_time(n, lam, derive_stream(80 + lam, i)) for i in range(k)])
        for lam in (1, 2, 3)
    }
    for lam, ts in samples.items():
        assert ts.min() >= n * lam
    grid = np.arange(max(ts.max() for ts in samples.values()) + 1)
    cdf = {lam: np.searchsorted(np.sort(ts), grid, side="right") / k for lam, ts in samples.items()}
    assert (cdf[1] >= cdf[2] - 2 * eps).all()
    assert (cdf[2] >= cdf[3] - 2 * eps).all()


@pytest.mark.parametrize("n, lam", [(20, 1), (20, 2), (50, 3)])
def test_waiting_time_law_matches_direct_throws(n, lam):
    # two-sample KS of the Poissonized sampler against throwing one ball at a time
    k = 2000
    fast = [waiting_time(n, lam, derive_stream(90, i)) for i in range(k)]
    slow = [oracles.waiting_time(n, lam, derive_stream(91, i)) for i in range(k)]
    assert ks_2samp(fast, slow).pvalue > 1e-3


@pytest.mark.parametrize("n", [1, 7, 8192, 8193, 3 * 8192 + 5, 100003, 10**6])
@pytest.mark.parametrize("lam", [1, 2, 3])
def test_waiting_time_equals_one_shot_draws(n, lam):
    # the draws taken a summation leaf at a time give the same max and sum,
    # so the same T, as all N drawn at once, and leave the stream alike; T
    # passes the sum through one Poisson draw, which hides a last-bit change,
    # so the max and sum are compared too
    for i in range(3):
        fast, slow = derive_stream(95, i), derive_stream(95, i)
        assert waiting_time(n, lam, fast) == oracles.waiting_time_one_shot(n, lam, slow)
        assert fast.random() == slow.random()
        g = derive_stream(97, i).standard_gamma(lam, size=n)
        assert balls._gamma_max_sum(n, lam, derive_stream(97, i)) == (g.max(), g.sum())


def test_waiting_time_holds_one_leaf_of_draws():
    # a leaf of 8192 draws is 64 KiB, where all 10^6 at once would be 8 MB
    stream = derive_stream(96, 0)
    tracemalloc.start()
    try:
        waiting_time(10**6, 2, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 2**20


def test_overfull_monotone_in_balls():
    # prefix occupancy: adding balls one at a time never decreases the count
    balls = derive_stream(4, 0).integers(0, 30, size=200)
    prev = 0
    for m in range(1, 201):
        counts = np.bincount(balls[:m], minlength=30)
        x = count_overfull(OccupancyState(counts, 30, m), 2)
        assert x >= prev
        prev = x


def test_mean_formula_values():
    assert abs(waiting_time_mean(10**4, 1) - 97875.56036877717) < 1e-6
    assert abs(waiting_time_mean(10**4, 2) - 120078.82843245564) < 1e-6
    # lam 2 minus lam 1 is exactly N ln ln N
    for n in (10, 10**3, 10**5):
        gap = waiting_time_mean(n, 2) - waiting_time_mean(n, 1)
        assert abs(gap - n * math.log(math.log(n))) < 1e-6


def test_mean_formula_guards():
    with pytest.raises(ValueError):
        waiting_time_mean(2, 1)
    with pytest.raises(ValueError):
        waiting_time_mean(100, 0)


def test_normalize_cancellation():
    n = 10**4
    assert abs(normalize_waiting_time(n * math.log(n), n, 1)) < 1e-12
    got = normalize_waiting_time(97876, n, 1)
    assert abs(got - 0.5772596280238158) < 1e-12
    assert abs(got - EULER_GAMMA) < 1e-4


def test_normalize_inverts_mean():
    for n, lam in [(100, 1), (5000, 2), (777, 3)]:
        assert abs(normalize_waiting_time(waiting_time_mean(n, lam), n, lam) - EULER_GAMMA) < 1e-9


def _coverage_within(stream, n_boxes, lam, budget):
    return waiting_time(n_boxes, lam, stream) <= budget


def test_coverage_time_transition():
    # P(T <= N(ln N + (lam-1) ln ln N + r)) crosses from near 0 at r=-4 to
    # near 1 at r=+4; 2000 trials each at N=1e4
    from functools import partial

    n = 10**4
    for lam in (1, 2, 3):
        base = n * (math.log(n) + (lam - 1) * math.log(math.log(n)))
        hi = run_trials(
            partial(_coverage_within, n_boxes=n, lam=lam, budget=base + 4 * n),
            2000,
            seed=100 + lam,
        )
        lo = run_trials(
            partial(_coverage_within, n_boxes=n, lam=lam, budget=base - 4 * n),
            2000,
            seed=200 + lam,
        )
        assert hi.estimate >= 0.9, f"lam={lam}: upper {hi.estimate}"
        assert lo.estimate <= 0.1, f"lam={lam}: lower {lo.estimate}"


def _exact_mean_waiting_time(n_boxes, lam):
    # independent oracle: with throws arriving as a unit-rate Poisson process,
    # box loads are independent Poisson(t/N) variables and Wald's identity
    # gives E(T) = N * int_0^inf 1 - (1 - P(Poi(x) < lam))^N dx, exactly
    from scipy import integrate

    def integrand(x):
        if x == 0.0:
            return 1.0
        log_q = -x + math.log(sum(x**j / math.factorial(j) for j in range(lam)))
        q = math.exp(log_q)
        return -math.expm1(n_boxes * math.log1p(-q)) if q < 1.0 else 1.0

    value, _ = integrate.quad(integrand, 0, 80, limit=400)
    return n_boxes * value


def test_exact_mean_oracle_small_cases():
    # closed forms: N=2 lam=1 gives 3; N=3 lam=1 gives 3 H_3 = 5.5
    assert abs(_exact_mean_waiting_time(2, 1) - 3.0) < 1e-9
    assert abs(_exact_mean_waiting_time(3, 1) - 5.5) < 1e-9


def test_waiting_time_matches_exact_mean():
    # the simulator agrees with the exact Poissonized mean at lam >= 2, where
    # the leading-order closed form still carries a visible finite-size error
    n, lam, trials = 500, 2, 1500
    ts = np.array([waiting_time(n, lam, derive_stream(7, i)) for i in range(trials)])
    exact = _exact_mean_waiting_time(n, lam)
    se = ts.std(ddof=1) / math.sqrt(trials)
    assert abs(ts.mean() - exact) < 3 * se
    # while the asymptotic formula is several percent off at this scale
    assert abs(waiting_time_mean(n, lam) - exact) / exact > 0.02


def test_empirical_variance_order_lam1():
    # variance of the coverage time is of order N^2 for single coverage;
    # recorded only, with a generous factor window
    n = 2000
    ts = np.array([waiting_time(n, 1, derive_stream(6, i)) for i in range(800)])
    ratio = ts.var(ddof=1) / n**2
    assert 0.3 < ratio < 5.0
