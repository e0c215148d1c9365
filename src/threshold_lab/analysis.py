"""Shared numerical and statistical machinery.

The coverage core of the designs, perms and balls models (a bincount of the
selected table rows, then the targets covered at most lam - 1 or at least
lam + 1 times), exact binomial tail sums, Poisson goodness-of-fit in total
variation, Gumbel empirical-CDF distance, Monte Carlo aggregation with
Wilson intervals, stochastic bisection for transition location, and log-log
growth-rate regression.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BracketError
from .rng import bernoulli_ranks, derive_stream

__all__ = [
    "EULER_GAMMA",
    "MonteCarloSummary",
    "ThresholdScan",
    "selected_row_counts",
    "deficiency_count",
    "overfull_count",
    "binomial_tail",
    "binomial_tail_term_ratio",
    "poisson_tv_distance",
    "gumbel_sup_distance",
    "wilson_interval",
    "map_trials",
    "run_trials",
    "threshold_bisect",
    "loglog_slope",
]

EULER_GAMMA = 0.57721566490153286061

# last-term tail approximations are only meaningful for t1 = O(1)
_LAST_TERM_T1_MAX = 20

_Z95 = 1.959963984540054

# wall seconds a pool of trials costs before it saves any (its import, fork,
# first map and shutdown), measured on a 2-vCPU VM, see BENCH_11.json
_POOL_START_S = 0.08


def selected_row_counts(
    table: np.ndarray, n_bins: int, p: float, stream: np.random.Generator
) -> np.ndarray:
    """Occurrences of each value in [n_bins] over the rows of ``table`` that
    ``bernoulli_ranks`` keeps with probability p: one bincount of the selection."""
    return np.bincount(table[bernoulli_ranks(len(table), p, stream)].ravel(), minlength=n_bins)


def deficiency_count(profile: np.ndarray, lam: int) -> int:
    """Number of targets covered at most lam - 1 times."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    return int(np.count_nonzero(profile <= lam - 1))


def overfull_count(profile: np.ndarray, lam: int) -> int:
    """Number of targets covered at least lam + 1 times."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    return int(np.count_nonzero(profile >= lam + 1))


def _log_binom_pmfs(n: int, p: float, t0: int, t1: int) -> list[float]:
    """log of C(n,j) p^j (1-p)^(n-j) for j = t0..t1; -inf where the mass is exactly zero.

    C(n, j) is carried from term to term as an exact integer, so its log does
    not lose eps * n ln n to the cancellation of lgamma differences.
    """
    if p in (0.0, 1.0):
        full = 0 if p == 0.0 else n
        return [0.0 if j == full else -math.inf for j in range(t0, t1 + 1)]
    log_p, log_q = math.log(p), math.log1p(-p)
    out = []
    c = math.comb(n, t0)
    for j in range(t0, t1 + 1):
        out.append(math.log(c) + j * log_p + (n - j) * log_q)
        c = c * (n - j) // (j + 1)
    return out


def binomial_tail(n: int, p: float, t0: int, t1: int) -> float:
    """Exact partial sum of the Binomial(n, p) pmf over j in [t0, t1].

    Terms are formed in log space and accumulated with compensated summation,
    so the result stays accurate even when individual factors underflow.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0 <= t0 <= t1 <= n:
        raise ValueError("need 0 <= t0 <= t1 <= n")
    return math.fsum(math.exp(log_pmf) for log_pmf in _log_binom_pmfs(n, p, t0, t1))


def binomial_tail_term_ratio(
    n: int, p: float, t0: int, t1: int, mode: str = "first"
) -> float:
    """Ratio of the exact tail sum to its designated single term.

    ``mode="first"`` designates the t0 term (accurate regime np -> 0);
    ``mode="last"`` designates the t1 term (np -> infinity, t1 bounded).
    The last-term mode rejects t1 > 20 since the approximation is only
    meaningful for bounded t1 and degrades as t1 grows.
    """
    if mode not in ("first", "last"):
        raise ValueError("mode must be 'first' or 'last'")
    if mode == "last" and t1 > _LAST_TERM_T1_MAX:
        raise ValueError(f"last-term mode requires t1 <= {_LAST_TERM_T1_MAX}")
    if not 0 <= t0 <= t1 <= n:
        raise ValueError("need 0 <= t0 <= t1 <= n")
    log_pmfs = _log_binom_pmfs(n, p, t0, t1)
    log_term = log_pmfs[0 if mode == "first" else -1]
    if log_term == -math.inf:
        raise ValueError("designated term is zero")
    # summed relative to the designated term so the ratio survives even when
    # every absolute term underflows
    return math.fsum(math.exp(log_pmf - log_term) for log_pmf in log_pmfs)


def _poisson_pmf(j: int, mu: float) -> float:
    return math.exp(-mu + j * math.log(mu) - math.lgamma(j + 1))


def poisson_tv_distance(histogram: Mapping[int, int], mu: float) -> float:
    """Total variation distance between a count histogram and Poisson(mu).

    The histogram maps observed values to occurrence counts.  Poisson mass
    beyond the largest observed value is folded into the distance.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not histogram:
        raise ValueError("histogram must be non-empty")
    total = float(sum(histogram.values()))
    if total <= 0:
        raise ValueError("histogram has no mass")
    jmax = max(histogram)
    acc = 0.0
    pois_seen = 0.0
    for j in range(jmax + 1):
        emp = histogram.get(j, 0) / total
        pj = _poisson_pmf(j, mu)
        pois_seen += pj
        acc += abs(emp - pj)
    acc += max(0.0, 1.0 - pois_seen)  # Poisson tail where empirical mass is zero
    return 0.5 * acc


def gumbel_sup_distance(samples: Sequence[float]) -> float:
    """Sup distance between the empirical CDF and the standard Gumbel CDF.

    Evaluated at the sample points on both sides of each CDF step, i.e. the
    Kolmogorov-Smirnov statistic against exp(-e^(-u)).
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 100:
        raise ValueError("need at least 100 samples")
    cdf = np.exp(-np.exp(-x))
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def wilson_interval(
    successes: int, trials: int, z: float = _Z95
) -> tuple[float, float]:
    """95% Wilson score interval; well behaved for estimates at 0 or 1."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate of a boolean-valued Monte Carlo experiment."""

    trials: int
    successes: int
    estimate: float
    ci_low: float
    ci_high: float
    seed: int


@dataclass
class ThresholdScan:
    """Probe history of a bisection run, plus the located transition point."""

    rows: list[tuple[float, MonteCarloSummary]] = field(default_factory=list)
    p_half: float = math.nan
    tol: float = math.nan
    seed: int = 0


def _run_chunk(args) -> list:
    """Results of one index range of trials, on one generator re-keyed per trial."""
    trial_fn, seed, indices = args
    stream = None
    return [trial_fn(stream := derive_stream(seed, i, stream)) for i in indices]


class _Pool:
    """A process pool of ``workers`` that opens on first use; leaving it shuts
    down whatever was opened."""

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None

    def map(self, fn, jobs):
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor  # only a pooled run loads it
            # fork, so workers inherit the parent's cached tables (3.14 defaults to forkserver)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=multiprocessing.get_context("fork"))
        return self._executor.map(fn, jobs)

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            self._executor.shutdown()


def map_trials(
    trial_fn: Callable[[np.random.Generator], object],
    trials: int,
    seed: int,
    workers: int = 1,
    *,
    pool: _Pool | None = None,
) -> list:
    """Run ``trial_fn`` once per trial index and return results in index order.

    Each trial receives ``derive_stream(seed, index)``, one generator re-keyed
    per trial that a trial must not keep, so the output list is identical for
    any worker count.  The calling process runs the trials in order.  With
    ``workers > 1`` it prices the trials left at the time per trial since
    trial 0 (whose time includes any table build); once what a pool would
    save, ``rest * (1 - 1/workers)``, exceeds ``_POOL_START_S``, the rest
    runs in contiguous index ranges on ``pool`` if given, else on a pool
    opened for this call.  The pool forks after trial 0, so its workers
    inherit the tables that trial built; the trial function must then be
    picklable (a top-level function or partial of one).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if workers <= 1:
        return _run_chunk((trial_fn, seed, range(trials)))
    results = []
    stream = None
    for i in range(trials):
        # priced only once the trials since trial 0 have run for a tenth of
        # the pool's cost, so a slow warm-up trial does not open a pool
        if i >= 2 and (measured := time.perf_counter() - since) > _POOL_START_S / 10:
            if (trials - i) * measured / (i - 1) * (1 - 1 / workers) > _POOL_START_S:
                with _Pool(workers) if pool is None else nullcontext(pool) as executor:
                    return results + _map_pooled(trial_fn, seed, range(i, trials), executor)
        results.append(trial_fn(stream := derive_stream(seed, i, stream)))
        if i == 0:
            since = time.perf_counter()
    return results


def _map_pooled(trial_fn, seed: int, indices: range, pool: _Pool) -> list:
    """Results of ``indices``, run as contiguous ranges on ``pool`` and yielded in order."""
    n_chunks = min(len(indices), pool.workers * 4)
    jobs = [(trial_fn, seed, indices[c * len(indices) // n_chunks:(c + 1) * len(indices) // n_chunks])
            for c in range(n_chunks)]
    return [value for part in pool.map(_run_chunk, jobs) for value in part]


def run_trials(
    trial_fn: Callable[[np.random.Generator], bool],
    trials: int,
    seed: int,
    workers: int = 1,
    *,
    pool: _Pool | None = None,
) -> MonteCarloSummary:
    """Estimate a success probability with a Wilson 95% interval."""
    results = map_trials(trial_fn, trials, seed, workers, pool=pool)
    successes = sum(1 for r in results if r)
    lo, hi = wilson_interval(successes, trials)
    return MonteCarloSummary(trials, successes, successes / trials, lo, hi, seed)


def _probe_seed(seed: int, probe_index: int) -> int:
    # fresh sub-seed per probe: reusing trial streams across probes would
    # correlate the bracket decisions
    ss = np.random.SeedSequence(entropy=(int(seed), int(probe_index)))
    return int(ss.generate_state(1, np.uint64)[0])


def threshold_bisect(
    make_trial: Callable[[float], Callable[[np.random.Generator], bool]],
    p_lo: float,
    p_hi: float,
    *,
    target: float = 0.5,
    trials_per_eval: int,
    tol: float,
    seed: int,
    increasing: bool,
    workers: int = 1,
) -> ThresholdScan:
    """Locate the parameter where a monotone property crosses ``target``.

    ``make_trial(param)`` yields the boolean trial function at one parameter
    value; ``increasing`` declares whether the success probability rises with
    the parameter.  Endpoints must straddle the target beyond their Wilson
    intervals or a BracketError is raised.  Every probe gets a fresh sub-seed
    derived from ``(seed, probe_index)``.  With ``workers > 1`` the probes
    that open a pool (see ``map_trials``) share one, shut down however the
    bisection ends.
    """
    if not p_lo < p_hi:
        raise ValueError("need p_lo < p_hi")
    if tol <= 0:
        raise ValueError("tol must be positive")
    scan = ThresholdScan(tol=tol, seed=seed)

    def evaluate(param: float) -> MonteCarloSummary:
        probe_seed = _probe_seed(seed, len(scan.rows))
        summary = run_trials(make_trial(param), trials_per_eval, probe_seed, workers, pool=pool)
        scan.rows.append((param, summary))
        return summary

    # one pool for every probe, so its workers start once and keep their table caches
    with _Pool(workers) as pool:
        s_lo = evaluate(p_lo)
        s_hi = evaluate(p_hi)
        lo_ok = s_lo.ci_high < target if increasing else s_lo.ci_low > target
        hi_ok = s_hi.ci_low > target if increasing else s_hi.ci_high < target
        if not (lo_ok and hi_ok):
            raise BracketError(
                f"endpoint estimates do not straddle target={target}: "
                f"P({p_lo:g})={s_lo.estimate:.3f} "
                f"[{s_lo.ci_low:.3f},{s_lo.ci_high:.3f}], "
                f"P({p_hi:g})={s_hi.estimate:.3f} "
                f"[{s_hi.ci_low:.3f},{s_hi.ci_high:.3f}]"
            )

        lo, hi = p_lo, p_hi
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            est = evaluate(mid).estimate
            below = est < target
            if below == increasing:
                lo = mid
            else:
                hi = mid
    scan.p_half = 0.5 * (lo + hi)
    scan.rows.sort(key=lambda row: row[0])
    return scan


def loglog_slope(points: Iterable[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x; the empirical growth exponent."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    xs = np.array([p[0] for p in pts], dtype=float)
    ys = np.array([p[1] for p in pts], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("points must be strictly positive")
    if len(np.unique(xs)) != len(xs):
        raise ValueError("x values must be distinct")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
