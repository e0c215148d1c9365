"""Shared numerical and statistical machinery.

The coverage core of the designs, perms and balls models (a count of the
rows of the selected objects, then the targets covered at most lam - 1 or
at least lam + 1 times), the runs of trials over index ranges (chunks),
exact binomial tail sums, Poisson goodness-of-fit
in total variation, Gumbel empirical-CDF distance, Monte Carlo aggregation
with Wilson intervals, stochastic bisection for transition location, and
log-log growth-rate regression.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import BracketError, check_budget
from .rng import bernoulli_blocks, bernoulli_chunk, derive_stream, first_block

__all__ = [
    "EULER_GAMMA",
    "MonteCarloSummary",
    "ThresholdScan",
    "selected_row_counts",
    "chunk_row_counts",
    "chunked",
    "row_runs",
    "deficiency_count",
    "overfull_count",
    "clamp_probability",
    "binomial_tail",
    "poisson_tv_distance",
    "gumbel_sup_distance",
    "wilson_interval",
    "map_trials",
    "run_trials",
    "threshold_bisect",
    "loglog_slope",
]

EULER_GAMMA = 0.57721566490153286061

_Z95 = 1.959963984540054

# wall seconds a pool of trials costs before it saves any (its import, fork,
# first map and shutdown): the priced saving at which `perm cover --n 8`
# runs break even at --workers 2 from the CLI, plus a margin for the noise
# of the per-trial time that prices it; 2-vCPU VM, see BENCH_19.json
_POOL_START_S = 0.15

# table entries that one block of derived rows takes at a time
_COUNT_BLOCK = 1 << 16

# table values that one block of a selection is counted in: at 2^16, a perm
# n = 8 trial's block temporaries pass glibc's dynamic trim threshold, and
# their pages are faulted in again at each block (230 faults a trial)
_SELECT_BLOCK = 1 << 15


def selected_row_counts(
    rows: Callable[[np.ndarray], np.ndarray], universe: int, width: int, n_bins: int,
    p: float, stream: np.random.Generator,
) -> np.ndarray:
    """Occurrences of each value in [n_bins] over ``rows(ranks)``, the
    ``width`` values of each rank in [universe], in any layout, that
    ``bernoulli_ranks`` keeps with probability p.  Each block of
    ``bernoulli_blocks``, at most ``_SELECT_BLOCK`` values, is counted as it
    is drawn, through one intp buffer that ``np.add.at`` reads without a
    copy, so no more of the selection than one block is held."""
    step = max(1, _SELECT_BLOCK // width)
    counts = np.zeros(n_bins, dtype=np.intp)
    values = np.empty(step * width, dtype=np.intp)
    for ranks in bernoulli_blocks(universe, p, stream, step):
        block = values[: len(ranks) * width]
        np.copyto(block, rows(ranks).ravel("K"))
        np.add.at(counts, block, 1)
    return counts


def chunk_row_counts(
    rows: Callable[[np.ndarray], np.ndarray], universe: int, width: int, n_bins: int,
    p: float, seed: int, indices: range, measure: Callable[[np.ndarray], list],
) -> list:
    """``measure`` of the ``selected_row_counts`` of the trials ``indices``,
    each on ``derive_stream(seed, i)``, taken a (trials, n_bins) table at a
    time, one a chunk; ``rows`` gives one column per rank.

    A chunk holds as many trials as ``_SELECT_BLOCK`` values of their first
    gap blocks (``bernoulli_chunk``) and as many table entries allow, and is
    counted by one bincount, each trial's values offset by n_bins times its
    row.  A trial that one block may not hold, or any from p = 1/3, is a
    chunk of one, streamed by ``selected_row_counts``, as is a trial whose
    first block falls short of the universe."""
    step = max(1, _SELECT_BLOCK // width)
    size = first_block(universe, p, step)
    streamed = size == step or p >= 1 / 3
    chunk = 1 if streamed else max(1, min(step // size, _SELECT_BLOCK // n_bins))
    results, stream = [], None
    for a in range(0, len(indices), chunk):
        run = indices[a : a + chunk]
        if streamed:
            stream = derive_stream(seed, run[0], stream)
            results += measure(selected_row_counts(rows, universe, width, n_bins, p, stream)[None])
            continue
        # the table, the gaps with their masks and cut, and the values and
        # their offsets, then one trial streamed in its place
        check_budget(8 * (chunk * n_bins + chunk * size * (3 + 2 * width)
                          + n_bins + 2 * step * width),
                     f"count tables of {chunk} trials of {n_bins} values")
        stream = derive_stream(seed, run[0], stream)
        results += measure(_chunk_table(rows, universe, width, n_bins, p, seed, run, size,
                                        stream))
    return results


def _chunk_table(rows, universe: int, width: int, n_bins: int, p: float, seed: int,
                 run: range, size: int, stream: np.random.Generator) -> np.ndarray:
    """The (trials, n_bins) counts of the trials ``run``, from one bincount
    of their values, each offset in place by n_bins times its trial's row,
    and a trial short of the universe streamed; its own function so that its
    arrays are freed before the next chunk is drawn."""
    ranks, counts = bernoulli_chunk(universe, p, seed, run, size, stream)
    values = rows(ranks).astype(np.intp) if len(ranks) else np.empty(0, dtype=np.intp)
    values += np.repeat(np.arange(0, len(run) * n_bins, n_bins), np.maximum(counts, 0))
    table = np.bincount(values.ravel("K"), minlength=len(run) * n_bins).reshape(len(run), n_bins)
    for t in np.flatnonzero(counts < 0):
        table[t] = selected_row_counts(rows, universe, width, n_bins, p,
                                       derive_stream(seed, run[t], stream))
    return table


def row_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lengths of the runs of equal adjacent entries in each row of a 2-d
    array of at least one column, every row's in turn, and the index among
    them of each row's first run."""
    count, width = rows.shape
    starts = np.ones(count * width + 1, dtype=bool)  # and one past the last run
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:-1].reshape(count, width)[:, 1:])
    starts = np.flatnonzero(starts)
    return starts[1:] - starts[:-1], np.searchsorted(starts, np.arange(0, count * width, width))


def deficiency_count(profile: np.ndarray, lam: int):
    """Number of targets covered at most lam - 1 times, an int for one
    profile and a list of them for a table of profiles, one a row."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    return _row_counts(profile <= lam - 1)


def overfull_count(profile: np.ndarray, lam: int):
    """Number of targets covered at least lam + 1 times, an int for one
    profile and a list of them for a table of profiles, one a row."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    return _row_counts(profile >= lam + 1)


def _row_counts(hits: np.ndarray):
    return np.count_nonzero(hits, axis=1).tolist() if hits.ndim > 1 else np.count_nonzero(hits)


def clamp_probability(p: float) -> float:
    """p pinned to [0, 1], the far-from-threshold limit of a threshold curve
    at an extreme offset; nan lies on neither side and is refused."""
    if math.isnan(p):
        raise ValueError("threshold expression is nan")
    return min(1.0, max(0.0, p))


def binomial_tail(n: int, p: float, t0: int, t1: int) -> float:
    """Exact partial sum of the Binomial(n, p) pmf over j in [t0, t1].

    Terms are formed in log space and accumulated with compensated summation,
    so the result stays accurate even when individual factors underflow.
    C(n, j) is carried from term to term as an exact integer, so its log does
    not lose eps * n ln n to the cancellation of lgamma differences.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0 <= t0 <= t1 <= n:
        raise ValueError("need 0 <= t0 <= t1 <= n")
    if p in (0.0, 1.0):
        return float(t0 <= (0 if p == 0.0 else n) <= t1)
    log_p, log_q = math.log(p), math.log1p(-p)
    terms = []
    c = math.comb(n, t0)
    for j in range(t0, t1 + 1):
        terms.append(math.exp(math.log(c) + j * log_p + (n - j) * log_q))
        c = c * (n - j) // (j + 1)
    return math.fsum(terms)


def _poisson_pmf(j: int, mu: float) -> float:
    return math.exp(-mu + j * math.log(mu) - math.lgamma(j + 1))


def poisson_tv_distance(histogram: Mapping[int, int], mu: float) -> float:
    """Total variation distance between a count histogram and Poisson(mu).

    The histogram maps observed values, non-negative integers, to
    non-negative occurrence counts.  Poisson mass beyond the largest observed
    value is folded into the distance.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    if not histogram:
        raise ValueError("histogram must be non-empty")
    if not all(isinstance(j, (int, np.integer)) and j >= 0 for j in histogram):
        raise ValueError("histogram values must be non-negative integers")
    if not all(count >= 0 for count in histogram.values()):
        raise ValueError("histogram counts must be non-negative")
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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved for estimates at 0 or 1."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError("need 0 <= successes <= trials")
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = (_Z95 / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
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


@dataclass
class ThresholdScan:
    """Probe history of a bisection run, plus the located transition point."""

    rows: list[tuple[float, MonteCarloSummary]] = field(default_factory=list)
    p_half: float = math.nan


def chunked(chunk: Callable) -> Callable:
    """Give a trial function ``f(stream, **kw)`` its chunk form: ``chunk(seed,
    indices, **kw)`` returns f's results on ``derive_stream(seed, i)`` for
    each i of the index range ``indices``, in order, and ``map_trials`` runs
    a partial of f with keywords alone through it."""

    def mark(trial_fn: Callable) -> Callable:
        trial_fn.chunk = chunk
        return trial_fn

    return mark


def _per_trial(trial_fn, seed: int, indices: range) -> list:
    """Results of trials ``indices``, on one generator re-keyed per trial."""
    stream = None
    return [trial_fn(stream := derive_stream(seed, i, stream)) for i in indices]


def _runner(trial_fn) -> Callable[[int, range], list]:
    """(seed, indices) -> the results of those trials: through the chunk form
    of a partial's function (see ``chunked``), else one trial at a time."""
    if isinstance(trial_fn, partial) and not trial_fn.args and (
            chunk := getattr(trial_fn.func, "chunk", None)):
        return partial(chunk, **trial_fn.keywords)
    return partial(_per_trial, trial_fn)


def _run_pooled(run, seed: int, indices: range, workers: int) -> list:
    """``run``'s results of ``indices`` in order, run as ``min(len(indices),
    4 * workers)`` contiguous index ranges on a pool of ``workers`` processes,
    opened for this call and shut down before it returns."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run loads it

    n, n_chunks = len(indices), min(len(indices), 4 * workers)
    jobs = [indices[c * n // n_chunks:(c + 1) * n // n_chunks] for c in range(n_chunks)]
    # fork, so workers inherit the parent's cached tables (3.14 defaults to
    # forkserver); a forking pool starts all its processes at the first submit
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return [value for part in pool.map(partial(run, seed), jobs) for value in part]


def _usable_cpus() -> int:
    return len(getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0))


def map_trials(
    trial_fn: Callable[[np.random.Generator], object],
    trials: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Run ``trial_fn`` once per trial index and return results in index order.

    Each trial receives ``derive_stream(seed, index)``, one generator re-keyed
    per trial that a trial must not keep, so the output list is identical for
    any worker count.  A trial function with a chunk form (see ``chunked``)
    runs index ranges through it, with the same results.  The calling
    process runs trial 0, then ranges that double in length.  With
    ``workers > 1`` it prices the trials left at the time per trial since
    trial 0 (whose time includes any table build); once what a pool of
    ``w = min(workers, rest, usable CPUs)`` processes would save, ``rest * (1 - 1/w)``,
    exceeds ``_POOL_START_S``, the rest runs in contiguous index ranges on a
    pool of ``w`` processes, shut down before this returns.  The pool forks
    after trial 0, so its workers inherit the tables that trial built; the
    trial function must then be picklable (a top-level function or partial
    of one).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    run = _runner(trial_fn)
    results = run(seed, range(1))
    since = time.perf_counter()
    done = 1
    while done < trials:
        # priced only once the trials since trial 0 have run for a tenth of
        # the pool's cost, so a slow warm-up trial does not open a pool
        if workers > 1 and done >= 2 and (
                measured := time.perf_counter() - since) > _POOL_START_S / 10:
            rest = trials - done
            w = min(workers, rest, _usable_cpus())
            if rest * measured / (done - 1) * (1 - 1 / w) > _POOL_START_S:
                return results + _run_pooled(run, seed, range(done, trials), w)
        # one worker prices nothing, so it runs the rest as one range
        end = trials if workers == 1 else min(trials, 2 * done)
        results += run(seed, range(done, end))
        done = end
    return results


def run_trials(
    trial_fn: Callable[[np.random.Generator], object],
    trials: int,
    seed: int,
    workers: int = 1,
) -> MonteCarloSummary:
    """Estimate a success probability with a Wilson 95% interval; a trial
    succeeds when it returns true, or an ``(X, holds)`` pair with ``holds`` true."""
    results = map_trials(trial_fn, trials, seed, workers)
    successes = sum(1 for r in results if (r[1] if isinstance(r, tuple) else r))
    lo, hi = wilson_interval(successes, trials)
    return MonteCarloSummary(trials, successes, successes / trials, lo, hi)


def _probe_seed(seed: int, probe_index: int) -> int:
    # fresh sub-seed per probe: reusing trial streams across probes would
    # correlate the bracket decisions
    ss = np.random.SeedSequence(entropy=(int(seed), int(probe_index)))
    return int(ss.generate_state(1, np.uint64)[0])


def threshold_bisect(
    make_trial: Callable[[float], Callable[[np.random.Generator], object]],
    p_lo: float,
    p_hi: float,
    *,
    target: float = 0.5,
    trials_per_eval: int,
    tol: float,
    seed: int,
    workers: int = 1,
) -> ThresholdScan:
    """Locate the parameter where a monotone property crosses ``target``.

    ``make_trial(param)`` yields the trial function at one parameter value,
    scored as in ``run_trials``, whose success probability may rise or fall
    with it: the endpoints must straddle the target beyond their Wilson
    intervals, either way round, or a BracketError is raised.  Every probe
    gets a fresh sub-seed derived from ``(seed, probe_index)`` and runs as
    ``run_trials`` does, so with ``workers > 1`` a probe that opens a pool
    (see ``map_trials``) has it shut down before the next probe starts.
    """
    if not p_lo < p_hi:
        raise ValueError("need p_lo < p_hi")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not 0 < target < 1:
        raise ValueError("target must lie in (0, 1)")
    scan = ThresholdScan()

    def evaluate(param: float) -> MonteCarloSummary:
        probe_seed = _probe_seed(seed, len(scan.rows))
        summary = run_trials(make_trial(param), trials_per_eval, probe_seed, workers)
        scan.rows.append((param, summary))
        return summary

    s_lo, s_hi = evaluate(p_lo), evaluate(p_hi)
    rising = s_lo.ci_high < target < s_hi.ci_low
    if not (rising or s_lo.ci_low > target > s_hi.ci_high):
        raise BracketError(
            f"endpoint estimates do not straddle target={target}: "
            f"P({p_lo:g})={s_lo.estimate:.3f} "
            f"[{s_lo.ci_low:.3f},{s_lo.ci_high:.3f}], "
            f"P({p_hi:g})={s_hi.estimate:.3f} "
            f"[{s_hi.ci_low:.3f},{s_hi.ci_high:.3f}]"
        )

    lo, hi = p_lo, p_hi
    # a tol below the float spacing at the crossing ends on adjacent floats,
    # whose midpoint rounds onto one of them
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        est = evaluate(mid).estimate
        below = est < target
        if below == rising:
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
