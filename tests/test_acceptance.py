"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exact enumerations carry zero tolerance; Monte Carlo transitions use the
stated loose tolerances.  Criteria 6 and 7 are implemented exactly as
stated and are expected to fail at these parameters: the asymptotic
waiting-time formula has a finite-size correction of order
ln ln ln N / ln ln N per extra coverage level, which at N = 10^4 exceeds
the stated tolerances (see tests in test_balls.py verifying the simulator
against the exact Poissonized mean).
"""

import math
import subprocess
import sys
import time
from functools import partial
from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest

from oracles import determining_pairs, joint_covers
from threshold_lab.analysis import (
    gumbel_sup_distance,
    loglog_slope,
    map_trials,
    poisson_tv_distance,
    run_trials,
    threshold_bisect,
)
from threshold_lab.balls import (
    normalize_waiting_time,
    overfull_trial,
    waiting_time_mean,
    waiting_trial,
)
from threshold_lab.designs import (
    DesignParams,
    covering_threshold_p,
    deficiency_trial,
    expected_deficient,
)
from threshold_lab.perms import (
    cover_trial,
    covering_threshold_p as perm_covering_threshold_p,
    verify_cover_counts,
    verify_joint_bounds,
)
from threshold_lab.rng import derive_stream
from threshold_lab.sidon import bh_g_trial, count_equal_sum_tuples, truncated_basis_trial
from threshold_lab.unionfree import (
    count_union_collisions,
    union_collision_trial,
    union_obstacle_bruteforce,
    union_obstacle_count,
    wuf_threshold_p,
)


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def waiting_times():
    """2000 coverage waiting times at N = 1e4 for lam in {1, 2, 3}."""
    out = {}
    for lam in (1, 2, 3):
        fn = partial(waiting_trial, n_boxes=10**4, lam=lam)
        out[lam] = np.array(map_trials(fn, 2000, seed=61000 + lam), dtype=np.int64)
    return out


@pytest.fixture(scope="session")
def design_runs():
    """2000 deficiency counts at (n=14, k=4, t=2) per (lam, r) config."""
    out = {}
    for lam in (1, 2):
        for r in (-6.0, 0.0, 6.0):
            params = DesignParams(14, 4, 2, lam)
            p = covering_threshold_p(params, r)
            fn = partial(deficiency_trial, params=params, p=p)
            xs = map_trials(fn, 2000, seed=62000 + 10 * lam + int(r))
            out[(lam, r)] = np.array([x for x, _ in xs], dtype=np.int64)
    return out


# ---------------------------------------------------------------- criteria


def test_c01_cover_count_exact():
    t0 = time.monotonic()
    rows = verify_cover_counts(6)
    elapsed = time.monotonic() - t0
    ok = all(passed for _, passed, _, _ in rows) and elapsed < 60
    detail = f"|covers| = n^2+1 for all patterns, n <= 6; {elapsed:.1f}s"
    line = _report(1, "cover-count census", ok, detail)
    assert ok, line


def test_c02_joint_cover_bounds_exact():
    t0 = time.monotonic()
    rows = verify_joint_bounds(5)
    attained = len(joint_covers((1, 2), (2, 1)))
    elapsed = time.monotonic() - t0
    ok = (
        all(nb and joint for _, nb, _, joint, _ in rows)
        and attained == 4
        and elapsed < 120
    )
    detail = f"neighborhood <= n^3 and joint covers <= 4 for n <= 5, pair (12),(21) attains {attained}; {elapsed:.1f}s"
    line = _report(2, "joint-coverability census", ok, detail)
    assert ok, line


def test_c03_determining_pair_counts():
    worst = None
    for k in range(1, 13):
        got = len(determining_pairs((1 << k) - 1))
        want = (3**k - 3) // 2
        if got != want:
            worst = (k, got, want)
    ok = worst is None
    line = _report(3, "determining-map pair census", ok, f"(3^k-3)/2 for k <= 12, mismatch={worst}")
    assert ok, line


def test_c04_obstacle_count_formula():
    v3 = union_obstacle_count(3)
    ratio = union_obstacle_count(20) / (10.0**20 / 8)
    ok = v3 == 66 and 0.9 <= ratio <= 1.0
    line = _report(4, "obstacle census formula", ok, f"count(3)={v3}, ratio(20)={ratio:.6f}")
    assert ok, line


def test_c05_collision_count_equals_bruteforce():
    rng = derive_stream(63001, 0)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        size = int(rng.integers(0, 9))
        size = min(size, 1 << n)
        masks = rng.choice(1 << n, size=size, replace=False).tolist()
        fast = count_union_collisions(masks)
        pairs = list(combinations(masks, 2))
        brute = 0
        for (a, b), (c, d) in combinations(pairs, 2):
            if (a | b) == (c | d) and len({a, b, c, d}) == 4:
                brute += 1
        mismatches += fast != brute
    ok = mismatches == 0
    line = _report(5, "collision fast path vs quadruple loop", ok, f"{mismatches} mismatches over 10^4 families")
    assert ok, line


def test_c06_coverage_waiting_mean(waiting_times):
    t0 = time.monotonic()
    n = 10**4
    rel = {}
    for lam in (1, 2, 3):
        predicted = waiting_time_mean(n, lam)
        rel[lam] = abs(waiting_times[lam].mean() - predicted) / predicted
    gap = waiting_times[2].mean() - waiting_times[1].mean()
    gap_target = n * math.log(math.log(n))
    gap_rel = abs(gap - gap_target) / gap_target
    elapsed = time.monotonic() - t0
    ok = all(r <= 0.02 for r in rel.values()) and gap_rel <= 0.10 and elapsed < 600
    detail = (
        f"mean rel err lam1={rel[1]:.4f} lam2={rel[2]:.4f} lam3={rel[3]:.4f} (tol 0.02), "
        f"lam2-lam1 gap rel err {gap_rel:.4f} (tol 0.10)"
    )
    line = _report(6, "coverage waiting-time mean", ok, detail)
    assert ok, (
        line
        + " -- the leading-order mean formula omits a correction of order "
        "N ln ln ln N / ln ln N per extra coverage level; at N=1e4 the exact "
        "means (Poissonization integral) are 123760 (lam=2) and 145826 (lam=3) "
        "vs formula values 120079 and 135351, so the stated tolerances are "
        "unattainable at this N. The simulator itself matches the exact means "
        "(see test_balls.py)."
    )


def test_c07_gumbel_limit(waiting_times):
    n, lam = 10**4, 2
    xs = [normalize_waiting_time(t, n, lam) for t in waiting_times[lam]]
    stat = gumbel_sup_distance(xs)
    ok = stat <= 0.05
    line = _report(7, "normalized waiting-time limit law", ok, f"sup-CDF distance {stat:.4f} (tol 0.05)")
    assert ok, (
        line
        + " -- the distribution converges at an iterated-log rate; at N=1e4 the "
        "systematic location offset (~0.37 on the normalized axis) alone "
        "produces a sup distance near 0.12, so the 0.05 tolerance is "
        "unattainable at this N."
    )


def test_c08_overfull_transition():
    n_boxes = 10**6
    low = run_trials(
        partial(lambda s, **kw: overfull_trial(s, **kw)[1], n_boxes=n_boxes, lam=1, n_balls=100),
        2000,
        seed=64001,
    )
    high = run_trials(
        partial(lambda s, **kw: overfull_trial(s, **kw)[1], n_boxes=n_boxes, lam=1, n_balls=10_000),
        2000,
        seed=64002,
    )
    ok = low.estimate >= 0.95 and high.estimate <= 0.05
    detail = f"P(X=0)={low.estimate:.3f} at n=0.1*sqrt(N) (>=0.95), {high.estimate:.3f} at n=10*sqrt(N) (<=0.05)"
    line = _report(8, "overfull-box transition", ok, detail)
    assert ok, line


def test_c09_deficiency_expectation():
    params = DesignParams(12, 4, 2, 2)
    p = 0.1
    xs = np.array(
        [x for x, _ in map_trials(partial(deficiency_trial, params=params, p=p), 10_000, seed=65001)],
        dtype=np.int64,
    )
    exact = expected_deficient(params, p)
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    ok = abs(xs.mean() - exact) <= 3 * se
    detail = f"MC mean {xs.mean():.4f} vs exact {exact:.4f}, 3SE={3 * se:.4f}"
    line = _report(9, "deficiency expectation", ok, detail)
    assert ok, line


def test_c10_covering_transition(design_runs):
    results = {}
    ok = True
    for lam in (1, 2):
        up = float((design_runs[(lam, 6.0)] == 0).mean())
        down = float((design_runs[(lam, -6.0)] == 0).mean())
        results[lam] = (up, down)
        ok = ok and up >= 0.85 and down <= 0.15
    detail = ", ".join(
        f"lam={lam}: P(X=0)={u:.3f} at r=+6 (>=0.85), {d:.3f} at r=-6 (<=0.15)"
        for lam, (u, d) in results.items()
    )
    line = _report(10, "covering transition", ok, detail)
    assert ok, line


def test_c11_poisson_diagnostic(design_runs):
    ok = True
    details = []
    for lam in (1, 2):
        params = DesignParams(14, 4, 2, lam)
        mu = expected_deficient(params, covering_threshold_p(params, 0.0))
        xs = design_runs[(lam, 0.0)]
        hist = {int(j): int(c) for j, c in enumerate(np.bincount(xs))}
        tv = poisson_tv_distance(hist, mu)
        details.append(f"lam={lam}: TV={tv:.4f}")
        ok = ok and tv <= 0.15
    line = _report(11, "deficiency-count Poisson diagnostic", ok, ", ".join(details) + " (tol 0.15)")
    assert ok, line


def test_c12_tuple_system_growth():
    t0 = time.monotonic()
    census = {n: count_equal_sum_tuples(n, 2, 1) for n in (10, 20, 40)}
    slopes = {l: loglog_slope([(n, census[n][l]) for n in census]) for l in (3, 4)}
    elapsed = time.monotonic() - t0
    ok = all(abs(slopes[l] - (l - 1)) <= 0.3 for l in (3, 4)) and elapsed < 300
    detail = f"slope(l=3)={slopes[3]:.3f} (target 2), slope(l=4)={slopes[4]:.3f} (target 3), tol 0.3; {elapsed:.1f}s"
    line = _report(12, "equal-sum tuple growth", ok, detail)
    assert ok, line


def test_c13_bounded_multiplicity_transition():
    n = 10**4
    scale = n**0.25
    low = run_trials(
        partial(lambda s, **kw: bh_g_trial(s, **kw)[1], n=n, h=2, g=1, p=0.2 * scale / n),
        2000,
        seed=66001,
    )
    high = run_trials(
        partial(lambda s, **kw: bh_g_trial(s, **kw)[1], n=n, h=2, g=1, p=5 * scale / n),
        2000,
        seed=66002,
    )
    ok = low.estimate >= 0.9 and high.estimate <= 0.1
    detail = f"P={low.estimate:.3f} at k=0.2 n^(1/4) (>=0.9), {high.estimate:.3f} at k=5 n^(1/4) (<=0.1)"
    line = _report(13, "bounded-multiplicity transition", ok, detail)
    assert ok, line


def test_c14_truncated_basis_limit():
    n, h, g, alpha = 10**4, 2, 2, 0.5
    p = math.sqrt(((2 / alpha) * math.log(n) + (g - 2) * (2 / alpha) * math.log(math.log(n))) / n)
    s = run_trials(
        partial(lambda st, **kw: truncated_basis_trial(st, **kw)[1], n=n, h=h, g=g, alpha=alpha, p=p),
        2000,
        seed=67001,
    )
    target = math.exp(-2 * alpha * math.exp(0.0))
    ok = abs(s.estimate - target) <= 0.15
    detail = f"P={s.estimate:.4f} vs limit {target:.4f}, tol 0.15"
    line = _report(14, "truncated-basis limit probability", ok, detail)
    assert ok, line


def test_c15_pattern_covering_transition():
    t0 = time.monotonic()
    n = 7
    ok = True
    details = []
    for lam in (1, 2):
        ups, downs = [], []
        for r, sink in ((5.0, ups), (-5.0, downs)):
            p = perm_covering_threshold_p(n, lam, r)
            s = run_trials(
                partial(lambda st, **kw: cover_trial(st, **kw)[1], n=n, lam=lam, p=p),
                500,
                seed=68000 + 10 * lam + int(r),
            )
            sink.append(s.estimate)
        details.append(f"lam={lam}: P(X=0)={ups[0]:.3f} at r=+5, {downs[0]:.3f} at r=-5")
        ok = ok and ups[0] >= 0.8 and downs[0] <= 0.2
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 900
    line = _report(15, "pattern covering transition", ok, ", ".join(details) + f"; {elapsed:.1f}s")
    assert ok, line


def test_c16_union_free_transition():
    n = 14
    base = wuf_threshold_p(n)
    low = run_trials(
        partial(lambda s, **kw: union_collision_trial(s, **kw)[1], n=n, p=0.1 * base),
        1000,
        seed=69001,
    )
    high = run_trials(
        partial(lambda s, **kw: union_collision_trial(s, **kw)[1], n=n, p=10 * base),
        1000,
        seed=69002,
    )
    scan = threshold_bisect(
        lambda p: partial(lambda s, **kw: union_collision_trial(s, **kw)[1], n=12, p=p),
        1e-4,
        1e-2,
        trials_per_eval=500,
        tol=2.5e-4,
        seed=69003,
    )
    factor = scan.p_half / wuf_threshold_p(12)
    ok = low.estimate >= 0.9 and high.estimate <= 0.1 and 1 / 3 <= factor <= 3
    detail = (
        f"P(X=0)={low.estimate:.3f} at p/10 (>=0.9), {high.estimate:.3f} at 10p (<=0.1); "
        f"bisected p_half={scan.p_half:.2e} is {factor:.2f}x the curve value at n=12 (within 3x)"
    )
    line = _report(16, "union-free transition", ok, detail)
    assert ok, line


# determinism is exercised per experiment family through the CLI; trial
# counts are reduced where a family is expensive since per-trial streams
# make the property scale-free
_DETERMINISM_CASES = [
    ("balls-waiting", "balls --boxes 10000 --lambda 2 --waiting --trials 200 --seed 17"),
    ("balls-overfull", "balls --boxes 1000000 --lambda 1 --balls 10000 --trials 200 --seed 18"),
    ("design-cover", "design --n 14 --k 4 --t 2 --lambda 2 --mode cover --r 0 --trials 400 --seed 19"),
    ("design-pack", "design --n 14 --k 4 --t 2 --lambda 1 --mode pack --p 0.002 --trials 400 --seed 20"),
    ("sidon-check", "sidon check --n 10000 --h 2 --g 1 --k 50 --trials 400 --seed 21"),
    ("sidon-basis", "sidon basis --n 10000 --h 2 --g 2 --alpha 0.5 --A 0 --trials 150 --seed 22"),
    ("perm-cover", "perm cover --n 7 --lambda 2 --r -5 --trials 100 --seed 23"),
    ("perm-pack", "perm pack --n 6 --lambda 1 --p 0.002 --trials 100 --seed 24"),
    ("unionfree", "unionfree --n 14 --p 0.0031622776601683794 --trials 1000 --seed 25"),
    ("scan", "scan --experiment unionfree --n 12 --lo 0.0001 --hi 0.01 --tol 0.002 --trials-per-eval 100 --seed 26"),
]


def test_c17_worker_independent_output(tmp_path):
    diffs = []
    for name, args in _DETERMINISM_CASES:
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"{name}-{workers}.csv"
            cmd = (
                [sys.executable, "-m", "threshold_lab"]
                + args.split()
                + ["--workers", str(workers), "--out", str(out)]
            )
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            diffs.append(name)
    ok = not diffs
    line = _report(17, "worker-count determinism", ok, f"{len(_DETERMINISM_CASES)} experiment families, diffs={diffs}")
    assert ok, line
