#!/usr/bin/env python3
"""Random k-subset families: when is every t-subset covered lam times?

Walks the covering threshold curve at (n=14, k=4, t=2), compares the exact
deficiency expectation with simulation, checks the Poisson shape of the
deficiency count at the threshold, and bisects for the transition point.

Run: python demos/design_coverage.py
"""

import math
from functools import partial

import numpy as np

from threshold_lab.analysis import (
    map_trials,
    poisson_tv_distance,
    run_trials,
    threshold_bisect,
)
from threshold_lab.designs import (
    DesignParams,
    covering_threshold_p,
    deficiency_trial,
    expected_deficient,
    packing_threshold_p,
)

SEED = 31415
TRIALS = 600


def section(title):
    print("\n" + "=" * 72)
    print(f"  {title}")
    print("=" * 72)


def walk_the_curve():
    section("Covering transition at (n=14, k=4, t=2)")
    for lam in (1, 2):
        params = DesignParams(14, 4, 2, lam)
        print(f"  lam={lam}:  {'r':>5} {'p':>8} {'E(X)':>8} {'P(X=0)':>8}")
        for r in (-6.0, -2.0, 0.0, 2.0, 6.0):
            p = covering_threshold_p(params, r)
            mu = expected_deficient(params, p)
            xs = map_trials(partial(deficiency_trial, params=params, p=p),
                            TRIALS, SEED + 10 * lam + int(r))
            p0 = np.mean([x == 0 for x, _ in xs])
            print(f"          {r:>5.1f} {p:>8.4f} {mu:>8.3f} {p0:>8.3f}")
    print("  The extra ln ln term for lam=2 shifts the curve; the success")
    print("  probability tracks exp(-E(X)) throughout.")


def poisson_shape():
    section("Deficiency count vs Poisson at the threshold")
    for lam in (1, 2):
        params = DesignParams(14, 4, 2, lam)
        p = covering_threshold_p(params, 0.0)
        mu = expected_deficient(params, p)
        xs = np.array([x for x, _ in map_trials(
            partial(deficiency_trial, params=params, p=p), 2000, SEED + lam)])
        hist = {int(j): int(c) for j, c in enumerate(np.bincount(xs))}
        tv = poisson_tv_distance(hist, mu)
        print(f"  lam={lam}: mean X={xs.mean():.3f}, exact E(X)={mu:.3f}, "
              f"TV from Poisson(E(X))={tv:.4f}")


def locate_transition():
    section("Bisecting for the half-way point (lam=1)")
    params = DesignParams(14, 4, 2, 1)

    def make_trial(p):
        return partial(deficiency_trial, params=params, p=p)

    scan = threshold_bisect(make_trial, 0.02, 0.30, trials_per_eval=300,
                            tol=2e-3, seed=SEED)
    predicted = covering_threshold_p(params, 0.0)
    print(f"  bisected p_half = {scan.p_half:.4f} after {len(scan.rows)} probes")
    print(f"  curve value at r=0: {predicted:.4f} "
          f"(ratio {scan.p_half / predicted:.2f})")
    print(f"  packing threshold scale for contrast: {packing_threshold_p(params):.2e}")


if __name__ == "__main__":
    walk_the_curve()
    poisson_shape()
    locate_transition()
