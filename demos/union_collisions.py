#!/usr/bin/env python3
"""Weak union-freeness: packing set unions until one repeats.

Counts the obstacle configurations exactly and by closed form, watches the
collision count cross its threshold as the selection probability passes
10^(-n/4), and bisects for the empirical half-way point.

Run: python demos/union_collisions.py
"""

from functools import partial

import numpy as np

from threshold_lab.analysis import map_trials, threshold_bisect
from threshold_lab.unionfree import (
    janson_delta_bound,
    union_collision_trial,
    union_obstacle_bruteforce,
    union_obstacle_count,
    wuf_threshold_p,
)

SEED = 14142
TRIALS = 500


def section(title):
    print("\n" + "=" * 72)
    print(f"  {title}")
    print("=" * 72)


def obstacle_census():
    section("Obstacle census: exhaustive vs closed form")
    print(f"  {'n':>3} {'exhaustive':>11} {'formula':>11} {'exhaustive / (10^n / 8)':>24}")
    for n in range(2, 9):
        census = union_obstacle_bruteforce(n)
        print(f"  {n:>3} {census:>11} {union_obstacle_count(n):>11} "
              f"{census / (10.0**n / 8):>24.3f}")
    print("  The formula leaves out the pairs that hold the empty set, so at n=2")
    print("  it undercounts; from n=3 on it admits pairings that reuse a set and")
    print("  overcounts.  Both gaps wash out in the exponent:")
    for n in (8, 14, 20):
        ratio = union_obstacle_count(n) / (10.0**n / 8)
        print(f"    n={n}: formula / (10^n / 8) = {ratio:.6f}")
    k = 4
    print(f"  determining maps on a {k}-set give {(3 ** k - 3) // 2} union decompositions")


def threshold_walk():
    section("Collision transition at n=12")
    n = 12
    base = wuf_threshold_p(n)
    print(f"  threshold scale 10^(-n/4) = {base:.2e}")
    print(f"  {'p/scale':>8} {'P(X=0)':>8} {'mean X':>9} {'overlap bound':>14}")
    for mult in (0.1, 0.5, 1.0, 2.0, 5.0):
        p = mult * base
        xs = map_trials(partial(union_collision_trial, n=n, p=p), TRIALS,
                        SEED + int(10 * mult))
        p0 = np.mean([x == 0 for x, _ in xs])
        mx = np.mean([x for x, _ in xs])
        print(f"  {mult:>8.1f} {p0:>8.3f} {mx:>9.3f} {janson_delta_bound(n, p):>14.2e}")


def locate_transition():
    section("Bisecting for the half-way point")
    n = 12

    def make_trial(p):
        return partial(union_collision_trial, n=n, p=p)

    scan = threshold_bisect(make_trial, 1e-4, 1e-2, trials_per_eval=300,
                            tol=2.5e-4, seed=SEED)
    base = wuf_threshold_p(n)
    print(f"  p_half = {scan.p_half:.2e} after {len(scan.rows)} probes; "
          f"{scan.p_half / base:.2f}x the threshold scale")


if __name__ == "__main__":
    obstacle_census()
    threshold_walk()
    locate_transition()
