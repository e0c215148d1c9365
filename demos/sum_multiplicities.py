#!/usr/bin/env python3
"""Integer sets under h-fold sums: few repeats vs full coverage.

The same random set is judged from both directions: does any value get
represented more than g times (bounded multiplicity), and does every value
in the target window get represented at least g times (truncated basis)?
Also verifies the polynomial growth of the equal-sum tuple census that
controls the first property.

Run: python demos/sum_multiplicities.py
"""

import math
from functools import partial

import numpy as np

from threshold_lab.analysis import loglog_slope, map_trials, run_trials
from threshold_lab.sidon import (
    basis_threshold_p,
    bh_g_trial,
    count_equal_sum_tuples,
    sidon_threshold_k,
    truncated_basis_trial,
)

SEED = 27182
TRIALS = 500


def section(title):
    print("\n" + "=" * 72)
    print(f"  {title}")
    print("=" * 72)


def bounded_multiplicity_transition():
    section("Bounded multiplicity under Bernoulli membership (h=2, g=1)")
    n = 10_000
    scale = sidon_threshold_k(n, 2, 1)
    print(f"  cardinality scale n^(1/4) = {scale:.2f}")
    print(f"  {'k':>8} {'P(all sums distinct)':>22}")
    for mult in (0.2, 0.7, 1.5, 3.0, 5.0):
        k = mult * scale
        s = run_trials(partial(bh_g_trial, n=n, h=2, g=1, p=k / n),
                       TRIALS, SEED + int(10 * mult))
        print(f"  {k:>8.1f} {s.estimate:>22.3f}")


def tuple_census_growth():
    section("Equal-sum tuple census grows polynomially")
    census = {n: count_equal_sum_tuples(n, 2, 1) for n in (10, 20, 40, 80)}
    for l in (3, 4):
        pts = [(n, census[n][l]) for n in census]
        slope = loglog_slope(pts)
        counts = ", ".join(f"n={n}: {c}" for n, c in pts)
        print(f"  l={l} distinct symbols: {counts}")
        print(f"           log-log slope {slope:.3f} (distinct symbols minus one)")


def truncated_basis_limit():
    section("Truncated-basis probability at the threshold (h=2, alpha=1/2)")
    n, alpha = 10_000, 0.5
    for g in (1, 2):
        p = basis_threshold_p(n, 2, g, alpha, 0.0)
        s = run_trials(partial(truncated_basis_trial, n=n, h=2, g=g, alpha=alpha, p=p),
                       TRIALS, SEED + 100 + g)
        limit = math.exp(-2 * alpha * math.exp(0.0))
        print(f"  g={g}: p={p:.4f}, empirical P={s.estimate:.3f}, "
              f"limit value at offset 0 = {limit:.3f}")
    print("  Moving the additive offset A through the curve sweeps the")
    print("  probability between 0 and 1; at A=0 it sits near e^-1.")


if __name__ == "__main__":
    bounded_multiplicity_transition()
    tuple_census_growth()
    truncated_basis_limit()
