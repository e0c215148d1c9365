#!/usr/bin/env python3
"""Permutation patterns: covering all of S_n with random members of S_{n+1}.

Starts from the exact combinatorial facts (every pattern has n^2 + 1 covers,
two patterns share at most 4), then runs the covering transition and prints
the packing-window bounds whose gap the sampling cannot close.

Run: python demos/pattern_covering.py
"""

from functools import partial
from itertools import permutations

import numpy as np

from threshold_lab.analysis import map_trials
from threshold_lab.perms import (
    _pattern_rows,
    cover_trial,
    covering_threshold_p,
    pack_trial,
    packing_threshold_bounds,
    verify_cover_counts,
    verify_joint_bounds,
)

SEED = 16180
TRIALS = 300


def section(title):
    print("\n" + "=" * 72)
    print(f"  {title}")
    print("=" * 72)


def exact_census():
    section("Exact cover census")
    for n, ok, worst, expected in verify_cover_counts(5):
        print(f"  n={n}: every pattern covered by exactly {expected} "
              f"larger permutations ({'ok' if ok else 'MISMATCH'})")
    for n, nb_ok, nb_max, joint_ok, joint_max in verify_joint_bounds(4):
        print(f"  n={n}: joint-cover neighborhood max {nb_max} (<= {n ** 3}), "
              f"shared covers max {joint_max} (<= 4)")
    # the rows of S_3 in lex order, each listing the lex ranks of its
    # deletions: 0 for (1,2), 1 for (2,1)
    rows = _pattern_rows(2, np.arange(6)).T
    deletions = dict(zip(permutations((1, 2, 3)), map(set, rows.tolist())))
    print(f"  the reversal pair at n=2 attains the shared-cover bound: "
          f"{[rho for rho, ranks in deletions.items() if {0, 1} <= ranks]}")
    print(f"  e.g. the covers of (1,2) = "
          f"{[rho for rho, ranks in deletions.items() if 0 in ranks]}")


def covering_transition():
    section("Covering transition at n=6")
    n = 6
    for lam in (1, 2):
        print(f"  lam={lam}:  {'r':>5} {'p':>8} {'P(X=0)':>8} {'mean X':>8}")
        for r in (-4.0, -1.0, 0.0, 1.0, 4.0):
            p = covering_threshold_p(n, lam, r)
            xs = map_trials(partial(cover_trial, n=n, lam=lam, p=p),
                            TRIALS, SEED + 10 * lam + int(r))
            p0 = np.mean([x == 0 for x, _ in xs])
            mx = np.mean([x for x, _ in xs])
            print(f"          {r:>5.1f} {p:>8.4f} {p0:>8.3f} {mx:>8.2f}")


def packing_window():
    section("Packing window (bounds differ by n^(2/(lam+1)))")
    n = 6
    for lam in (1, 2):
        lo, hi = packing_threshold_bounds(n, lam)
        print(f"  lam={lam}: window [{lo:.2e}, {hi:.2e}]")
        for p, label in ((lo / 5, "below"), (hi * 5, "above")):
            xs = map_trials(partial(pack_trial, n=n, lam=lam, p=p),
                            TRIALS, SEED + 100 * lam)
            p0 = np.mean([x == 0 for x, _ in xs])
            print(f"           P(no pattern covered > {lam} times) = {p0:.3f} "
                  f"at p {label} the window")


if __name__ == "__main__":
    exact_census()
    covering_transition()
    packing_window()
