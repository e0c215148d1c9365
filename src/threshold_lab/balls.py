"""Balls-in-boxes experiments: overfull-box counts and coverage waiting times.

The two classic regimes: how many balls fit before some box holds more than
``lam`` of them, and how long until every box holds at least ``lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import EULER_GAMMA, overfull_count
from .errors import check_budget
from .rng import throw_balls

__all__ = [
    "OccupancyState",
    "count_overfull",
    "packing_threshold_n",
    "waiting_time",
    "waiting_time_mean",
    "normalize_waiting_time",
    "overfull_trial",
    "waiting_trial",
]

# float64 Gamma(lam) draws resolve the excess N max G - sum G, of order
# N sqrt(lam), only while it stays far above their rounding, about N lam 2^-52;
# at lam = 2^32 the margin is 2^36, while near lam = 10^30 the excess is lost
# and every waiting time reads N lam exactly
MAX_WAITING_LAM = 1 << 32
# most Gamma draws a waiting time holds at once (64 KiB); any size gives the same bits
_GAMMA_LEAF = 8192


@dataclass
class OccupancyState:
    """Per-box ball counts after some number of throws."""

    counts: np.ndarray
    n_boxes: int
    balls_thrown: int

    @classmethod
    def from_throws(
        cls, n_balls: int, n_boxes: int, stream: np.random.Generator
    ) -> "OccupancyState":
        balls = throw_balls(n_balls, n_boxes, stream)
        return cls(np.bincount(balls, minlength=n_boxes), n_boxes, n_balls)


def count_overfull(state: OccupancyState, lam: int) -> int:
    """Number of boxes holding at least lam + 1 balls."""
    return overfull_count(state.counts, lam)


def packing_threshold_n(n_boxes: int, lam: int) -> float:
    """Ball count at which boxes start to overflow past lam: N^(lam/(lam+1))."""
    if n_boxes < 1 or lam < 1:
        raise ValueError("need n_boxes >= 1 and lam >= 1")
    return n_boxes ** (lam / (lam + 1))


def _gamma_max_sum(n: int, lam: int, stream: np.random.Generator) -> tuple[float, float]:
    """Max and sum of n Gamma(lam) draws taken a leaf of numpy's pairwise sum
    at a time: it halves a float64 run at n // 2 rounded down to a multiple
    of 8, left half first, so both equal those of the n drawn at once, bit for bit."""
    if n <= _GAMMA_LEAF:
        g = stream.standard_gamma(lam, size=n)
        return g.max(), g.sum()
    half = n // 2 - n // 2 % 8
    left_max, left_sum = _gamma_max_sum(half, lam, stream)
    right_max, right_sum = _gamma_max_sum(n - half, lam, stream)
    return max(left_max, right_max), left_sum + right_sum


def waiting_time(n_boxes: int, lam: int, stream: np.random.Generator) -> int:
    """Number of balls thrown until every box holds at least ``lam``.

    Sampled exactly in law by Poissonization (Holst 1986, *On birthday,
    collectors', occupancy and other classical urn problems*): give each box
    a unit-rate Poisson process of arrivals, so box i receives its lam-th
    ball at G_i ~ Gamma(lam), independently, and every box is covered at
    tau = max G_i.  Between G_i and tau box i receives Poisson(tau - G_i)
    more balls, independently given the G's (strong Markov property), so the
    throws made by tau number N lam + Poisson(N tau - sum G_i).  O(N) draws,
    however long the wait, held at most _GAMMA_LEAF at a time; the budget
    charges the 8 bytes a box that bound the work.
    """
    if n_boxes < 1 or not 1 <= lam <= MAX_WAITING_LAM:
        raise ValueError(f"need n_boxes >= 1 and 1 <= lam <= {MAX_WAITING_LAM}")
    check_budget(8 * n_boxes, f"{n_boxes} Gamma draws")
    top, total = _gamma_max_sum(n_boxes, lam, stream)
    return n_boxes * lam + int(stream.poisson(max(n_boxes * top - total, 0.0)))


def waiting_time_mean(n_boxes: int, lam: int) -> float:
    """Leading-order mean of the lam-coverage waiting time.

    N(ln N + (lam-1) ln ln N + gamma - ln (lam-1)!), valid as N grows; the
    omitted correction vanishes with N but is material at desk scale for
    lam >= 2.
    """
    if n_boxes < 3:
        raise ValueError("n_boxes must be at least 3 (ln ln N must be positive)")
    if lam < 1:
        raise ValueError("lam must be at least 1")
    n = float(n_boxes)
    return n * (
        math.log(n)
        + (lam - 1) * math.log(math.log(n))
        + EULER_GAMMA
        - math.lgamma(lam)  # ln (lam-1)!, overflow-free
    )


def normalize_waiting_time(t: float, n_boxes: int, lam: int) -> float:
    """Center and scale a waiting time onto the Gumbel limit axis:
    (t - waiting_time_mean) / N + gamma."""
    return (t - waiting_time_mean(n_boxes, lam)) / n_boxes + EULER_GAMMA


def overfull_trial(
    stream: np.random.Generator, n_boxes: int, lam: int, n_balls: int
) -> tuple[int, bool]:
    """One packing trial: (overfull-box count X, X == 0), from occupied boxes only."""
    # tracemalloc peaks near 41 B a ball, and a few KiB, when every ball has
    # a box of its own: the draws, their sorted copy, a mask and 24 B an
    # occupied box; fewer boxes trace less (18 B a ball over 10 boxes)
    check_budget(42 * n_balls, f"{n_balls} ball draws")
    _, loads = np.unique(throw_balls(n_balls, n_boxes, stream), return_counts=True)
    x = overfull_count(loads, lam)
    return x, x == 0


def waiting_trial(stream: np.random.Generator, n_boxes: int, lam: int) -> int:
    """One coverage trial: the waiting time T."""
    return waiting_time(n_boxes, lam, stream)
