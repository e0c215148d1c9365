"""Representation counting for h-fold sums over integer sets.

Core objects: the table counting, for each value s, the nondecreasing
h-tuples of set elements summing to s; the bounded-multiplicity predicate
(every sum represented at most g times); the truncated-basis predicate
(every target-window sum represented at least g times); and the exhaustive
counter of equal-sum tuple systems that drives growth-rate checks.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations, combinations_with_replacement
from math import comb, factorial

import numpy as np

from .errors import BudgetExceededError
from .rng import bernoulli_ranks, sample_uniform_subset

__all__ = [
    "representation_counts",
    "is_bh_g",
    "is_truncated_basis",
    "count_equal_sum_tuples",
    "sidon_threshold_k",
    "basis_threshold_p",
    "bh_g_trial",
    "bh_g_trial_uniform",
    "truncated_basis_trial",
]

# budget for the exhaustive equal-sum tuple enumeration
_MAX_TUPLES = 2_000_000
_MAX_COMBOS = 30_000_000

# pairwise-sum tables are built in row blocks to bound the outer-product size
_PAIR_BLOCK = 256


def _as_element_array(elements) -> np.ndarray:
    arr = np.asarray(sorted(int(e) for e in elements), dtype=np.int64)
    if len(arr) and arr[0] < 0:
        raise ValueError("elements must be non-negative")
    if len(np.unique(arr)) != len(arr):
        raise ValueError("elements must be distinct")
    return arr


def representation_counts(elements, h: int) -> np.ndarray:
    """Count nondecreasing h-tuples of elements by their sum.

    Returns a dense array ``counts`` with ``counts[s]`` the number of
    multisets of size h drawn from ``elements`` summing to s, for
    s in [0, h * max(elements)].  Totals over all s equal
    C(len(elements) + h - 1, h).
    """
    if h < 2:
        raise ValueError("h must be at least 2")
    els = _as_element_array(elements)
    if len(els) == 0:
        return np.zeros(1, dtype=np.int64)
    top = int(els[-1]) * h
    if h == 2:
        # ordered pair sums plus the diagonal, halved, give multiset counts
        ordered = np.zeros(top + 1, dtype=np.int64)
        for a in range(0, len(els), _PAIR_BLOCK):
            block = els[a : a + _PAIR_BLOCK]
            sums = (block[:, None] + els[None, :]).ravel()
            ordered += np.bincount(sums, minlength=top + 1)
        diagonal = np.bincount(2 * els, minlength=top + 1)
        return (ordered + diagonal) // 2
    # complete-knapsack recurrence over elements; exact integer counts
    table = np.zeros((h + 1, top + 1), dtype=np.int64)
    table[0, 0] = 1
    for a in els.tolist():
        for j in range(1, h + 1):
            if a == 0:
                table[j, :] += table[j - 1, :]
            else:
                table[j, a:] += table[j - 1, : top + 1 - a]
    return table[h]


def is_bh_g(elements, h: int, g: int) -> bool:
    """True when every sum value has at most g nondecreasing h-representations."""
    if g < 1:
        raise ValueError("g must be at least 1")
    counts = representation_counts(elements, h)
    return int(counts.max()) <= g


def is_truncated_basis(
    elements, n: int, h: int, g: int, alpha: float
) -> bool:
    """True when every integer in [alpha*n, (h-alpha)*n] has at least g
    nondecreasing h-representations over ``elements``.

    Window endpoints are rounded inward (ceil low, floor high).
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if g < 1:
        raise ValueError("g must be at least 1")
    lo = math.ceil(alpha * n)
    hi = math.floor((h - alpha) * n)
    if lo > hi:
        return True
    counts = representation_counts(elements, h)
    if hi >= len(counts):
        return False  # sums beyond the table have zero representations
    return int(counts[lo : hi + 1].min()) >= g


def count_equal_sum_tuples(n: int, h: int, g: int, l: int) -> int:
    """Exhaustively count (g+1)-tuples of nondecreasing h-tuples over [n]
    that are strictly increasing lexicographically, share one common sum,
    and use exactly l distinct values.

    Counts are 0 outside l in [g+1, h(g+1)]; in particular l <= g is an
    overdetermined system and contributes nothing.  Raises
    BudgetExceededError when the enumeration would exceed the fixed budget
    (for h=2, g=1 this admits n well past 60; larger h, g shrink the range).
    """
    if h < 2 or g < 1 or n < 1:
        raise ValueError("need h >= 2, g >= 1, n >= 1")
    if l > h * (g + 1) or l < 1:
        return 0
    n_tuples = comb(n + h - 1, h)
    if n_tuples > _MAX_TUPLES:
        raise BudgetExceededError(
            f"{n_tuples} nondecreasing tuples exceed the enumeration budget"
        )
    by_sum: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for tup in combinations_with_replacement(range(1, n + 1), h):
        by_sum[sum(tup)].append(tup)
    work = sum(comb(len(v), g + 1) for v in by_sum.values())
    if work > _MAX_COMBOS:
        raise BudgetExceededError(
            f"{work} candidate tuple systems exceed the enumeration budget"
        )
    total = 0
    for tuples in by_sum.values():
        if len(tuples) < g + 1:
            continue
        # combinations of a lex-sorted list are lexicographically increasing
        for combo in combinations(tuples, g + 1):
            symbols = set()
            for tup in combo:
                symbols.update(tup)
            if len(symbols) == l:
                total += 1
    return total


def sidon_threshold_k(n: int, h: int, g: int) -> float:
    """Cardinality scale where the bounded-multiplicity property transitions:
    n^(g / (h(g+1)))."""
    if h < 2 or g < 1:
        raise ValueError("need h >= 2 and g >= 1")
    return n ** (g / (h * (g + 1)))


def basis_threshold_p(n: int, h: int, g: int, alpha: float, a_shift: float) -> float:
    """Selection probability on the truncated-basis threshold curve.

    For g = 1 (any h >= 2):  ((K ln n - K ln ln n + a) / n^(h-1))^(1/h)
    with K = h! (h-1)! / alpha^(h-1).  For h = 2 (any g >= 1):
    sqrt(((2/alpha) ln n + (g-2)(2/alpha) ln ln n + a) / n).  The two forms
    agree at (h, g) = (2, 1); other (h, g) pairs are not supported.
    Logarithms are natural.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if n < 3:
        raise ValueError("n must be at least 3 (ln ln n must be defined)")
    log_n = math.log(n)
    loglog_n = math.log(log_n)
    if g == 1:
        if h < 2:
            raise ValueError("h must be at least 2")
        k_const = factorial(h) * factorial(h - 1) / alpha ** (h - 1)
        radicand = (k_const * log_n - k_const * loglog_n + a_shift) / n ** (h - 1)
    elif h == 2:
        radicand = (
            (2 / alpha) * log_n + (g - 2) * (2 / alpha) * loglog_n + a_shift
        ) / n
    else:
        raise ValueError(f"unsupported (h, g) = ({h}, {g}): need g = 1 or h = 2")
    if not 0.0 <= radicand <= 1.0:
        raise ValueError(f"radicand {radicand:.6g} falls outside [0, 1]")
    return radicand ** (1.0 / h)


def _max_multiplicity(elements, h: int) -> int:
    """``representation_counts(elements, h).max()``, from the C(k + h - 1, h)
    tuple sums directly when they are no more than the table's h * max + 1 bins."""
    if h < 2:
        raise ValueError("h must be at least 2")
    els = _as_element_array(elements)
    k = len(els)
    if k == 0:
        return 0
    if comb(k + h - 1, h) > h * int(els[-1]) + 1:
        return int(representation_counts(els, h).max())
    # extend each nondecreasing index tuple by every index at or above its last
    sums, last = els, np.arange(k)
    for _ in range(h - 1):
        width = k - last
        step = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        last = np.repeat(last, width) + step
        sums = np.repeat(sums, width) + els[last]
    return int(np.unique(sums, return_counts=True)[1].max())


def bh_g_trial(
    stream: np.random.Generator, n: int, h: int, g: int, p: float
) -> tuple[int, bool]:
    """One Bernoulli-membership trial over [n]: (max representation count, holds)."""
    top = _max_multiplicity(bernoulli_ranks(n, p, stream) + 1, h)
    return top, top <= g


def bh_g_trial_uniform(
    stream: np.random.Generator, n: int, h: int, g: int, k: int
) -> tuple[int, bool]:
    """One fixed-cardinality trial: a uniform k-subset of [n]."""
    top = _max_multiplicity(sample_uniform_subset(n, k, stream) + 1, h)
    return top, top <= g


def truncated_basis_trial(
    stream: np.random.Generator, n: int, h: int, g: int, alpha: float, p: float
) -> tuple[int, bool]:
    """One Bernoulli trial over {0} u [n]: (max count in window, basis holds)."""
    elements = bernoulli_ranks(n + 1, p, stream)
    lo = math.ceil(alpha * n)
    hi = math.floor((h - alpha) * n)
    counts = representation_counts(elements, h) if len(elements) else np.zeros(1, np.int64)
    window = counts[lo : hi + 1]
    top = int(window.max()) if len(window) else 0
    holds = len(window) == (hi - lo + 1) and int(window.min()) >= g
    return top, holds
