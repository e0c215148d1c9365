"""Union-collision detection over random subfamilies of a power set.

A family of subsets of [n] is weakly union-free when no four distinct
members A, B, C, D satisfy A u B = C u D.  Collisions are counted as
unordered pairs of disjoint member-pairs sharing a union.  The obstacle
census (how many such configurations the full power set admits) has a
closed-form overcount via determining maps, checked here against an
exhaustive oracle at small n.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .errors import BudgetExceededError, check_budget
from .rng import bernoulli_ranks

__all__ = [
    "determining_pairs",
    "count_union_collisions",
    "union_obstacle_count",
    "union_obstacle_bruteforce",
    "janson_delta_bound",
    "wuf_threshold_p",
    "union_collision_trial",
]

_MAX_GROUND = 24          # a p > 1/2 selection draws its O(2^n) complement ranks
_MAX_DETERMINING_K = 13   # 3^k map enumeration
_MAX_BRUTE_N = 4          # exhaustive obstacle census
# bytes per union-matrix cell live at once while counting: at most three
# int64 arrays (the matrix, a sorted copy or run bounds, run lengths) and a mask
_PAIR_TABLE_BYTES = 3 * 8 + 1


def determining_pairs(u_mask: int) -> list[tuple[int, int]]:
    """All unordered pairs {R, S} with R u S = U, from maps U -> {0, 1, 2}.

    Each element of U lands in R only, S only, or both; non-constant maps
    modulo the R/S swap give (3^k - 3) / 2 distinct pairs for |U| = k.
    Pairs come back as (smaller mask, larger mask).
    """
    if u_mask < 0:
        raise ValueError("u_mask must be non-negative")
    elements = [e for e in range(u_mask.bit_length()) if u_mask >> e & 1]
    k = len(elements)
    if k > _MAX_DETERMINING_K:
        raise BudgetExceededError(f"3^{k} determining maps exceed the budget")
    if k == 0:
        return []
    codes = np.arange(3**k, dtype=np.int64)
    r_masks = np.zeros(3**k, dtype=np.int64)
    s_masks = np.zeros(3**k, dtype=np.int64)
    for j, e in enumerate(elements):
        digit = (codes // 3**j) % 3
        r_masks += (digit != 1) << e
        s_masks += (digit != 0) << e
    # keep one map per swap pair; R < S also drops the all-0 and all-2
    # constants, and the all-1 constant (R empty) is excluded explicitly
    keep = (r_masks < s_masks) & (codes != (3**k - 1) // 2)
    return list(zip(r_masks[keep].tolist(), s_masks[keep].tolist()))


def _equal_pairs(runs: np.ndarray) -> int:
    """Unordered pairs of equal entries in a 1-d array whose equal entries are adjacent."""
    lens = np.diff(np.flatnonzero(np.concatenate(([True], runs[1:] != runs[:-1], [True]))))
    return int(lens @ (lens - 1)) // 2


def count_union_collisions(family) -> int:
    """Count unordered pairs of member-pairs with equal unions and four
    distinct sets.

    Cell (a, b) of the m x m union matrix holds A u B, and the diagonal holds
    distinct negatives that pair with nothing.  A union shared by c member
    pairs fills 2c off-diagonal cells, so with E counting equal pairs of
    cells, sum_U C(c_U, 2) = (E(all cells) - C(m, 2)) / 4.  Two distinct
    pairs with one union share at most one member, and {A, B}, {A, C} share
    a union exactly when row A holds A u B = A u C, so the pairings sharing
    a member are the equal pairs inside each row, and are subtracted.
    """
    masks = np.asarray(family, dtype=np.int64)
    m = len(masks)
    ordered = np.sort(masks)
    if m and ordered[0] < 0:
        raise ValueError("masks must be non-negative")
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("family contains duplicate members")
    check_budget(_PAIR_TABLE_BYTES * m * m, f"union tables of a {m}-member family")
    if m < 4:
        return 0
    unions = masks[:, None] | masks
    unions.flat[:: m + 1] = np.arange(-1, -m - 1, -1)
    classes = (_equal_pairs(np.sort(unions, axis=None)) - m * (m - 1) // 2) // 4
    if classes == 0:
        return 0
    unions.sort(axis=1)  # each row opens with its own negative, so no run spans two rows
    return classes - _equal_pairs(unions.ravel())


def union_obstacle_count(n: int) -> int:
    """Closed-form census of same-union pair-of-pairs over P([n]).

    sum_{k=3}^{n} C(n,k) * C((3^k - 3)/2, 2), exactly; equals
    (1/8) 10^n (1 + o(1)) and is a slight overcount of the four-distinct-set
    configurations (it admits pairings that share a member).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(comb(n, k) * comb((3**k - 3) // 2, 2) for k in range(3, n + 1))


def union_obstacle_bruteforce(n: int) -> int:
    """Exhaustive census over P([n]): unordered pairs of member-pairs with
    equal unions and four distinct sets.  Capped at n = 4."""
    if not 0 <= n <= _MAX_BRUTE_N:
        raise BudgetExceededError(f"exhaustive obstacle census capped at n = {_MAX_BRUTE_N}")
    masks = range(1 << n)
    pairs = list(combinations(masks, 2))
    total = 0
    for (a, b), (c, d) in combinations(pairs, 2):
        if (a | b) == (c | d) and len({a, b, c, d}) == 4:
            total += 1
    return total


def janson_delta_bound(n: int, p: float) -> float:
    """Normalized overlap-sum bound 16^n p^5 + 28^n p^6 + 52^n p^7.

    Shape-only diagnostic (constant set to 1) for checking decay of the
    dependent-pair correction inside the sampling window.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return 16.0**n * p**5 + 28.0**n * p**6 + 52.0**n * p**7


def wuf_threshold_p(n: int) -> float:
    """Selection probability where weak union-freeness transitions: 10^(-n/4)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return 10.0 ** (-n / 4)


def union_collision_trial(
    stream: np.random.Generator, n: int, p: float
) -> tuple[int, bool]:
    """One Bernoulli trial over P([n]): (collision count X, X == 0)."""
    if not 1 <= n <= _MAX_GROUND:
        raise ValueError(f"need 1 <= n <= {_MAX_GROUND}")
    x = count_union_collisions(bernoulli_ranks(1 << n, p, stream))
    return x, x == 0
