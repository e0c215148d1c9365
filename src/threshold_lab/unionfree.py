"""Union-collision detection over random subfamilies of a power set.

A family of subsets of [n] is weakly union-free when no four distinct
members A, B, C, D satisfy A u B = C u D.  Collisions are counted as
unordered pairs of disjoint member-pairs sharing a union, members being
int64 masks.  The obstacle census (how many such configurations the full
power set admits) has a closed form via determining maps, and an exhaustive
count that the memory budget admits up to n = 12.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import check_budget
from .rng import bernoulli_ranks, selection_floor

__all__ = [
    "count_union_collisions",
    "union_obstacle_count",
    "union_obstacle_bruteforce",
    "janson_delta_bound",
    "wuf_threshold_p",
    "union_collision_trial",
]

# the 2^n ranks and their union masks are int64, and 1 << 63 overflows
_MAX_GROUND = 62
# bytes per union-matrix cell live at once while counting: at most three
# int64 arrays (the matrix, a sorted copy or run bounds, run lengths) and a mask
_PAIR_TABLE_BYTES = 3 * 8 + 1


def _equal_pairs(runs: np.ndarray) -> int:
    """Unordered pairs of equal entries in a 1-d array whose equal entries are adjacent."""
    lens = np.diff(np.flatnonzero(np.concatenate(([True], runs[1:] != runs[:-1], [True]))))
    return int(lens @ (lens - 1)) // 2


def _check_union_tables(m: int) -> None:
    """Refuse the union tables of an m-member family before any copy of it."""
    check_budget(_PAIR_TABLE_BYTES * m * m, f"union tables of a {m}-member family")


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
    _check_union_tables(m)
    ordered = np.sort(masks)
    if m and ordered[0] < 0:
        raise ValueError("masks must be non-negative")
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("family contains duplicate members")
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
    (1/8) 10^n (1 + o(1)).  Against the exhaustive census of four distinct
    sets it is not an overcount at every n: it leaves out the pairs that
    contain the empty set, so at n = 2 it gives 0 against 1 ({1},{2} against
    {},{1,2}).  From n = 3 on it overcounts, as it admits pairings that share
    a member: 66 against 39 at n = 3, 1005 against 673 at n = 4.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    return sum(comb(n, k) * comb((3**k - 3) // 2, 2) for k in range(3, n + 1))


def union_obstacle_bruteforce(n: int) -> int:
    """Exhaustive census over P([n]): unordered pairs of member-pairs with
    equal unions and four distinct sets, the collision count of the whole
    power set.  Its union tables are budgeted before the power set is built,
    which refuses n = 13; a negative n raises ValueError."""
    check_budget(_PAIR_TABLE_BYTES << 2 * n, f"union tables of the {1 << n}-member power set")
    return count_union_collisions(np.arange(1 << n))


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
    """One Bernoulli trial over P([n]): (collision count X, X == 0).  The
    union tables are priced at ``selection_floor`` members before the draw."""
    if not 1 <= n <= _MAX_GROUND:
        raise ValueError(f"need 1 <= n <= {_MAX_GROUND}")
    _check_union_tables(selection_floor(1 << n, p))
    x = count_union_collisions(bernoulli_ranks(1 << n, p, stream))
    return x, x == 0
