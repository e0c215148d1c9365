"""Union-collision detection over random subfamilies of a power set.

A family of subsets of [n] is weakly union-free when no four distinct
members A, B, C, D satisfy A u B = C u D.  Collisions are counted as
unordered pairs of disjoint member-pairs sharing a union, members being
int64 masks.  The obstacle census (how many such configurations the full
power set admits) has a closed form via determining maps, and an exhaustive
count that the memory budget admits up to n = 12.
"""

from __future__ import annotations

from functools import partial
from math import comb

import numpy as np

from .analysis import chunk_trials, chunked, row_runs
from .errors import check_budget
from .rng import _RANK_BLOCK, bernoulli_ranks, selection_floor

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


def _squared_runs(rows: np.ndarray) -> np.ndarray:
    """The sum of the squared lengths of the runs of equal entries in each
    row of a sorted 2-d array: its width plus twice its equal pairs."""
    lengths, first = row_runs(rows)
    lengths *= lengths
    return np.add.reduceat(lengths, first)


def _check_union_tables(m: int) -> None:
    """Refuse the union tables of an m-member family before any copy of it."""
    check_budget(_PAIR_TABLE_BYTES * m * m, f"union tables of a {m}-member family")


def count_union_collisions(family) -> int:
    """Count unordered pairs of member-pairs with equal unions and four
    distinct sets (see ``_collisions``)."""
    masks = np.asarray(family, dtype=np.int64)
    m = len(masks)
    _check_union_tables(m)
    ordered = np.sort(masks)
    if m and ordered[0] < 0:
        raise ValueError("masks must be non-negative")
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("family contains duplicate members")
    return int(_collisions(masks[None], np.array([m]))[0])


def _collisions(families: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The collision count of each row of ``families``, whose first ``sizes``
    masks are its members, from one segmented sort: one m x m union matrix a
    family, m the width of the rows, sorted a family a row.

    Cell (a, b) of a family's matrix holds A u B; the diagonal, and every
    cell of a row or column past its size, holds a distinct negative that
    pairs with nothing.  A union shared by c member pairs fills 2c off-diagonal
    cells, so with E counting equal pairs of cells, sum_U C(c_U, 2) =
    (E(all cells) - C(m, 2)) / 4.  Two distinct pairs with one union share
    at most one member, and {A, B}, {A, C} share a union exactly when row A
    holds A u B = A u C, so the pairings sharing a member are the equal
    pairs inside each row, and are subtracted.
    """
    count, m = families.shape
    if m < 4:
        return np.zeros(count, dtype=np.int64)
    unions = families[:, :, None] | families[:, None, :]
    cells = unions.reshape(count, m * m)
    if sizes.sum() < count * m:
        member = np.arange(m) < sizes[:, None]
        np.copyto(unions, np.arange(-1, -m * m - 1, -1).reshape(m, m),
                  where=~(member[:, :, None] & member[:, None, :]))
    cells[:, :: m + 1] = np.arange(-1, -m * m - 1, -m - 1)
    # (E - C(m, 2)) / 4, from E = (squares - m^2) / 2
    classes = _squared_runs(np.sort(cells, axis=1)) - m * m - sizes * (sizes - 1)
    classes //= 8
    if classes.any():
        # each row sorted on its own opens with a negative, so no run spans two
        unions.sort(axis=2)
        classes -= (_squared_runs(cells) - m * m) // 2
    return classes


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


def _collision_chunk(seed: int, indices: range, n: int, p: float) -> list[tuple[int, bool]]:
    """The trials of ``indices`` (see ``chunk_trials``), as many a chunk as
    ``_SELECT_BLOCK`` union cells of their first gap blocks allow, and each
    chunk's families counted by one ``_collisions``."""
    if not 1 <= n <= _MAX_GROUND:
        raise ValueError(f"need 1 <= n <= {_MAX_GROUND}")

    def measure(masks, sizes):
        # masks below 2^31 sort faster, and in half the bytes, as int32
        families = np.zeros((len(sizes), sizes.max()), dtype=np.int32 if n < 31 else np.int64)
        families[np.arange(families.shape[1]) < sizes[:, None]] = masks
        return [(x, x == 0) for x in _collisions(families, sizes).tolist()]

    # no family of the chunk outgrows its first block of gaps
    return chunk_trials(
        partial(union_collision_trial, n=n, p=p), seed, indices, 1 << n, p, _RANK_BLOCK,
        lambda size: size * size,
        lambda chunk, size: (_PAIR_TABLE_BYTES * chunk * size * size + 26 * chunk * size,
                             f"union tables of {chunk} families of at most {size} members"),
        measure)


@chunked(_collision_chunk)
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
