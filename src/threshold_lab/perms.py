"""Order-isomorphic pattern containment between adjacent permutation sizes.

A permutation rho of [n+1] covers pi of [n] when deleting one entry of rho
and flattening the rest onto [n] yields pi.  ``pattern_rank_table`` holds
that relation for all of S_{n+1} at once, as lex ranks; the Monte Carlo
covering and packing trials and the exact checks of the two lemmas (n^2 + 1
covers per pattern, at most 4 shared by two patterns) all read it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import factorial

import numpy as np

from .analysis import clamp_probability, deficiency_count, overfull_count, selected_row_counts
from .errors import check_budget

__all__ = [
    "covering_threshold_p",
    "packing_threshold_bounds",
    "pattern_rank_table",
    "cover_trial",
    "pack_trial",
    "verify_cover_counts",
    "verify_joint_bounds",
]


def covering_threshold_p(n: int, lam: int, r: float) -> float:
    """Selection probability at offset r on the lam-covering threshold curve.

    (n ln n - n + (lam-1) ln n + (lam-1) ln ln n - ln (lam-1)! + (ln n)/2 + r) / n^2,
    pinned to [0, 1]; a nan r raises ValueError.
    """
    if n < 3 or lam < 1:
        raise ValueError("need n >= 3 and lam >= 1")
    log_n = math.log(n)
    return clamp_probability((
        n * log_n
        - n
        + (lam - 1) * log_n
        + (lam - 1) * math.log(log_n)
        - math.lgamma(lam)
        + 0.5 * log_n
        + r
    ) / n**2)


def packing_threshold_bounds(n: int, lam: int) -> tuple[float, float]:
    """Lower and upper selection-probability bounds for the lam-packing
    transition; the gap (a factor n^(2/(lam+1))) is inherent to the bound
    technique and is reported, never collapsed."""
    if n < 2 or lam < 1:
        raise ValueError("need n >= 2 and lam >= 1")
    scale = factorial(n) ** (-1.0 / (lam + 1))
    p_low = scale / n**2
    p_high = scale / n ** (2 * lam / (lam + 1))
    return p_low, p_high


@lru_cache(maxsize=2)
def pattern_rank_table(n: int) -> np.ndarray:
    """For every permutation of [n+1] (by lex rank), the lex ranks of the
    patterns of [n] left by deleting each entry in turn, in the smallest
    unsigned dtype that holds n!: uint8 through n = 5, uint16 through n = 8
    and uint32 at n = 9.

    Row padding: a deletion equal to the one left of it is replaced by the
    sentinel n!, so a bincount over table rows with n! + 1 bins counts each
    covered pattern once per covering permutation.  Equal deletions of a row
    are always adjacent runs, so this keeps exactly one of each.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rows, dtype = factorial(n + 1), np.min_scalar_type(factorial(n))
    # tracemalloc peaks at the table plus under a byte a cell: 2.6 B/cell at
    # n = 8 in uint16, 4.8 at n = 9 in uint32
    check_budget((dtype.itemsize + 1) * rows * (n + 1), f"pattern tables of {rows} x {n + 1} ranks")
    # the lex permutations of {0, ..., m-1} as uint8 rows, and their deletion
    # ranks, grown from m = 1 to n
    values = np.zeros((1, 1), dtype=np.uint8)
    table = np.zeros((1, 1), dtype=np.uint8)
    for m in range(1, n + 1):
        table = _grow_deletion_ranks(values, table)
        if m < n:
            # block f of S_{m+1}: f, then S_m with its values >= f lifted
            lifted = np.empty((m + 1, len(values), m + 1), dtype=np.uint8)
            for f, block in enumerate(lifted):
                block[:, 0] = f
                np.add(values, values >= f, out=block[:, 1:])
            values = lifted.reshape(-1, m + 1)
    # each deletion against the one left of it, a block of rows at a time so
    # that the comparison's temporary stays small
    for block in table.reshape(n + 1, -1, n + 1):
        block[:, 1:][block[:, 1:] == block[:, :-1]] = factorial(n)
    return table


def _grow_deletion_ranks(values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """The deletion ranks of S_{m+1} from the lex permutations of S_m (one row
    each) and their own deletion ranks.

    S_{m+1} in lex order is m + 1 blocks, block f being f followed by S_m with
    its values >= f lifted.  Deleting entry 0 of such a row leaves the S_m row
    sigma itself; deleting entry i >= 1 leaves first entry f - [sigma_{i-1} < f]
    followed by sigma's deletion i - 1, whose rank is that entry times (m-1)!
    plus sigma's deletion rank i - 1.
    """
    size, m = values.shape
    unit, dtype = size // m, np.min_scalar_type(size)
    own = np.arange(size, dtype=dtype)
    grown = np.empty((m + 1, size, m + 1), dtype=dtype)
    for f, block in enumerate(grown):
        block[:, 0] = own
        np.add(ranks, f * unit, out=block[:, 1:], dtype=dtype)
        block[:, 1:] -= (values < f) * dtype.type(unit)
    return grown.reshape(-1, m + 1)


def _coverage_counts(
    stream: np.random.Generator, n: int, p: float
) -> np.ndarray:
    """Per-pattern cover counts of one Bernoulli(p) selection, by lex rank;
    the sentinel bin n! of the table's padding is dropped."""
    return selected_row_counts(pattern_rank_table(n), factorial(n) + 1, p, stream)[:-1]


def cover_trial(
    stream: np.random.Generator, n: int, lam: int, p: float
) -> tuple[int, bool]:
    """One covering trial: (count of patterns covered < lam times, X == 0)."""
    x = deficiency_count(_coverage_counts(stream, n, p), lam)
    return x, x == 0


def pack_trial(
    stream: np.random.Generator, n: int, lam: int, p: float
) -> tuple[int, bool]:
    """One packing trial: (count of patterns covered > lam times, X == 0)."""
    x = overfull_count(_coverage_counts(stream, n, p), lam)
    return x, x == 0


def verify_cover_counts(max_n: int) -> list[tuple[int, bool, int, int]]:
    """Check that every pattern has exactly n^2 + 1 covers, from a bincount
    of the pattern table per size.

    Returns one (n, ok, worst observed, expected) row per size.
    """
    rows = []
    for n in range(1, max_n + 1):
        expected = n * n + 1
        # column by column, as bincount copies its input to int64 (290 MB for all of n = 9)
        columns = pattern_rank_table(n).T
        counts = sum(np.bincount(col, minlength=factorial(n) + 1) for col in columns)[:-1]
        rows.append((n, bool((counts == expected).all()), int(counts.max()), expected))
    return rows


def _joint_pair_keys(n: int) -> np.ndarray:
    """a * n! + b for every pair of patterns a < b that one row of the
    pattern table covers together, one key per row and pair, in the smallest
    unsigned dtype that holds (n!)^2 (uint32 through n = 8); its own
    function so that its temporaries are freed before the keys are sorted."""
    left, right = np.triu_indices(n + 1, 1)
    rows, dtype = factorial(n + 1), np.min_scalar_type(factorial(n) ** 2)
    # tracemalloc peaks near 17 bytes a pair in uint32 keys (n = 8), here and
    # in the caller's unique
    check_budget((4 * dtype.itemsize + 2) * rows * len(left),
                 f"pattern pairs of {rows} x {len(left)}")
    table, sentinel = pattern_rank_table(n), factorial(n)
    # a sentinel may sit on either side of a real entry, so the mask tests both
    a, b = table[:, left], table[:, right]
    real = (a != sentinel) & (b != sentinel)
    keys = np.minimum(a, b).astype(dtype)
    keys *= sentinel
    keys += np.maximum(a, b)
    return keys[real]


def verify_joint_bounds(max_n: int) -> list[tuple[int, bool, int, bool, int]]:
    """Check the joint-coverability bounds for every pattern pair, from the
    pattern pairs that each row of the pattern table covers together.

    Per size n: the neighborhood of any pattern (the patterns sharing a cover
    with it) has at most n^3 members, and any two distinct patterns share at
    most 4 covers.  Returns rows
    (n, neighborhood ok, max neighborhood, pair ok, max joint covers).
    """
    rows = []
    for n in range(2, max_n + 1):
        pairs, shared = np.unique(_joint_pair_keys(n), return_counts=True)
        neighbors = np.bincount(np.concatenate([pairs // factorial(n), pairs % factorial(n)]))
        max_nbhd, max_joint = int(neighbors.max()), int(shared.max())
        rows.append((n, max_nbhd <= n**3, max_nbhd, max_joint <= 4, max_joint))
    return rows
