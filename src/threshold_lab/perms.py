"""Order-isomorphic pattern containment between adjacent permutation sizes.

A permutation rho of [n+1] covers pi of [n] when deleting one entry of rho
and flattening the rest onto [n] yields pi.  Row f * n! + s of S_{n+1} in
lex order is f followed by row s of S_n lifted, so its deletions' lex ranks
follow from f and those of row s.  ``_deletions`` applies that rule: it grows
the cached level of S_n (its permutations and their deletion ranks) from S_1
and derives from it ``_pattern_rows``, the rows of any ranks.  The Monte
Carlo covering and packing trials derive only the rows they count, and the
exact cover-count check is their count at p = 1; the joint-bound check (at
most 4 covers shared by two patterns) derives every row of S_{n+1} in blocks.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from math import factorial

import numpy as np

from .analysis import (_COUNT_BLOCK, chunk_row_counts, chunked, clamp_probability,
                       deficiency_count, overfull_count, selected_row_counts)
from .errors import check_budget

__all__ = [
    "covering_threshold_p",
    "packing_threshold_bounds",
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
def _pattern_level(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The lex permutations of {0, ..., n-1} as uint8 and the lex ranks of
    their n deletions, one column per permutation: the S_n that every row of
    S_{n+1} is derived from."""
    size, dtype = factorial(n), np.min_scalar_type(factorial(n - 1))
    # tracemalloc peaks at the level plus under a byte a cell: 3.3 B/cell at
    # n = 8 and 9 in uint16 ranks
    check_budget((2 + dtype.itemsize) * size * n, f"pattern levels of {size} x {n} ranks")
    values = ranks = np.zeros((1, 1), dtype=np.uint8)
    for m in range(1, n):
        grown = np.empty((m + 1, factorial(m + 1)), dtype=np.min_scalar_type(factorial(m)))
        for a, block in _row_blocks(m, partial(_deletions, values, ranks)):
            grown[:, a : a + block.shape[1]] = block
        ranks = grown
        # block f of S_{m+1}: f, then S_m with its values >= f lifted
        lifted = np.empty((m + 1, m + 1, values.shape[1]), dtype=np.uint8)
        for f in range(m + 1):
            lifted[0, f] = f
            np.add(values, values >= f, out=lifted[1:, f])
        values = lifted.reshape(m + 1, -1)
    return values, ranks


# not called by any trial: ``bench/layers.py`` clears and counts the level
# builds by this name, so it stays an alias until the benchmark stops naming it
pattern_rank_table = _pattern_level


def _deletions(values: np.ndarray, ranks: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """The deletion ranks of rows ``selected`` of S_{m+1}, one column per row,
    from the lex permutations of S_m and their deletion ranks, one column each.

    S_{m+1} in lex order is m + 1 blocks, block f being f followed by S_m with
    its values >= f lifted.  Deleting entry 0 of such a row leaves the S_m row
    sigma itself; deleting entry i >= 1 leaves first entry f - [sigma_{i-1} < f]
    followed by sigma's deletion i - 1, whose rank is that entry times (m-1)!
    plus sigma's deletion rank i - 1.
    """
    m, size = values.shape
    unit, dtype = size // m, np.min_scalar_type(size)
    first, own = np.divmod(selected, size)
    rows = np.empty((m + 1, len(selected)), dtype=dtype)
    rows[0] = own
    np.add(np.take(ranks, own, axis=1), (first * unit).astype(dtype), out=rows[1:])
    rows[1:] -= (np.take(values, own, axis=1) < first.astype(np.uint8)) * dtype.type(unit)
    return rows


def _pattern_rows(n: int, ranks: np.ndarray) -> np.ndarray:
    """The lex ranks of the patterns of [n] left by deleting each entry in turn
    of the rows ``ranks`` of S_{n+1}, one column per rank: their ``_deletions``
    from the level of S_n, in the smallest unsigned dtype that holds n!.

    Padding: a deletion equal to the one left of it is replaced by the
    sentinel n!, so a bincount over rows with n! + 1 bins counts each
    covered pattern once per covering permutation.  Equal deletions of a row
    are always adjacent runs, so this keeps exactly one of each.
    """
    rows = _deletions(*_pattern_level(n), ranks)
    # n! exceeds every rank, so a maximum writes it; a masked write costs
    # several times as much, as about a quarter of the comparisons are true
    np.maximum(rows[1:], (rows[1:] == rows[:-1]) * rows.dtype.type(factorial(n)), out=rows[1:])
    return rows


def _row_blocks(n: int, rows_of):
    """(first rank, ``rows_of`` the ranks from it) over all of S_{n+1}, in blocks
    of at most ``_COUNT_BLOCK`` entries and a 16th of it, whose temporaries (under
    8 B an entry from n = 7) stay below the values a level build lifts next."""
    total = factorial(n + 1)
    for a in range(0, total, step := min(-(-total // 16), _COUNT_BLOCK // (n + 1))):
        yield a, rows_of(np.arange(a, min(a + step, total)))


def _coverage_rows(n: int) -> tuple:
    """The coverage core's arguments for the patterns of S_{n+1}, before p."""
    return partial(_pattern_rows, n), factorial(n + 1), n + 1, factorial(n) + 1


def _coverage_counts(
    stream: np.random.Generator, n: int, p: float
) -> np.ndarray:
    """Per-pattern cover counts of one Bernoulli(p) selection of S_{n+1}, by
    lex rank, from the selected rows alone; the sentinel bin n! is dropped."""
    return selected_row_counts(*_coverage_rows(n), p, stream)[:-1]


def _perm_chunk(cover: bool, seed: int, indices: range, n: int, lam: int,
                p: float) -> list[tuple[int, bool]]:
    """The cover (``cover``) or pack trials of ``indices``, counted a chunk of
    cover counts at a time; the sentinel column n! is dropped."""
    count = deficiency_count if cover else overfull_count
    xs = chunk_row_counts(*_coverage_rows(n), p, seed, indices,
                          lambda table: count(table[:, :-1], lam))
    return [(x, x == 0) for x in xs]


@chunked(partial(_perm_chunk, True))
def cover_trial(
    stream: np.random.Generator, n: int, lam: int, p: float
) -> tuple[int, bool]:
    """One covering trial: (count of patterns covered < lam times, X == 0)."""
    x = deficiency_count(_coverage_counts(stream, n, p), lam)
    return x, x == 0


@chunked(partial(_perm_chunk, False))
def pack_trial(
    stream: np.random.Generator, n: int, lam: int, p: float
) -> tuple[int, bool]:
    """One packing trial: (count of patterns covered > lam times, X == 0)."""
    x = overfull_count(_coverage_counts(stream, n, p), lam)
    return x, x == 0


def verify_cover_counts(max_n: int) -> list[tuple[int, bool, int, int]]:
    """Check that every pattern has exactly n^2 + 1 covers, from the trials'
    cover counts at p = 1, which keep every row of S_{n+1} and draw nothing.

    Returns one (n, ok, worst observed, expected) row per size.
    """
    rows = []
    for n in range(1, max_n + 1):
        counts = _coverage_counts(None, n, 1.0)
        rows.append((n, bool((counts == n * n + 1).all()), int(counts.max()), n * n + 1))
    return rows


def _joint_pair_keys(n: int) -> np.ndarray:
    """a * n! + b for every pair of patterns a < b that one row of S_{n+1}
    covers together, one key per row and pair, derived a block of rows at a
    time, in the smallest unsigned dtype that holds (n!)^2 (uint32 through
    n = 8); its own function so that its temporaries are freed before the
    keys are sorted."""
    left, right = np.triu_indices(n + 1, 1)
    rows, dtype = factorial(n + 1), np.min_scalar_type(factorial(n) ** 2)
    # tracemalloc peaks near 15 bytes a pair in uint32 keys (n = 8) in the
    # caller's unique, and under 6 while the blocks are keyed
    check_budget(4 * dtype.itemsize * rows * len(left),
                 f"pattern pairs of {rows} x {len(left)}")
    sentinel, keys = factorial(n), []
    for _, block in _row_blocks(n, partial(_pattern_rows, n)):
        # a sentinel may sit on either side of a real entry, so the mask tests both
        a, b = block[left], block[right]
        real = (a != sentinel) & (b != sentinel)
        key = np.minimum(a, b).astype(dtype)
        key *= sentinel
        key += np.maximum(a, b)
        keys.append(key[real])
    return np.concatenate(keys)


def verify_joint_bounds(max_n: int) -> list[tuple[int, bool, int, bool, int]]:
    """Check the joint-coverability bounds for every pattern pair, from the
    pattern pairs that each row of S_{n+1} covers together.

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
