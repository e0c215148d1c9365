"""Representation counting for h-fold sums over integer sets.

Core objects: the table counting, for each value s, the nondecreasing
h-tuples of set elements summing to s; the bounded-multiplicity trial
(every sum represented at most g times); the truncated-basis trial (every
target-window sum represented at least g times); and the exhaustive counter
of equal-sum tuple systems that drives growth-rate checks.
"""

from __future__ import annotations

import math
from math import comb, factorial

import numpy as np

from .analysis import _COUNT_BLOCK, _SELECT_BLOCK, chunked, row_runs
from .errors import check_budget
from .rng import (_RANK_BLOCK, bernoulli_chunk, bernoulli_ranks, derive_stream, first_block,
                  selection_floor)

__all__ = [
    "representation_counts",
    "count_equal_sum_tuples",
    "sidon_threshold_k",
    "basis_threshold_p",
    "bh_g_trial",
    "truncated_basis_trial",
]

# pairwise-sum tables are built in row blocks to bound the outer-product size
_PAIR_BLOCK = 256


def _as_element_array(elements) -> np.ndarray:
    """Any iterable of distinct non-negative integers as a sorted int64 array."""
    if not isinstance(elements, np.ndarray):
        elements = np.fromiter(elements, dtype=np.int64)
    arr = np.sort(elements.astype(np.int64, copy=False))
    if len(arr) and arr[0] < 0:
        raise ValueError("elements must be non-negative")
    if np.any(arr[1:] == arr[:-1]):
        raise ValueError("elements must be distinct")
    return arr


def _table_bytes(k: int, top: int, h: int) -> int:
    """The bytes of the tables ``representation_counts`` builds over k
    elements whose largest h-fold sum is ``top``."""
    if h == 2:
        # live at once (the tracemalloc peak): the elements, three arrays of
        # top + 1 bins (two totals and the bincount being added) and the
        # largest block of pair sums, a row block with itself or with the rest
        rows = min(_PAIR_BLOCK, k)
        return 8 * (k + 3 * (top + 1) + rows * max(rows, k - rows))
    return 8 * (h + 1) * (top + 1)


def _tuple_sum_bytes(k: int, h: int) -> int:
    """The bytes ``_max_multiplicity`` takes to sort the tuple sums of k elements."""
    # the tracemalloc peak is the last column's addition, four int64 arrays a
    # tuple, or, as its indices are made, three a tuple and five a tuple one
    # element shorter; the sorted sums and their run starts take under four;
    # and under 8 KiB of small arrays and objects
    n_tuples, shorter = comb(k + h - 1, h), comb(k + h - 2, h - 1)
    return 8 * max(4 * n_tuples, 3 * n_tuples + 5 * shorter) + (8 << 10)


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
    k, top = len(els), int(els[-1]) * h
    check_budget(_table_bytes(k, top, h), f"representation tables over {top + 1} sums")
    if h == 2:
        # each unordered pair once: a row block's ordered sums with itself plus
        # the diagonal, halved, and its sums with the elements after it
        within = np.bincount(2 * els, minlength=top + 1)
        after = np.zeros(top + 1, dtype=np.int64)
        for a in range(0, k, _PAIR_BLOCK):
            block = els[a : a + _PAIR_BLOCK]
            within += np.bincount((block[:, None] + block).ravel(), minlength=top + 1)
            after += np.bincount((block[:, None] + els[a + _PAIR_BLOCK :]).ravel(),
                                 minlength=top + 1)
        within //= 2
        within += after
        return within
    # complete-knapsack recurrence over elements; exact integer counts
    table = np.zeros((h + 1, top + 1), dtype=np.int64)
    table[0, 0] = 1
    for a in els.tolist():
        for j in range(1, h + 1):
            table[j, a:] += table[j - 1, : top + 1 - a]
    return table[h]


def _basis_window(elements, n: int, h: int, alpha: float) -> np.ndarray:
    """Representation counts of the sums in [alpha*n, (h-alpha)*n], endpoints
    rounded inward (ceil low, floor high); sums beyond the table count zero."""
    lo, hi = math.ceil(alpha * n), math.floor((h - alpha) * n)
    counts = representation_counts(elements, h)[lo : hi + 1]
    return np.pad(counts, (0, max(hi + 1 - lo, 0) - len(counts)))


def _extend(start, width):
    """(row, index) for every index in [start, start + width) of each row, in row order."""
    rows = np.repeat(np.arange(len(width)), width)
    step = np.arange(len(rows))
    step += (start + width - np.cumsum(width))[rows]
    return rows, step


def count_equal_sum_tuples(n: int, h: int, g: int) -> list[int]:
    """Exhaustively count the (g+1)-tuples of nondecreasing h-tuples over [n],
    strictly increasing lexicographically and of one common sum, that use
    exactly l distinct values, for every l from 0 to h(g+1), the most any uses.

    Before any tuple exists, BudgetExceededError refuses a census whose 2h + 3
    int64 a tuple and block of subsets a depth (at most _COUNT_BLOCK rows and
    one group's, and no more rows than subsets) exceed the memory budget, or
    whose subsets do at 16 bytes each: at h = 2, g = 1, past n = 738."""
    if h < 2 or g < 1 or n < 1:
        raise ValueError("need h >= 2, g >= 1, n >= 1")
    n_tuples = comb(n + h - 1, h)
    check_budget(8 * (2 * h + 3) * n_tuples, f"{n_tuples} nondecreasing {h}-tuples")
    sizes = representation_counts(np.arange(1, n + 1), h)
    work = sum(comb(c, g + 1) for c in sizes.tolist())
    check_budget(8 * (2 * h + 3) * n_tuples + 4 * (g + 1) * (g + 4 + 2 * h)
                 * min(_COUNT_BLOCK + int(sizes.max()), work), f"blocks of {g + 1}-subsets")
    check_budget(16 * work, f"the {work} candidate tuple systems")
    # nondecreasing tuples of [0, n) in lex order, stably sorted by sum
    members = np.arange(n)[:, None]
    for _ in range(h - 1):
        rows, last = _extend(members[:, -1], n - members[:, -1])
        members = np.column_stack((members[rows], last))
    members = members[np.argsort(members.sum(axis=1), kind="stable")].astype(np.min_scalar_type(n))
    ends = np.cumsum(sizes)[members.sum(axis=1) + h]  # one past each tuple's group
    # rows of increasing positions in a group, extended a column at a time by
    # each that leaves room for the rest, in blocks adding _COUNT_BLOCK rows;
    # a full row uses one value more than the steps of its sorted values
    census, pending, piece = np.zeros(h * (g + 1) + 1, np.int64), [], np.arange(n_tuples)[:, None]
    while True:
        if room := g + 1 - piece.shape[1]:
            width = np.maximum(ends[piece[:, -1]] - piece[:, -1] - room, 0)
            cuts = np.flatnonzero(np.diff(np.cumsum(width) // _COUNT_BLOCK)) + 1
            pending.extend(zip(np.split(piece, cuts), np.split(width, cuts)))
        else:
            symbols = np.sort(members[piece].reshape(len(piece), h * (g + 1)), axis=1)
            census[1:] += np.bincount(np.count_nonzero(np.diff(symbols), axis=1),
                                      minlength=h * (g + 1))
        if not pending:
            return census.tolist()
        piece, width = pending.pop()
        rows, last = _extend(piece[:, -1] + 1, width)
        piece = np.column_stack((piece[rows], last))


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


def _tuple_sums(els: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """The sum of each nondecreasing h-tuple of indices into the last axis of
    ``els``, in lex order, and the last index of each: each index tuple
    extended by every index at or above its last; its own function so that
    its other index arrays are freed before the sums are sorted."""
    k = els.shape[-1]
    sums, last = els, np.arange(k)
    for _ in range(h - 1):
        rows, last = _extend(last, k - last)
        sums = np.take(sums, rows, axis=-1)
        sums += np.take(els, last, axis=-1)
    return sums, last


def _price_multiplicity(n: int, h: int, p: float) -> None:
    """Refuse a selection of [n] at p whose cheaper count, priced at its
    ``selection_floor`` elements, a lower bound on the charge of the draw,
    exceeds the budget."""
    k = selection_floor(n, p)
    reach = h * max(k - 1, 0)  # k distinct elements reach an h-fold sum of at least (k - 1) h
    check_budget(min(_table_bytes(k, reach, h), _tuple_sum_bytes(k, h)),
                 f"the sum tables or tuple sums of {k} elements")


def _max_multiplicity(elements, h: int) -> int:
    """``representation_counts(elements, h).max()`` (see ``_multiplicities``)."""
    if h < 2:
        raise ValueError("h must be at least 2")
    els = _as_element_array(elements)
    return _multiplicities(els, np.array([len(els)]), h)[0]


def _multiplicities(elements: np.ndarray, sizes: np.ndarray, h: int) -> list[int]:
    """``representation_counts(s, h).max()`` of each set s that the sorted
    ``elements`` hold in turn, ``sizes`` elements each: from its
    C(k + h - 1, h) tuple sums directly when they are no more than the
    table's h * max + 1 bins, else from the table, one set at a time.  The
    sets counted by their sums are sorted in one call, one set a row, its
    sums padded to the most of any with distinct negatives."""
    tops, summed = [0] * len(sizes), np.zeros(len(sizes), dtype=bool)
    for t, (k, end) in enumerate(zip(sizes.tolist(), np.cumsum(sizes).tolist())):
        if k and comb(k + h - 1, h) > h * int(elements[end - 1]) + 1:
            tops[t] = int(representation_counts(elements[end - k : end], h).max())
        else:
            summed[t] = k > 0
    if not summed.any():
        return tops
    k = sizes[summed]
    width = int(k.max())
    check_budget(len(k) * _tuple_sum_bytes(width, h),
                 f"{len(k)} x {comb(width + h - 1, h)} tuple sums")
    if (k == width).all() and summed.all():  # one set, as a rule: no copy
        sums = _tuple_sums(elements.reshape(len(k), width), h)[0]
    else:
        member = np.arange(width) < k[:, None]
        # sums below 2^31 sort faster, and in half the bytes, as int32
        padded = np.zeros(member.shape, np.int32 if h * int(elements.max()) < 2**31 else np.int64)
        padded[member] = elements[np.repeat(summed, sizes)]
        sums, last = _tuple_sums(padded, h)
        np.copyto(sums, np.arange(-1, -sums.shape[1] - 1, -1), where=last >= k[:, None])
        del last
    sums.sort(axis=1)
    lengths, first = row_runs(sums)
    for t, top in zip(np.flatnonzero(summed).tolist(),
                      np.maximum.reduceat(lengths, first).tolist()):
        tops[t] = top
    return tops


def _bh_g_chunk(seed: int, indices: range, n: int, h: int, g: int,
                p: float) -> list[tuple[int, bool]]:
    """The trials of ``indices``, as many a chunk as ``_SELECT_BLOCK`` tuple
    sums of sets of their first gap blocks allow, each chunk priced once and counted
    by ``_multiplicities``; a trial that one block may not hold, or any from
    p = 1/3, runs on its own, as does one whose first block falls short."""
    size = first_block(n, p, _RANK_BLOCK)
    # a set is counted by its tuple sums only when they are no more than h n + 1
    sums = min(comb(size + h - 1, h), h * n + 1)
    alone = size == _RANK_BLOCK or p >= 1 / 3
    chunk = 1 if alone else max(1, _SELECT_BLOCK // sums)
    results, stream = [], None
    for a in range(0, len(indices), chunk):
        run = indices[a : a + chunk]
        if alone:
            results.append(bh_g_trial(stream := derive_stream(seed, run[0], stream), n, h, g, p))
            continue
        _price_multiplicity(n, h, p)
        # the gaps, and what ``_tuple_sum_bytes`` charges a set at 64 B a sum:
        # no set of the chunk outgrows its first block of gaps
        check_budget(26 * chunk * size + chunk * (64 * sums + (8 << 10)),
                     f"the tuple sums of {chunk} sets")
        stream = derive_stream(seed, run[0], stream)
        elements, sizes = bernoulli_chunk(n, p, seed, run, size, stream)
        tops = _multiplicities(elements + 1, np.maximum(sizes, 0), h)
        for t in np.flatnonzero(sizes < 0).tolist():
            tops[t] = bh_g_trial(stream := derive_stream(seed, run[t], stream), n, h, g, p)[0]
        results.extend((top, top <= g) for top in tops)
    return results


@chunked(_bh_g_chunk)
def bh_g_trial(
    stream: np.random.Generator, n: int, h: int, g: int, p: float
) -> tuple[int, bool]:
    """One Bernoulli-membership trial over [n]: (max representation count,
    holds).  Before the draw, the cheaper of its two counts is priced at
    ``selection_floor`` elements, a lower bound on the charge of the draw."""
    _price_multiplicity(n, h, p)
    top = _max_multiplicity(bernoulli_ranks(n, p, stream) + 1, h)
    return top, top <= g


def truncated_basis_trial(
    stream: np.random.Generator, n: int, h: int, g: int, alpha: float, p: float
) -> tuple[int, bool]:
    """One Bernoulli trial over {0} u [n]: (max count in window, basis
    holds).  Its tables are priced at ``selection_floor`` elements before the draw."""
    k = selection_floor(n + 1, p)
    reach = h * max(k - 1, 0)  # k distinct elements reach an h-fold sum of at least (k - 1) h
    check_budget(_table_bytes(k, reach, h), f"the sum tables of {k} elements")
    window = _basis_window(bernoulli_ranks(n + 1, p, stream), n, h, alpha)
    return int(window.max(initial=0)), bool(window.min(initial=g) >= g)
