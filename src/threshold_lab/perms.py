"""Order-isomorphic pattern containment between adjacent permutation sizes.

A permutation rho of [n+1] covers pi of [n] when deleting one entry of rho
and flattening the rest onto [n] yields pi.  This module provides the
elementary deletion/insertion machinery, exhaustive verifiers for the
cover-count and joint-coverability facts, and the Monte Carlo trials for
covering and packing transitions over random subsets of the larger
symmetric group.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, permutations as _all_perms
from math import factorial

import numpy as np

from .analysis import deficiency_count, overfull_count, selected_row_counts
from .errors import BudgetExceededError, check_budget

__all__ = [
    "delete_and_flatten",
    "covers",
    "covering_set",
    "joint_covers",
    "joint_cover_neighborhood",
    "covering_threshold_p",
    "packing_threshold_bounds",
    "lex_rank",
    "lex_unrank",
    "pattern_rank_table",
    "cover_trial",
    "pack_trial",
    "verify_cover_counts",
    "verify_joint_bounds",
]

# exhaustive verifier and neighborhood budgets; factorial growth beyond
_MAX_EXHAUSTIVE_N = 6


def _check_perm(perm: tuple[int, ...]) -> None:
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{len(perm)}")


def delete_and_flatten(rho: tuple[int, ...], position: int) -> tuple[int, ...]:
    """Remove the entry at 1-based ``position`` and flatten onto [m-1].

    Every remaining entry larger than the removed value drops by one.
    """
    m = len(rho)
    if not 1 <= position <= m:
        raise ValueError(f"position must lie in [1, {m}]")
    removed = rho[position - 1]
    return tuple(e - 1 if e > removed else e for i, e in enumerate(rho) if i != position - 1)


def covers(rho: tuple[int, ...], pi: tuple[int, ...]) -> bool:
    """True when some single deletion of rho flattens to pi."""
    if len(rho) != len(pi) + 1:
        raise ValueError("rho must be exactly one entry longer than pi")
    return any(delete_and_flatten(rho, i) == pi for i in range(1, len(rho) + 1))


def covering_set(pi: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All permutations of [n+1] covering pi, built by value insertion.

    For each value v in [n+1], lift the entries of pi at or above v, then
    place v at each of the n+1 positions; deduplication leaves n^2 + 1
    distinct covers.
    """
    _check_perm(pi)
    n = len(pi)
    out: set[tuple[int, ...]] = set()
    for v in range(1, n + 2):
        lifted = tuple(e + 1 if e >= v else e for e in pi)
        for pos in range(n + 1):
            out.add(lifted[:pos] + (v,) + lifted[pos:])
    return out


def joint_covers(
    pi: tuple[int, ...], pi2: tuple[int, ...]
) -> set[tuple[int, ...]]:
    """Permutations of [n+1] covering both distinct patterns."""
    if len(pi) != len(pi2):
        raise ValueError("patterns must have equal length")
    if pi == pi2:
        raise ValueError("patterns must be distinct")
    return covering_set(pi) & covering_set(pi2)


def joint_cover_neighborhood(pi: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All patterns other than pi sharing a cover with pi (exhaustive, n <= 6)."""
    _check_perm(pi)
    n = len(pi)
    if n > _MAX_EXHAUSTIVE_N:
        raise BudgetExceededError(f"exhaustive neighborhood capped at n = {_MAX_EXHAUSTIVE_N}")
    out: set[tuple[int, ...]] = set()
    for rho in covering_set(pi):
        for i in range(1, n + 2):
            out.add(delete_and_flatten(rho, i))
    out.discard(pi)
    return out


def covering_threshold_p(n: int, lam: int, r: float, clamp: bool = False) -> float:
    """Selection probability at offset r on the lam-covering threshold curve.

    (n ln n - n + (lam-1) ln n + (lam-1) ln ln n - ln (lam-1)! + (ln n)/2 + r) / n^2.
    Out-of-range values are rejected unless ``clamp`` pins them to [0, 1].
    """
    if n < 3 or lam < 1:
        raise ValueError("need n >= 3 and lam >= 1")
    log_n = math.log(n)
    p = (
        n * log_n
        - n
        + (lam - 1) * log_n
        + (lam - 1) * math.log(log_n)
        - math.lgamma(lam)
        + 0.5 * log_n
        + r
    ) / n**2
    if not 0.0 <= p <= 1.0:
        if not clamp:
            raise ValueError(f"threshold expression {p:.6g} falls outside [0, 1]")
        p = min(1.0, max(0.0, p))
    return p


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


def lex_rank(perm: tuple[int, ...]) -> int:
    """Lexicographic rank of a permutation of [m] among all m! permutations."""
    m = len(perm)
    rank = 0
    for i in range(m):
        smaller = sum(1 for j in range(i + 1, m) if perm[j] < perm[i])
        rank += smaller * factorial(m - 1 - i)
    return rank


def lex_unrank(rank: int, m: int) -> tuple[int, ...]:
    """Permutation of [m] at the given lexicographic rank."""
    if not 0 <= rank < factorial(m):
        raise ValueError("rank out of range")
    pool = list(range(1, m + 1))
    out = []
    for i in range(m, 0, -1):
        f = factorial(i - 1)
        idx, rank = divmod(rank, f)
        out.append(pool.pop(idx))
    return tuple(out)


def _lex_perms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The permutations of {0, ..., m-1} in lex order and their Lehmer codes
    c_j = #{k > j : rho_k < rho_j}, as int8 arrays with one row per position
    and one column per permutation.  Block f of either is f above the block
    for m-1, whose permutations have their values >= f lifted by one."""
    perms = codes = np.zeros((0, 1), dtype=np.int8)
    for k in range(1, m + 1):
        first = np.repeat(np.arange(k, dtype=np.int8), perms.shape[1])[None, :]
        lifted = np.tile(perms, k)
        perms = np.vstack([first, lifted + (lifted >= first)])
        codes = np.vstack([first, np.tile(codes, k)])
    return perms, codes


@lru_cache(maxsize=2)
def pattern_rank_table(n: int) -> np.ndarray:
    """For every permutation of [n+1] (by lex rank), the lex ranks of its
    covered patterns of [n], as int32.

    Row padding: duplicate patterns within a row are replaced by the
    sentinel n!, so a bincount over table rows with n! + 1 bins counts each
    covered pattern once per covering permutation.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # the build peaks near 9 bytes a cell (tracemalloc: 8.6 at n = 7, 8.35 at n = 8)
    rows = factorial(n + 1)
    check_budget(9 * rows * (n + 1), f"pattern tables of {rows} x {n + 1} ranks")
    rho, codes = _lex_perms(n + 1)
    weights = np.array([factorial(n - 1 - j) for j in range(n)], dtype=np.int32)
    table = np.empty(codes.T.shape, dtype=np.int32)
    for i in range(n + 1):
        # deleting entry i keeps the parent's Lehmer digits, less one left of
        # i where rho_i < rho_j, and moves those right of i one place left
        rank = np.zeros(len(table), dtype=np.int32)
        for j in range(i):
            rank += (codes[j] - (rho[i] < rho[j])) * weights[j]
        for j in range(i + 1, n + 1):
            rank += codes[j] * weights[j - 1]
        table[:, i] = rank
    table.sort(axis=1)
    dup = np.zeros_like(table, dtype=bool)
    dup[:, 1:] = table[:, 1:] == table[:, :-1]
    table[dup] = factorial(n)
    return table


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
    """Exhaustively check |covering_set(pi)| = n^2 + 1 for every pattern.

    Returns one (n, ok, worst observed, expected) row per size.
    """
    rows = []
    for n in range(1, max_n + 1):
        expected = n * n + 1
        sizes = {len(covering_set(p)) for p in _all_perms(range(1, n + 1))}
        rows.append((n, sizes == {expected}, max(sizes), expected))
    return rows


def verify_joint_bounds(max_n: int) -> list[tuple[int, bool, int, bool, int]]:
    """Exhaustively check joint-coverability bounds for every pattern pair.

    Per size n: the neighborhood of any pattern has at most n^3 members, and
    any two distinct patterns share at most 4 covers.  Returns rows
    (n, neighborhood ok, max neighborhood, pair ok, max joint covers).
    """
    rows = []
    for n in range(2, max_n + 1):
        perms = list(_all_perms(range(1, n + 1)))
        max_nbhd = max(len(joint_cover_neighborhood(p)) for p in perms)
        cover_sets = [covering_set(p) for p in perms]
        max_joint = max(len(a & b) for a, b in combinations(cover_sets, 2))
        rows.append((n, max_nbhd <= n**3, max_nbhd, max_joint <= 4, max_joint))
    return rows
