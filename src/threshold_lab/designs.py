"""Random families of k-subsets of [n] and their t-subset coverage structure.

A random family selects every k-subset independently with probability p.
Each t-subset is then covered by some number of selected supersets; the
deficiency and overfull counts of the shared coverage core (``analysis``)
drive the covering and packing experiments, and ``expected_deficient``
evaluates the matching exact binomial expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, combinations
from math import comb

import numpy as np

from .analysis import (binomial_tail, chunk_row_counts, chunked, clamp_probability,
                       deficiency_count, overfull_count, selected_row_counts)
from .errors import check_budget

__all__ = [
    "DesignParams",
    "deficiency_count",
    "overfull_count",
    "covering_threshold_p",
    "packing_threshold_p",
    "expected_deficient",
    "deficiency_trial",
    "overfull_trial",
]


@dataclass(frozen=True)
class DesignParams:
    """Problem sizes: t-subsets of [n] covered by selected k-subsets."""

    n: int
    k: int
    t: int
    lam: int = 1

    def __post_init__(self):
        if not 1 <= self.t < self.k <= self.n:
            raise ValueError("need 1 <= t < k <= n")
        # the float64 counts C(n, t) and C(n - t, k - t) must be exact, and their
        # product is C(n, k) * C(k, t); as C(a, b) >= 2^min(b, a - b), a side
        # past 53 is refused before any binomial is computed
        if (max(min(self.k, self.n - self.k), min(self.t, self.k - self.t)) > 53
                or comb(self.n, self.k) * comb(self.k, self.t) > 1 << 53):
            raise ValueError("need C(n,k) * C(k,t) <= 2^53, exact in float64")
        if self.lam < 1:
            raise ValueError("lam must be at least 1")

    @property
    def n_tsets(self) -> int:
        return comb(self.n, self.t)

    @property
    def supersets_per_tset(self) -> int:
        """Number of k-subsets containing a fixed t-subset: C(n-t, k-t)."""
        return comb(self.n - self.t, self.k - self.t)


@lru_cache(maxsize=8)
def _coverage_incidence(n: int, k: int, t: int) -> np.ndarray:
    """Row i lists the colex ranks of the t-subsets inside the i-th k-subset.

    Column j takes the members at the j-th t-combination of the k positions;
    the colex rank of e_0 < ... < e_{t-1} is sum_i C(e_i, i + 1), one gather
    per position from a table of C(e, i + 1).  Each table is the running sum
    of the one before (C(e, i + 2) sums C(m, i + 1) over m < e), kept modulo
    2^64, and the ranks are added up modulo the range of the smallest
    unsigned dtype that holds C(n, t), which is exact as every rank is below
    C(n, t).  Members and positions are enumerated in the smallest unsigned
    dtypes that hold n - 1 and k - 1.
    """
    u, cols = comb(n, k), comb(k, t)
    # charged above what the build traces: 16 bytes a table cell and a k-set
    # member (over the budget past 2^23 rows, and past 2^22 once k >= 4), 4 a
    # position, 48 an element of [n] and of the k positions (the Python ints
    # that enumerate them, and the gather tables), and 2 a cell for the
    # gathers of each pass, which bounds the time of the t passes with the table
    check_budget(16 * u * (cols + k) + 4 * t * cols + 48 * (n + k),
                 f"incidence tables of C({n},{k}) x C({k},{t}) ranks")
    check_budget(2 * t * u * cols, f"the {t} gather passes over C({n},{k}) x C({k},{t}) cells")
    dtype = np.min_scalar_type(comb(n, t))
    ksets = np.fromiter(chain.from_iterable(combinations(range(n), k)),
                        dtype=np.min_scalar_type(n - 1), count=u * k).reshape(u, k)
    positions = np.fromiter(chain.from_iterable(combinations(range(k), t)),
                            dtype=np.min_scalar_type(k - 1), count=cols * t).reshape(cols, t)
    out = np.zeros((u, cols), dtype=dtype)
    binom = np.arange(n, dtype=np.uint64)  # C(e, 1)
    for column_positions in positions.T:
        out += binom.astype(dtype)[ksets[:, column_positions]]
        binom = np.cumsum(binom) - binom
    return out


# not called by any trial: ``bench/layers.py`` clears the table caches by this
# name, so it stays an alias until the benchmark stops naming it
_kset_masks = _coverage_incidence


def covering_threshold_p(params: DesignParams, r: float) -> float:
    """Selection probability at offset r on the lam-covering threshold curve.

    (ln C(n,t) + (lam-1) ln ln C(n,t) + r) / C(n-t,k-t); at lam = 1 the
    iterated-log term drops and this is the plain covering threshold.
    Values outside [0, 1] are pinned to the nearest endpoint (the
    far-from-threshold limit for extreme r); a nan r raises ValueError.
    """
    n_t = params.n_tsets
    if n_t < 3:
        raise ValueError("C(n,t) must be at least 3 (ln ln must be positive)")
    return clamp_probability((
        math.log(n_t) + (params.lam - 1) * math.log(math.log(n_t)) + r
    ) / params.supersets_per_tset)


def packing_threshold_p(params: DesignParams) -> float:
    """Selection probability below which lam-packing holds whp: n^-((k-t)+t/(lam+1))."""
    expo = (params.k - params.t) + params.t / (params.lam + 1)
    return params.n ** -expo


def expected_deficient(params: DesignParams, p: float) -> float:
    """Exact expected number of t-subsets covered at most lam - 1 times:
    C(n,t) * P(Binomial(M, p) <= lam - 1) with M = C(n-t,k-t)."""
    m = params.supersets_per_tset
    return params.n_tsets * binomial_tail(m, p, 0, min(params.lam - 1, m))


def _incidence_rows(params: DesignParams) -> tuple:
    """The coverage core's arguments for this design's incidence, before p:
    the ranks of the t-subsets of each k-subset, one column per k-subset."""
    incidence = _coverage_incidence(params.n, params.k, params.t)
    return (lambda ranks: np.take(incidence, ranks, axis=0).T, len(incidence),
            incidence.shape[1], params.n_tsets)


def _profile_from_selection(
    params: DesignParams, p: float, stream: np.random.Generator
) -> np.ndarray:
    """Per-t-subset coverage counts of one Bernoulli(p) family, by colex rank."""
    return selected_row_counts(*_incidence_rows(params), p, stream)


def _design_chunk(cover: bool, seed: int, indices: range, params: DesignParams,
                  p: float) -> list[tuple[int, bool]]:
    """The deficiency (``cover``) or overfull trials of ``indices``, counted a
    chunk of profiles at a time."""
    count = partial(deficiency_count if cover else overfull_count, lam=params.lam)
    xs = chunk_row_counts(*_incidence_rows(params), p, seed, indices, count)
    return [(x, x == 0) for x in xs]


@chunked(partial(_design_chunk, True))
def deficiency_trial(
    stream: np.random.Generator, params: DesignParams, p: float
) -> tuple[int, bool]:
    """One covering trial: (deficiency count X, X == 0)."""
    x = deficiency_count(_profile_from_selection(params, p, stream), params.lam)
    return x, x == 0


@chunked(partial(_design_chunk, False))
def overfull_trial(
    stream: np.random.Generator, params: DesignParams, p: float
) -> tuple[int, bool]:
    """One packing trial: (overfull count X, X == 0)."""
    x = overfull_count(_profile_from_selection(params, p, stream), params.lam)
    return x, x == 0
