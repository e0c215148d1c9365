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
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .analysis import (binomial_tail, clamp_probability, deficiency_count, overfull_count,
                       selected_row_counts)
from .errors import BudgetExceededError, check_budget

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

_MAX_N = 30
# largest k-set universe we will enumerate
_MAX_UNIVERSE = 1 << 22


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
        if self.n > _MAX_N:
            raise ValueError(f"n is capped at {_MAX_N}")
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
def _kset_masks(n: int, k: int) -> np.ndarray:
    """All k-subset masks of [n] in lexicographic member order.

    No trial calls this; it stays while ``bench/layers.py`` clears its cache.
    """
    u = comb(n, k)
    if u > _MAX_UNIVERSE:
        raise BudgetExceededError(
            f"C({n},{k}) = {u} k-sets exceed the enumeration budget"
        )
    masks = np.empty(u, dtype=np.int64)
    for i, c in enumerate(combinations(range(n), k)):
        m = 0
        for e in c:
            m |= 1 << e
        masks[i] = m
    return masks


@lru_cache(maxsize=8)
def _coverage_incidence(n: int, k: int, t: int) -> np.ndarray:
    """Row i lists the colex ranks of the t-subsets inside the i-th k-subset.

    Column j takes the members at the j-th t-combination of the k positions;
    the colex rank of e_0 < ... < e_{t-1} is sum_i C(e_i, i + 1), one gather
    per position from a table of C(e, i + 1), added up in the smallest
    unsigned dtype that holds C(n, t).  Gather table entries are clipped to
    C(n, t); no k-set reaches a clipped one, and each partial sum of a rank
    is at most the rank, so no sum overflows.  The k-sets are enumerated as
    uint8 (n <= 30).
    """
    u = comb(n, k)
    # charged at 16 bytes a table cell and a k-set member, above what the build
    # traces, so that past 2^22 rows it is over the budget for every valid
    # (n, k, t) and stands as the row cap
    check_budget(16 * u * (comb(k, t) + k), f"incidence tables of C({n},{k}) x C({k},{t}) ranks")
    n_tsets = comb(n, t)
    dtype = np.min_scalar_type(n_tsets)
    ksets = np.fromiter(
        chain.from_iterable(combinations(range(n), k)), dtype=np.uint8, count=u * k
    ).reshape(u, k)
    out = np.zeros((u, comb(k, t)), dtype=dtype)
    for i, positions in enumerate(zip(*combinations(range(k), t))):
        binom = np.array([min(comb(e, i + 1), n_tsets) for e in range(n)], dtype=dtype)
        out += binom[ksets[:, positions]]
    return out


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


def _profile_from_selection(
    params: DesignParams, p: float, stream: np.random.Generator
) -> np.ndarray:
    """Per-t-subset coverage counts of one Bernoulli(p) family, by colex rank."""
    incidence = _coverage_incidence(params.n, params.k, params.t)
    return selected_row_counts(incidence, params.n_tsets, p, stream)


def deficiency_trial(
    stream: np.random.Generator, params: DesignParams, p: float
) -> tuple[int, bool]:
    """One covering trial: (deficiency count X, X == 0)."""
    x = deficiency_count(_profile_from_selection(params, p, stream), params.lam)
    return x, x == 0


def overfull_trial(
    stream: np.random.Generator, params: DesignParams, p: float
) -> tuple[int, bool]:
    """One packing trial: (overfull count X, X == 0)."""
    x = overfull_count(_profile_from_selection(params, p, stream), params.lam)
    return x, x == 0
