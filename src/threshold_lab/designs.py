"""Random families of k-subsets of [n] and their t-subset coverage structure.

A random family selects every k-subset independently with probability p.
Each t-subset is then covered by some number of selected supersets; the
deficiency and overfull counts below drive the covering and packing
experiments, and ``expected_deficient`` evaluates the matching exact
binomial expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import BudgetExceededError, check_budget
from .rng import bernoulli_ranks

__all__ = [
    "DesignParams",
    "KSetFamily",
    "sample_design_family",
    "coverage_profile",
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
# largest family materialized through rank sampling
_MAX_FAMILY = 1 << 21


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


@dataclass(frozen=True)
class KSetFamily:
    """A duplicate-free family of k-subsets of [n], stored as n-bit masks."""

    n: int
    k: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.masks)) != len(self.masks):
            raise ValueError("family contains duplicate members")
        for m in self.masks:
            if m >> self.n:
                raise ValueError("mask exceeds the ground set")
            if bin(m).count("1") != self.k:
                raise ValueError("member is not a k-subset")

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, mask: int) -> bool:
        return mask in set(self.masks)


def _colex_rank(sub: tuple[int, ...]) -> int:
    """Colexicographic rank of a sorted subset of non-negative integers."""
    return sum(comb(e, i + 1) for i, e in enumerate(sub))


def _colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    out = []
    r = rank
    for i in range(k, 0, -1):
        e = i - 1
        while comb(e + 1, i) <= r:
            e += 1
        out.append(e)
        r -= comb(e, i)
    return tuple(reversed(out))


@lru_cache(maxsize=8)
def _kset_masks(n: int, k: int) -> np.ndarray:
    """All k-subset masks of [n] in lexicographic member order."""
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
    per position from a table of binomials.
    """
    u = comb(n, k)
    if u > _MAX_UNIVERSE:
        raise BudgetExceededError(f"C({n},{k}) = {u} k-sets exceed the enumeration budget")
    # live at once: the table, one gathered temporary of its size, two u x k arrays
    check_budget(16 * u * (comb(k, t) + k), f"incidence tables of C({n},{k}) x C({k},{t}) ranks")
    ksets = np.fromiter(
        chain.from_iterable(combinations(range(n), k)), dtype=np.int64, count=u * k
    ).reshape(u, k)
    out = np.zeros((u, comb(k, t)), dtype=np.int64)
    for i, positions in enumerate(zip(*combinations(range(k), t))):
        binom = np.array([comb(e, i + 1) for e in range(n)], dtype=np.int64)
        out += binom[ksets][:, positions]
    return out


def sample_design_family(
    params: DesignParams, p: float, stream: np.random.Generator
) -> KSetFamily:
    """Select every k-subset of [n] independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    u = comb(params.n, params.k)
    if u <= _MAX_UNIVERSE:
        universe = _kset_masks(params.n, params.k)
        chosen = universe[bernoulli_ranks(u, p, stream)]
        return KSetFamily(params.n, params.k, tuple(int(m) for m in chosen))
    # universe too large to enumerate: the same two draws as bernoulli_ranks,
    # with the family size checked before any rank is drawn
    size = int(stream.binomial(u, p))
    if size > _MAX_FAMILY:
        raise BudgetExceededError(f"sampled family of {size} members exceeds budget")
    ranks: set[int] = set()
    while len(ranks) < size:
        ranks.add(int(stream.integers(0, u)))
    masks = []
    for r in sorted(ranks):
        m = 0
        for e in _colex_unrank(r, params.k):
            m |= 1 << e
        masks.append(m)
    return KSetFamily(params.n, params.k, tuple(masks))


def coverage_profile(family: KSetFamily, params: DesignParams) -> np.ndarray:
    """Per-t-subset coverage counts, indexed by colex rank.

    Iterates family members over their C(k, t) contained t-subsets, which is
    the cheap direction for the sparse families that arise near thresholds.
    """
    if family.n != params.n or family.k != params.k:
        raise ValueError("family and params disagree on (n, k)")
    counts = np.zeros(params.n_tsets, dtype=np.int64)
    for mask in family.masks:
        bits = tuple(e for e in range(params.n) if mask >> e & 1)
        for sub in combinations(bits, params.t):
            counts[_colex_rank(sub)] += 1
    return counts


def deficiency_count(profile: np.ndarray, lam: int) -> int:
    """Number of t-subsets covered at most lam - 1 times."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    return int(np.count_nonzero(profile <= lam - 1))


def overfull_count(profile: np.ndarray, lam: int) -> int:
    """Number of t-subsets covered at least lam + 1 times."""
    if lam < 1:
        raise ValueError("lam must be at least 1")
    return int(np.count_nonzero(profile >= lam + 1))


def covering_threshold_p(params: DesignParams, r: float, clamp: bool = False) -> float:
    """Selection probability at offset r on the lam-covering threshold curve.

    (ln C(n,t) + (lam-1) ln ln C(n,t) + r) / C(n-t,k-t); at lam = 1 the
    iterated-log term drops and this is the plain covering threshold.
    Values outside [0, 1] are rejected unless ``clamp`` is set, in which
    case they are pinned to the nearest endpoint (the far-from-threshold
    limit for extreme r).
    """
    n_t = params.n_tsets
    if n_t < 3:
        raise ValueError("C(n,t) must be at least 3 (ln ln must be positive)")
    p = (
        math.log(n_t) + (params.lam - 1) * math.log(math.log(n_t)) + r
    ) / params.supersets_per_tset
    if not 0.0 <= p <= 1.0:
        if not clamp:
            raise ValueError(f"threshold expression {p:.6g} falls outside [0, 1]")
        p = min(1.0, max(0.0, p))
    return p


def packing_threshold_p(params: DesignParams) -> float:
    """Selection probability below which lam-packing holds whp: n^-((k-t)+t/(lam+1))."""
    expo = (params.k - params.t) + params.t / (params.lam + 1)
    return params.n ** -expo


def expected_deficient(params: DesignParams, p: float) -> float:
    """Exact expected number of t-subsets covered at most lam - 1 times.

    C(n,t) * sum_{j<lam} C(M,j) p^j (1-p)^(M-j) with M = C(n-t,k-t),
    evaluated term-exactly (integer binomials, log-space powers).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    m = params.supersets_per_tset
    terms = []
    for j in range(params.lam):
        if p == 0.0:
            terms.append(1.0 if j == 0 else 0.0)
        elif p == 1.0:
            terms.append(1.0 if j == m else 0.0)
        else:
            terms.append(
                math.exp(
                    math.log(comb(m, j)) + j * math.log(p) + (m - j) * math.log1p(-p)
                )
            )
    return params.n_tsets * math.fsum(terms)


def _profile_from_selection(
    params: DesignParams, p: float, stream: np.random.Generator
) -> np.ndarray:
    incidence = _coverage_incidence(params.n, params.k, params.t)
    selected = bernoulli_ranks(len(incidence), p, stream)
    return np.bincount(incidence[selected].ravel(), minlength=params.n_tsets)


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
