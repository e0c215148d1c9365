"""Slow, obviously correct references that the fast paths are tested against.
Each trial here takes the same arguments as its counterpart in the package
and selects with one coin per object of the universe, or throws one ball at a
time; the counters and tables loop over pairs and subsets one at a time."""

from collections import defaultdict
from itertools import combinations
from math import factorial

import numpy as np

from threshold_lab import designs, perms, sidon, unionfree


def dense_bernoulli_ranks(universe_size, p, stream):
    """Indices kept by one independent p-coin per index of ``[universe_size]``."""
    return np.nonzero(stream.random(universe_size) < p)[0]


def count_union_collisions(family):
    """Group member pairs by union mask; a union class of c pairs gives C(c, 2)
    pairings, less those sharing a member (two distinct pairs share at most one)."""
    masks = list(family)
    if len(set(masks)) != len(masks):
        raise ValueError("family contains duplicate members")
    classes = defaultdict(list)
    for a, b in combinations(masks, 2):
        classes[a | b].append((a, b))
    total = 0
    for pairs in classes.values():
        member_uses = defaultdict(int)
        for a, b in pairs:
            member_uses[a] += 1
            member_uses[b] += 1
        total += len(pairs) * (len(pairs) - 1) // 2
        total -= sum(u * (u - 1) // 2 for u in member_uses.values())
    return total


def is_weakly_union_free(family):
    """True when no four distinct members satisfy A u B = C u D; stops at the first."""
    masks = list(family)
    if len(set(masks)) != len(masks):
        raise ValueError("family contains duplicate members")
    classes = defaultdict(list)
    for a, b in combinations(masks, 2):
        if any(len({a, b, c, d}) == 4 for c, d in classes[a | b]):
            return False
        classes[a | b].append((a, b))
    return True


def coverage_incidence(n, k, t):
    """Row i lists the colex ranks of the t-subsets inside the i-th lex k-subset."""
    rows = [
        [designs._colex_rank(sub) for sub in combinations(c, t)]
        for c in combinations(range(n), k)
    ]
    return np.asarray(rows, dtype=np.int64)


def union_collision_trial(stream, n, p):
    x = unionfree.count_union_collisions(dense_bernoulli_ranks(1 << n, p, stream).tolist())
    return x, x == 0


def design_deficiency_trial(stream, params, p):
    incidence = designs._coverage_incidence(params.n, params.k, params.t)
    selected = incidence[dense_bernoulli_ranks(len(incidence), p, stream)]
    profile = np.bincount(selected.ravel(), minlength=params.n_tsets)
    x = designs.deficiency_count(profile, params.lam)
    return x, x == 0


def perm_pack_trial(stream, n, lam, p):
    table = perms.pattern_rank_table(n)
    selected = table[dense_bernoulli_ranks(len(table), p, stream)]
    counts = np.bincount(selected.ravel(), minlength=factorial(n) + 1)[: factorial(n)]
    x = int(np.count_nonzero(counts > lam))
    return x, x == 0


def bh_g_trial(stream, n, h, g, p):
    elements = dense_bernoulli_ranks(n, p, stream) + 1
    top = int(sidon.representation_counts(elements, h).max()) if len(elements) else 0
    return top, top <= g


def waiting_time(n_boxes, lam, stream):
    """Throw balls one at a time until every box holds lam; return the count."""
    counts = [0] * n_boxes
    short = n_boxes  # boxes still holding fewer than lam
    thrown = 0
    while True:
        for box in stream.integers(0, n_boxes, size=4 * n_boxes).tolist():
            thrown += 1
            counts[box] += 1
            if counts[box] == lam:
                short -= 1
                if short == 0:
                    return thrown
