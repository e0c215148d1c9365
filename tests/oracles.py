"""Slow, obviously correct reference samplers that the fast paths are tested
against.  Each trial here takes the same arguments as its counterpart in the
package and selects with one coin per object of the universe, or throws one
ball at a time."""

from math import factorial

import numpy as np

from threshold_lab import designs, perms, sidon, unionfree


def dense_bernoulli_ranks(universe_size, p, stream):
    """Indices kept by one independent p-coin per index of ``[universe_size]``."""
    return np.nonzero(stream.random(universe_size) < p)[0]


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
