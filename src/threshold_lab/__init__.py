"""threshold-lab: packing/covering threshold experiments with exact oracles.

Four random combinatorial models share one progression: each target object
may be covered at most once, at most lam times, at least once, or at least
lam times by a random selection.  This package samples the models, checks
the properties exactly, evaluates every closed-form threshold expression,
and locates the empirical transitions.
"""

from .analysis import (
    EULER_GAMMA,
    MonteCarloSummary,
    ThresholdScan,
    binomial_tail,
    binomial_tail_term_ratio,
    gumbel_sup_distance,
    loglog_slope,
    map_trials,
    poisson_tv_distance,
    run_trials,
    threshold_bisect,
    wilson_interval,
)
from .balls import (
    OccupancyState,
    count_overfull,
    normalize_waiting_time,
    packing_threshold_n,
    waiting_time,
    waiting_time_mean,
)
from .designs import (
    DesignParams,
    KSetFamily,
    coverage_profile,
    covering_threshold_p,
    deficiency_count,
    expected_deficient,
    overfull_count,
    packing_threshold_p,
    sample_design_family,
)
from .errors import BracketError, BudgetExceededError
from .perms import (
    count_undercovered,
    covering_set,
    covers,
    delete_and_flatten,
    joint_cover_neighborhood,
    joint_covers,
    packing_threshold_bounds,
)
from .rng import (
    IndexSubset,
    derive_stream,
    sample_bernoulli_subset,
    sample_uniform_subset,
    throw_balls,
)
from .sidon import (
    basis_threshold_p,
    count_equal_sum_tuples,
    is_bh_g,
    is_truncated_basis,
    representation_counts,
    sidon_threshold_k,
)
from .unionfree import (
    count_union_collisions,
    determining_pairs,
    janson_delta_bound,
    union_obstacle_bruteforce,
    union_obstacle_count,
    wuf_threshold_p,
)

__version__ = "0.1.0"
