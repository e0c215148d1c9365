"""threshold-lab: packing/covering threshold experiments with exact oracles.

Four random combinatorial models share one progression: each target object
may be covered at most once, at most lam times, at least once, or at least
lam times by a random selection.  This package samples the models, checks
the properties exactly, evaluates every closed-form threshold expression,
and locates the empirical transitions.
"""

import importlib

__version__ = "0.3.0"

# module -> the public names it defines; each is imported on first access
# (PEP 562), so importing the package, and so starting the CLI, loads no numpy
_PUBLIC = {
    "analysis": "EULER_GAMMA MonteCarloSummary ThresholdScan binomial_tail "
                "gumbel_sup_distance loglog_slope map_trials poisson_tv_distance run_trials "
                "threshold_bisect wilson_interval",
    "balls": "OccupancyState count_overfull normalize_waiting_time packing_threshold_n "
             "waiting_time waiting_time_mean",
    "designs": "DesignParams covering_threshold_p deficiency_count expected_deficient "
               "overfull_count packing_threshold_p",
    "errors": "BracketError BudgetExceededError",
    "perms": "packing_threshold_bounds",
    "rng": "bernoulli_ranks derive_stream throw_balls",
    "sidon": "basis_threshold_p count_equal_sum_tuples representation_counts "
             "sidon_threshold_k",
    "unionfree": "count_union_collisions janson_delta_bound "
                 "union_obstacle_bruteforce union_obstacle_count wuf_threshold_p",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_PUBLIC, *_MODULE_OF})
