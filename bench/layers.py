"""Per-layer tracing of threshold-lab from outside the package.

Each public function on the CLI's path is wrapped at the module attribute
its caller resolves (``analysis.derive_stream`` for the per-trial stream,
``cli.map_trials`` for the CLI's fan-out, and so on), so no file under
``src/`` changes.  Counts are taken at the same boundaries: Philox words
from each trial's generator state, balls thrown, table builds from the
``lru_cache`` statistics, union pairs, representation bins, pool starts,
bisection probes.

The layers are the package modules: rng, balls, designs, perms, sidon,
unionfree, analysis and cli.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from threshold_lab import analysis, balls, cli, designs, perms, sidon, unionfree

from spans import Recorder, p50, self_times, tail

# (module, attribute, span name): the attribute the caller resolves at call time
_WRAPPED = (
    (analysis, "derive_stream", "rng.derive_stream"),
    (balls, "throw_balls", "rng.throw_balls"),
    (balls, "waiting_time", "balls.waiting_time"),
    (balls, "waiting_trial", "balls.waiting_trial"),
    (balls, "overfull_trial", "balls.overfull_trial"),
    (balls, "count_overfull", "balls.count_overfull"),
    (designs, "_coverage_incidence", "designs.coverage_incidence"),
    (designs, "deficiency_trial", "designs.deficiency_trial"),
    (designs, "overfull_trial", "designs.overfull_trial"),
    (designs, "deficiency_count", "designs.deficiency_count"),
    (designs, "overfull_count", "designs.overfull_count"),
    (perms, "pattern_rank_table", "perms.pattern_rank_table"),
    (perms, "cover_trial", "perms.cover_trial"),
    (perms, "pack_trial", "perms.pack_trial"),
    (sidon, "representation_counts", "sidon.representation_counts"),
    (sidon, "bh_g_trial", "sidon.bh_g_trial"),
    (sidon, "truncated_basis_trial", "sidon.truncated_basis_trial"),
    (unionfree, "count_union_collisions", "unionfree.count_union_collisions"),
    (unionfree, "union_collision_trial", "unionfree.union_collision_trial"),
    (analysis, "map_trials", "analysis.map_trials"),
    (cli, "map_trials", "analysis.map_trials"),
    (cli, "threshold_bisect", "analysis.threshold_bisect"),
)

# trial functions receive the trial's generator as their first argument
_TRIALS = {name for _, attr, name in _WRAPPED if attr.endswith("_trial")}
_DESIGN_TRIALS = ("designs.deficiency_trial", "designs.overfull_trial")

# per-span statistics reported; a tail is reported with .calls as its sample count
_FULL = ("calls", "self_s", "p50_ms", "tail_ms")
_SPAN_STATS = {
    "rng.derive_stream": ("calls", "self_s"),
    "rng.throw_balls": ("calls",),
    "balls.waiting_time": _FULL,
    "balls.overfull_trial": ("self_s",),
    "balls.count_overfull": ("self_s",),
    "designs.coverage_incidence": ("self_s",),
    "designs.deficiency_trial": _FULL,
    "designs.overfull_trial": _FULL,
    "designs.deficiency_count": ("self_s",),
    "designs.overfull_count": ("self_s",),
    "perms.pattern_rank_table": ("self_s",),
    "perms.cover_trial": _FULL,
    "perms.pack_trial": _FULL,
    "sidon.representation_counts": _FULL,
    "sidon.bh_g_trial": ("self_s",),
    "sidon.truncated_basis_trial": ("self_s",),
    "unionfree.count_union_collisions": ("self_s",),
    "unionfree.union_collision_trial": ("self_s",),
    "analysis.map_trials": ("calls", "self_s"),
    "analysis.threshold_bisect": ("self_s",),
    "cli.main": ("self_s",),
}
_STAT_UNIT = {"calls": "count", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms"}

# (name, unit, how it is obtained): "count" is read exactly, "computed" is
# derived from counts, "timed" is a clock reading
_EXTRA = (
    ("rng.words_drawn", "count", "count"),
    ("rng.words_per_trial", "count", "computed"),
    ("rng.throw_balls.balls", "count", "count"),
    ("designs.first_trial_s", "s", "timed"),
    ("perms.table_builds", "count", "count"),
    ("perms.table_mb", "MB", "computed"),
    ("sidon.table_bins", "count", "count"),
    ("unionfree.pairs", "count", "count"),
    ("analysis.map_trials.w2.calls", "count", "count"),
    ("analysis.map_trials.w2.self_s", "s", "timed"),
    ("analysis.pool_starts", "count", "count"),
    ("analysis.threshold_bisect.probes", "count", "count"),
    ("cli.output_bytes", "count", "count"),
    ("process.import_s", "s", "timed"),
    ("trace.overhead_frac", "ratio", "computed"),
)

# every per-layer metric: name -> (unit, kind); all of them are better lower
PER_LAYER = {
    f"{span}.{stat}": (_STAT_UNIT[stat], "count" if stat == "calls" else "timed")
    for span, stats in _SPAN_STATS.items()
    for stat in stats
}
PER_LAYER.update({name: (unit, kind) for name, unit, kind in _EXTRA})


def philox_words(stream) -> int:
    """64-bit words a Philox generator has handed out, from its counter and buffer."""
    state = stream.bit_generator.state
    counter = sum(int(v) << (64 * i) for i, v in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - state["buffer_pos"]) if counter else 0


def fresh_process_caches() -> None:
    """Drop the per-process table caches, so each in-process line pays its
    table builds as a fresh CLI process would."""
    for fn in (designs._coverage_incidence, designs._kset_masks, perms.pattern_rank_table):
        while not hasattr(fn, "cache_clear"):  # under a tracing wrapper
            fn = fn.__wrapped__
        fn.cache_clear()


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.recorder = Recorder()
        self.counts: Counter = Counter()

    def _after(self, name: str):
        counts = self.counts
        if name in _TRIALS:
            def after(args, kwargs, result):
                counts["trials"] += 1
                counts["rng.words_drawn"] += philox_words(args[0])
        elif name == "rng.throw_balls":
            def after(args, kwargs, result):
                counts["rng.throw_balls.balls"] += int(args[0])
        elif name == "perms.pattern_rank_table":
            def after(args, kwargs, result):
                counts["table_bytes"] = max(counts["table_bytes"], result.nbytes)
        elif name == "sidon.representation_counts":
            def after(args, kwargs, result):
                counts["sidon.table_bins"] += len(result)
        elif name == "unionfree.count_union_collisions":
            def after(args, kwargs, result):
                m = len(args[0])
                counts["unionfree.pairs"] += m * (m - 1) // 2
        elif name == "analysis.map_trials":
            def after(args, kwargs, result):
                workers = args[3] if len(args) > 3 else kwargs.get("workers", 1)
                if workers > 1 and args[1] > 1:
                    counts["analysis.pool_starts"] += 1
        elif name == "analysis.threshold_bisect":
            def after(args, kwargs, result):
                counts["analysis.threshold_bisect.probes"] += len(result.rows)
        else:
            after = None
        return after

    @contextmanager
    def installed(self, line: str):
        """Wrap the layer functions for one line's run, then restore them."""
        self.recorder.line = line
        saved = []
        try:
            for module, attr, name in _WRAPPED:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.recorder.wrap(name, original, self._after(name)))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        self.counts["perms.table_builds"] += perms.pattern_rank_table.cache_info().misses

    def call_main(self, argv) -> int:
        return self.recorder.wrap("cli.main", cli.main)(argv)


def _span_stats(tracer: Tracer) -> dict[str, float]:
    spans = tracer.recorder.spans
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_sum: Counter = Counter()
    for span, own in zip(spans, selfs):
        durations.setdefault(span.name, []).append(span.end - span.start)
        self_sum[span.name] += own
    out = {}
    for name, stats in _SPAN_STATS.items():
        times = durations.get(name, [])
        for stat in stats:
            if stat == "calls":
                value = len(times)
            elif stat == "self_s":
                value = self_sum[name]
            elif stat == "p50_ms":
                value = 1e3 * p50(times)
            else:
                value = 1e3 * tail(times)
            out[f"{name}.{stat}"] = value
    return out


def first_trial_s(tracer: Tracer) -> float:
    """Sum over lines of the first design trial's duration, table build included."""
    seen = set()
    total = 0.0
    for span in tracer.recorder.spans:
        if span.name in _DESIGN_TRIALS and span.line not in seen:
            seen.add(span.line)
            total += span.end - span.start
    return total


def pass_metrics(w1: Tracer, w2: Tracer, traced_s: float, untraced_s: float,
                 import_s: float, output_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one pass: w1 spans and counts, w2 parent side."""
    out = _span_stats(w1)
    counts = w1.counts
    w2_stats = _span_stats(w2)
    out.update({
        "rng.words_drawn": counts["rng.words_drawn"],
        "rng.words_per_trial": counts["rng.words_drawn"] / counts["trials"] if counts["trials"] else 0.0,
        "rng.throw_balls.balls": counts["rng.throw_balls.balls"],
        "designs.first_trial_s": first_trial_s(w1),
        "perms.table_builds": counts["perms.table_builds"],
        "perms.table_mb": counts["table_bytes"] / 1e6,
        "sidon.table_bins": counts["sidon.table_bins"],
        "unionfree.pairs": counts["unionfree.pairs"],
        "analysis.map_trials.w2.calls": w2_stats["analysis.map_trials.calls"],
        "analysis.map_trials.w2.self_s": w2_stats["analysis.map_trials.self_s"],
        "analysis.pool_starts": w2.counts["analysis.pool_starts"],
        "analysis.threshold_bisect.probes": counts["analysis.threshold_bisect.probes"],
        "cli.output_bytes": output_bytes,
        "process.import_s": import_s,
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return out
