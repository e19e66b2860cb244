"""Metric arithmetic for the repository benchmark.

The C++ driver only measures: it writes raw per-call samples, per-trial
counters and spans. Everything statistical lives here, in plain Python,
so it can be unit-tested (see test_perfbench.py):

- summary statistics (min, quartiles, median, max) of a sample series;
- the tail rule: the highest percentile that still has at least ten
  samples beyond it;
- span self time: a span's duration minus the part of it its children
  cover;
- stall counting and the failed fraction;
- the mean iteration count: the median of a small integer flips by a
  whole iteration when the share of solves that need one more crosses
  one half, while the mean moves with that share;
- the mapping from raw series to the named end-to-end and per-layer
  metrics listed in METRICS.md.
"""

import math
import statistics

# Percentiles the tail rule may report, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
STALL_FACTOR = 10.0


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples (rounded
    first, so 99.9 % of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank p-th percentile of a non-empty sample."""
    xs = sorted(values)
    return xs[rank(len(xs), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail(values, min_beyond=MIN_BEYOND):
    """(p, value) for the highest ladder percentile with at least
    `min_beyond` samples beyond it, or None when the sample is too small."""
    n = len(values)
    for p in TAIL_LADDER:
        if beyond(n, p) >= min_beyond:
            return p, percentile(values, p)
    return None


def summary(values):
    """Min, quartiles, median, max, sample count and tail of a series."""
    xs = list(values)
    if not xs:
        return None
    med = statistics.median(xs)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = med
    t = tail(xs)
    return {
        "n": len(xs),
        "min": min(xs),
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": max(xs),
        "tail_pct": t[0] if t else None,
        "tail": t[1] if t else None,
        "stalls": stalls(xs),
    }


def stalls(values, factor=STALL_FACTOR):
    """Samples slower than `factor` times the series median."""
    if not values:
        return 0
    med = statistics.median(values)
    return sum(1 for v in values if v > factor * med)


def failed_frac(attempted, failed):
    """Share of attempted operations that failed (0 when none attempted)."""
    return failed / attempted if attempted else 0.0


def union_length(intervals, lo, hi):
    """Length of the union of [a, b) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


SPAN_FIELDS = ("name", "start", "end", "parent", "trial", "request")


def span_rows(spans):
    """The driver's span objects as [name, start, end, parent, trial,
    request] rows, the form every span function here takes."""
    return [[s[k] for k in SPAN_FIELDS] for s in spans]


def self_times(spans):
    """Self time of every span: duration minus the union of its children's
    intervals (clipped to the span). `spans` are span_rows() rows; parent
    is an index or -1."""
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [
        (s[2] - s[1]) - union_length(children[i], s[1], s[2])
        for i, s in enumerate(spans)
    ]


def span_durations(spans, name):
    return [s[2] - s[1] for s in spans if s[0] == name]


# ---------------------------------------------------------------- catalogue
#
# Each entry: name -> (unit, better, layer, kind, source).
#   kind "median":  median of samples[source]; a tuple source names
#                   alternatives, and the first series that has samples
#                   is used (serve_customize records its solve-path probe
#                   under "probe.")
#   kind "counter": median of counters[source]
#   kind "mean":    mean of counters[source]
#   kind "max":     largest per-trial counter value (any growth shows)
#   kind "p99":     nearest-rank 99th percentile of samples[source]
#   kind "span":    median duration of spans named source
#   kind "derived": computed at the end of compute()

END_TO_END = {
    "setup_s": ("s", "lower", "solver/serve", "median", "setup_s"),
    "mis2_s": ("s", "lower", "core", "median", "mis2_s"),
    "aggregate_s": ("s", "lower", "core", "median", "aggregate_s"),
    "solve_s": ("s", "lower", "solver", "median", "solve_s"),
    "iterations": ("count", "lower", "solver", "mean", "iterations"),
    "batch_solve_s": ("s", "lower", "solver/serve", "median", "batch_solve_s"),
    "solves_per_s": ("1/s", "higher", "solver/serve", "median", "solves_per_s"),
    "latency_p50_ms": ("ms", "lower", "solver/serve", "median", "latency_ms"),
    "customize_s": ("s", "lower", "multilevel/serve", "median", "customize_s"),
    "peak_rss_mb": ("MB", "lower", "process", "median", "peak_rss_mb"),
}

PER_LAYER = {
    "latency_p99_ms": ("ms", "lower", "solver/serve", "p99", "latency_ms"),
    "core.mis2.rounds": ("count", "lower", "core", "counter", "core.mis2.rounds"),
    "core.mis2.set_size": ("count", "higher", "core", "counter", "core.mis2.set_size"),
    "core.mis2.edges_per_s": ("1/s", "higher", "core", "median", "core.mis2.edges_per_s"),
    "core.aggregate.count": ("count", "lower", "core", "counter", "core.aggregate.count"),
    "core.aggregate.rounds": ("count", "lower", "core", "counter", "core.aggregate.rounds"),
    "core.aggregate_s": ("s", "lower", "core", "span", "core.aggregate"),
    "setup.total_s": ("s", "lower", "solver", "median", ("probe.setup_s", "setup_s")),
    "multilevel.aggregation_s": ("s", "lower", "multilevel", "median",
                                 "multilevel.aggregation_s"),
    "multilevel.galerkin_s": ("s", "lower", "multilevel", "median", "multilevel.galerkin_s"),
    "setup.unattributed_s": ("s", "lower", "solver", "derived", None),
    "multilevel.levels": ("count", "lower", "multilevel", "counter", "multilevel.levels"),
    "multilevel.level_nnz": ("count", "lower", "multilevel", "counter",
                             "multilevel.level_nnz"),
    "multilevel.operator_complexity": ("ratio", "lower", "multilevel", "counter",
                                       "multilevel.operator_complexity"),
    "multilevel.max_coarse_density": ("ratio", "lower", "multilevel", "counter",
                                      "multilevel.max_coarse_density"),
    "graph.spgemm.rows_traversed": ("count", "lower", "graph", "counter",
                                    "graph.spgemm.rows_traversed"),
    "graph.spmv_s": ("s", "lower", "graph", "span", "graph.spmv"),
    "graph.spmv_computed_bytes": ("B", "lower", "graph", "counter",
                                  "graph.spmv_computed_bytes"),
    "graph.spmm_s": ("s", "lower", "graph", "span", "graph.spmm"),
    "graph.spmm_computed_bytes": ("B", "lower", "graph", "counter",
                                  "graph.spmm_computed_bytes"),
    "solver.prec_apply_s": ("s", "lower", "solver", "span", "solver.prec_apply"),
    "solver.solve_s": ("s", "lower", "solver", "median", ("probe.solve_s", "solve_s")),
    "solver.iteration_s": ("s", "lower", "solver", "median", "solver.iteration_s"),
    "solver.other_s": ("s", "lower", "solver", "derived", None),
    "solver.scratch_grows": ("count", "lower", "solver", "max", "solver.scratch_grows"),
    "solver.prec_setups": ("count", "lower", "solver", "max", "solver.prec_setups"),
    "serve.pool.warm_hit_ratio": ("ratio", "higher", "serve", "counter",
                                  "serve.pool.warm_hit_ratio"),
    "serve.pool.level_adoptions": ("count", "lower", "serve", "counter",
                                   "serve.pool.level_adoptions"),
    "serve.pool.prec_builds": ("count", "lower", "serve", "counter",
                               "serve.pool.prec_builds"),
    "serve.pool.evictions": ("count", "lower", "serve", "counter", "serve.pool.evictions"),
    "serve.epochs_published": ("count", "higher", "serve", "counter",
                               "serve.epochs_published"),
    "stalls": ("count", "lower", "all", "derived", None),
    "failed_frac": ("ratio", "lower", "all", "derived", None),
    "trace.overhead_frac": ("ratio", "lower", "bench", "derived", None),
    "bench.trial_self_s": ("s", "lower", "bench", "derived", None),
}

# End-to-end timing series whose outliers count as stalls.
STALL_SERIES = ("setup_s", "mis2_s", "aggregate_s", "solve_s", "batch_solve_s",
                "latency_ms", "customize_s")


def _series(samples, source):
    if isinstance(source, tuple):
        return next((samples[s] for s in source if samples.get(s)), [])
    return samples.get(source, [])


def _value(kind, source, samples, counters, spans):
    if kind == "median":
        xs = _series(samples, source)
        return statistics.median(xs) if xs else 0.0, xs
    if kind == "counter":
        xs = counters.get(source, [])
        return statistics.median(xs) if xs else 0.0, xs
    if kind == "mean":
        xs = counters.get(source, [])
        return statistics.fmean(xs) if xs else 0.0, xs
    if kind == "max":
        xs = counters.get(source, [])
        return max(xs) if xs else 0.0, xs
    if kind == "p99":
        xs = samples.get(source, [])
        return percentile(xs, 99.0) if xs else 0.0, xs
    if kind == "span":
        xs = span_durations(spans, source)
        return statistics.median(xs) if xs else 0.0, xs
    raise ValueError(kind)


def compute(run, catalogue):
    """Named metrics of one driver run: name -> (value, unit, series).

    Metrics whose layer the workload does not run (e.g. serve.pool.* on
    mesh_amg) read 0, documented in METRICS.md."""
    samples, counters, spans = run["samples"], run["counters"], run["spans"]
    out = {}
    for name, (unit, _better, _layer, kind, source) in catalogue.items():
        if kind == "derived":
            continue
        value, xs = _value(kind, source, samples, counters, spans)
        out[name] = (value, unit, xs)
    # Residual rows are differences of the printed medians, so each
    # decomposition adds up exactly to the total printed beside it.
    if "setup.unattributed_s" in catalogue:
        rest = out["setup.total_s"][0] - out["multilevel.aggregation_s"][0] - \
            out["multilevel.galerkin_s"][0]
        out["setup.unattributed_s"] = (rest, "s", [])
    if "solver.other_s" in catalogue:
        other = out["solver.iteration_s"][0] - out["graph.spmv_s"][0] - \
            out["solver.prec_apply_s"][0]
        out["solver.other_s"] = (other, "s", [])
    if "stalls" in catalogue:
        n = sum(stalls(samples.get(k, [])) for k in STALL_SERIES)
        out["stalls"] = (n, "count", [])
    if "failed_frac" in catalogue:
        out["failed_frac"] = (failed_frac(run["attempted"], run["failed"]), "ratio", [])
    if "trace.overhead_frac" in catalogue:
        u = samples.get("trace.trial_untraced_s", [])
        t = samples.get("trace.trial_traced_s", [])
        frac = statistics.median(t) / statistics.median(u) - 1.0 if u and t else 0.0
        out["trace.overhead_frac"] = (frac, "ratio", [])
    if "bench.trial_self_s" in catalogue:
        selfs = self_times(spans)
        xs = [selfs[i] for i, s in enumerate(spans) if s[0] == "trial"]
        out["bench.trial_self_s"] = (statistics.median(xs) if xs else 0.0, "s", xs)
    return {name: out[name] for name in catalogue}  # catalogue order: parts beside totals
