"""Metric definitions and the arithmetic that turns request samples into metrics.

End-to-end metrics come from untraced rounds; per-layer metrics from the
traced round of a `--trace 1` run, named `<layer>.<fn>.<stat>`.
"""

import statistics

import workloads

# name -> unit of the end-to-end metrics, listed in BENCHMARK.json with their bounds.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Printed next to them but not gated; README.md says why.
PRINTED_ONLY = {"req_p50_ms": "ms", "req_tail_ms": "ms", "failed_frac": "ratio"}

MODULES = ("acceptance", "cli", "clzeta", "hall", "laurent", "oracle",
           "partitions", "quotzeta", "report", "series", "tables")


def _span(name, stat):
    return lambda s: s["spans"].get(name, [0, 0.0, 0.0])[{"calls": 0, "self_s": 2}[stat]]


def _self_sum(*names):
    return lambda s: sum(_span(n, "self_s")(s) for n in names)


def _prefix_self(prefix):
    return lambda s: sum(v[2] for n, v in s["spans"].items() if n.startswith(prefix))


def _count(name):
    return lambda s: s["counts"].get(name, 0)


def _cache(name):
    return lambda s: s["caches"].get(name, 0)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


# (name, unit, better, function of the merged trace summary)
LAYER_METRICS = [
    ("laurent.mul.calls", "count", "lower", _span("laurent.mul", "calls")),
    ("laurent.mul.self_s", "s", "lower", _span("laurent.mul", "self_s")),
    ("laurent.mul.terms_out", "count", "lower", _count("laurent.mul.terms_out")),
    ("laurent.add.calls", "count", "lower", _span("laurent.add", "calls")),
    ("laurent.add.self_s", "s", "lower", _span("laurent.add", "self_s")),
    ("laurent.substitute.calls", "count", "lower", _count("laurent.substitute")),
    ("laurent.qbinomial.calls", "count", "lower", _count("laurent.qbinomial")),
    ("laurent.qbinom_cache.entries", "count", "lower", _cache("laurent.qbinom_cache")),
    ("laurent.render.calls", "count", "lower", _span("laurent.render", "calls")),
    ("laurent.render.self_s", "s", "lower", _span("laurent.render", "self_s")),
    ("partitions.constructed", "count", "lower", _count("partitions.constructed")),
    ("partitions.iterate_box.yielded", "count", "lower",
     _count("partitions.iterate_box.yielded")),
    ("partitions.iterate_bounded_parts.yielded", "count", "lower",
     _count("partitions.iterate_bounded_parts.yielded")),
    ("partitions.self_s", "s", "lower", _prefix_self("partitions.")),
    ("hall.hall_box.calls", "count", "lower", _span("hall.hall_box", "calls")),
    ("hall.hall_box.self_s", "s", "lower", _span("hall.hall_box", "self_s")),
    ("hall.hall_skew.calls", "count", "lower", _span("hall.hall_skew", "calls")),
    ("hall.hall_skew.self_s", "s", "lower", _span("hall.hall_skew", "self_s")),
    ("hall.hall_general.calls", "count", "lower", _span("hall.hall_general", "calls")),
    ("hall.hall_general.self_s", "s", "lower", _span("hall.hall_general", "self_s")),
    ("hall.hlp_cache.entries", "count", "lower", _cache("hall.hlp_cache")),
    ("hall.hlc_cache.entries", "count", "lower", _cache("hall.hlc_cache")),
    ("hall.pair_cache.entries", "count", "lower", _cache("hall.pair_cache")),
    ("series.mul.calls", "count", "lower", _span("series.mul", "calls")),
    ("series.mul.self_s", "s", "lower", _span("series.mul", "self_s")),
    ("series.mul.coeffs_out", "count", "lower", _count("series.mul.coeffs_out")),
    ("series.inverse.calls", "count", "lower", _span("series.inverse", "calls")),
    ("series.inverse.self_s", "s", "lower", _span("series.inverse", "self_s")),
    ("series.poch_inf.calls", "count", "lower", _count("series.poch_inf")),
    ("series.inv_qpoch_u.calls", "count", "lower", _count("series.inv_qpoch_u")),
    ("series.inv_poch_cache.entries", "count", "lower", _cache("series.inv_poch_cache")),
    ("series.lsut.mul.calls", "count", "lower", _span("series.lsut.mul", "calls")),
    ("series.lsut.mul.self_s", "s", "lower", _span("series.lsut.mul", "self_s")),
    ("series.lsut.inverse.calls", "count", "lower", _span("series.lsut.inverse", "calls")),
    ("series.lsut.inverse.self_s", "s", "lower", _span("series.lsut.inverse", "self_s")),
    ("quotzeta.nz.calls", "count", "lower", _span("quotzeta.nz", "calls")),
    # nz's own span plus those of the four closed forms it dispatches to
    ("quotzeta.nz.self_s", "s", "lower", _self_sum("quotzeta.nz", "quotzeta.nz_form")),
    ("quotzeta.nz.terms_out", "count", "lower", _count("quotzeta.nz.terms_out")),
    ("quotzeta.nz_cache.entries", "count", "lower", _cache("quotzeta.nz_cache")),
    ("quotzeta.full_z.self_s", "s", "lower", _span("quotzeta.full_z", "self_s")),
    ("quotzeta.checks.self_s", "s", "lower", _span("quotzeta.checks", "self_s")),
    ("clzeta.cl_series.calls", "count", "lower", _span("clzeta.cl_series", "calls")),
    ("clzeta.cl_series.distinct_frac", "ratio", "higher",
     _ratio(lambda s: len(s["cl_series_args"]), _span("clzeta.cl_series", "calls"))),
    ("clzeta.cl_node.self_s", "s", "lower", _span("clzeta.cl_node", "self_s")),
    ("clzeta.cl_node.kept_frac", "ratio", "higher",
     _ratio(_count("clzeta.cl_node.hall_skew_calls"),
            _count("clzeta.cl_node.partitions_built"))),
    ("clzeta.cl_cusp.self_s", "s", "lower", _span("clzeta.cl_cusp", "self_s")),
    ("clzeta.convert_rank.calls", "count", "lower", _span("clzeta.convert_rank", "calls")),
    ("clzeta.convert_rank.self_s", "s", "lower", _span("clzeta.convert_rank", "self_s")),
    ("clzeta.special_values.self_s", "s", "lower", _span("clzeta.special_values", "self_s")),
    ("oracle.enumerate_submodules.calls", "count", "lower",
     _span("oracle.enumerate_submodules", "calls")),
    ("oracle.enumerate_submodules.self_s", "s", "lower",
     _span("oracle.enumerate_submodules", "self_s")),
    ("oracle.submodules_visited", "count", "lower", _count("oracle.submodules_visited")),
    ("oracle.dvr_census.self_s", "s", "lower", _span("oracle.dvr_census", "self_s")),
    ("oracle.dvr_cache.entries", "count", "lower", _cache("oracle.dvr_cache")),
    ("oracle.matrix_pair_count.self_s", "s", "lower",
     _span("oracle.matrix_pair_count", "self_s")),
    ("oracle.budget_exceeded", "count", "lower", _count("oracle.budget_exceeded")),
    ("tables.table_text.self_s", "s", "lower", _span("tables.table_text", "self_s")),
]

CRITERION_METRICS = ["acceptance.c%d.wall_s" % k for k in range(1, 17)]
CLI_METRICS = ["cli.%s.ms" % rid for rid, _ in workloads.CLI_COMMANDS]
SRC_METRICS = ["%s.src_lines" % m for m in MODULES] + ["singzeta.src_lines"]
TRACE_METRICS = [
    ("trace.wall_s", "s"),            # the traced round's latencies, summed
    ("trace.untraced_wall_s", "s"),   # the untraced round's latencies, summed
    ("trace.overhead_s", "s"),        # the difference of the two
    ("trace.span_self_s", "s"),       # self times of all spans, summed
    ("trace.unaccounted_s", "s"),     # traced wall_s not covered by any span
]


def per_layer_spec():
    """[(name, unit, better)] of every per-layer metric, in output order."""
    spec = [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]
    spec += [(name, "s", "lower") for name in CRITERION_METRICS]
    spec += [(name, "ms", "lower") for name in CLI_METRICS]
    spec += [(name, "lines", "lower") for name in SRC_METRICS]
    spec += [(name, unit, "lower") for name, unit in TRACE_METRICS]
    return spec


def tail(values):
    """(value, percentile, n): the highest percentile with ten samples above it.

    With ten or fewer samples there is no such percentile; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def best_latencies(samples):
    """{request id: its fastest latency in s}, over the runs that did not fail."""
    best = {}
    for r in samples:
        if r["error"] is None and r["latency_s"] is not None:
            best[r["id"]] = min(best.get(r["id"], r["latency_s"]), r["latency_s"])
    return best


def end_to_end(setup_times, samples, rounds, peak_rss_kb, failed):
    """{name: (value, note)} of the end-to-end and the printed-only metrics."""
    # a request that failed on every run has no latency; `correct` is false then
    best_ms = [v * 1000 for v in best_latencies(samples).values()] or [0.0]
    tail_ms, tail_pct, n = tail(best_ms)
    return {
        "setup_s": (statistics.median(setup_times),
                    "median of %d imports" % len(setup_times)),
        "wall_s": (sum(best_ms) / 1000, "%d requests, fastest of %d rounds each" % (n, rounds)),
        "req_p50_ms": (statistics.median(best_ms), "%d requests" % n),
        "req_tail_ms": (tail_ms, "p%.1f of %d requests" % (tail_pct, n)),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "largest process"),
        "failed_frac": (failed / len(samples), "%d of %d request runs" % (failed, len(samples))),
    }


def merge_summaries(summaries):
    """Sum the trace summaries of the requests of one round.

    Adds "spans": {name: [calls, total s, self s]} over all parents, and
    "edges" becomes {(parent, name): [calls, total s, self s]}.
    """
    out = {"edges": {}, "spans": {}, "counts": {}, "caches": {}, "cl_series_args": set()}
    for s in summaries:
        for parent, name, *vals in s["edges"]:
            for key, table in (((parent, name), out["edges"]), (name, out["spans"])):
                agg = table.setdefault(key, [0, 0.0, 0.0])
                for i, v in enumerate(vals):
                    agg[i] += v
        for key in ("counts", "caches"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["cl_series_args"].update(s["cl_series_args"])
    return out


def per_layer(summary, traced, untraced, src_lines):
    """Every per-layer metric value, from a merged summary and the samples of
    the traced and the untraced round."""
    values = {name: fn(summary) for name, _, _, fn in LAYER_METRICS}
    latency = {r["id"]: r["latency_s"] or 0.0 for r in traced}
    for k, name in enumerate(CRITERION_METRICS, 1):
        values[name] = latency.get("c%d" % k, 0.0)
    for (rid, _), name in zip(workloads.CLI_COMMANDS, CLI_METRICS):
        values[name] = latency.get(rid, 0.0) * 1000
    for m in MODULES:
        values["%s.src_lines" % m] = src_lines.get(m, 0)
    values["singzeta.src_lines"] = sum(src_lines.values())
    span_self = sum(v[2] for v in summary["spans"].values())
    traced_s = sum(latency.values())
    untraced_s = sum(r["latency_s"] or 0.0 for r in untraced)
    values["trace.wall_s"] = traced_s
    values["trace.untraced_wall_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.span_self_s"] = span_self
    values["trace.unaccounted_s"] = traced_s - span_self
    return values
