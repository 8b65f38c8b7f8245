"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_emitted_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics.END_TO_END)
    assert [m["unit"] for m in SPEC["end_to_end"]] == list(metrics.END_TO_END.values())
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == metrics.per_layer_spec())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_request_has_a_reference():
    references = run.load_references()
    for workload in workloads.WORKLOADS:
        for rid in workloads.REQUESTS[workload]:
            assert rid in references


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smallest_request_emits_every_metric(workload):
    only = [workloads.SMALLEST[workload]]
    plain = run.run(workload, 0, 0, False, requests=only)
    # zero seconds: one round in each part of the run
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == run.PARTS
    assert list(plain["metrics"]) == list(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run(workload, 0, 0, True, requests=only)
    assert traced["correct"] and traced["attempted"] == 2
    assert [(name, m["unit"]) for name, m in traced["metrics"].items()] == \
        [(name, unit) for name, unit, _ in metrics.per_layer_spec()]
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    # a single request: its span covers the whole traced round
    assert abs(values["trace.unaccounted_s"]) < 1e-3


def test_corrupted_reference_counts_as_failure():
    rid = workloads.SMALLEST[workloads.NZ_GRID]
    references = dict(run.load_references())
    references[rid] = "0" * 64
    result = run.run(workloads.NZ_GRID, 0, 0, False, requests=[rid], references=references)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.PARTS
    assert result["failures"] == [(rid, "output differs from the reference")] * run.PARTS


def test_a_request_that_raises_is_failed_and_not_timed():
    result = run.run(workloads.NZ_GRID, 0, 0, False, requests=["nz-cusp-free-m0-d1"])
    assert not result["correct"] and result["failed"] == run.PARTS
    # the exception is reported, not a digest mismatch
    assert result["failures"][0][1] != "output differs from the reference"
    assert metrics.best_latencies([{"id": "a", "error": "x", "latency_s": 0.1},
                                   {"id": "a", "error": None, "latency_s": 0.3},
                                   {"id": "a", "error": None, "latency_s": 0.2},
                                   {"id": "b", "error": "y", "latency_s": None}]) == {"a": 0.2}


def test_alias_scan_rebinds_every_copy_and_catches_an_unwrapped_one():
    import singzeta
    from singzeta import clzeta, hall, quotzeta
    original = hall.hall_skew
    t = tracer.Tracer().install()
    try:
        for namespace in (hall, quotzeta, clzeta, singzeta):
            assert namespace.hall_skew is not original
        t.check()
        clzeta.hall_skew = original
        with pytest.raises(tracer.AliasError, match="singzeta.clzeta.hall_skew"):
            t.check()
    finally:
        t.uninstall()
    for namespace in (hall, quotzeta, clzeta, singzeta):
        assert namespace.hall_skew is original


def test_targets_missing_from_the_program_are_skipped():
    assert tracer._lookup("laurent", "LaurentPoly2.no_such_method") is None
    assert tracer._lookup("laurent", "NoSuchClass.__mul__") is None
    assert tracer._lookup("no_such_module", "f") is None
    from singzeta import hall
    assert tracer._lookup("hall", "hall_skew") is hall.hall_skew


def test_spans_fold_self_time_and_scoped_counts():
    from singzeta import clzeta
    t = tracer.Tracer().install()
    try:
        t.span("request", clzeta.cl_series, "node", 1, 4, 3)
    finally:
        t.uninstall()
    s = metrics.merge_summaries([t.summary()])
    calls, total, self_s = s["spans"]["request"]
    assert calls == 1
    # every span's self time, summed, is the duration of the one top-level span
    assert abs(sum(v[2] for v in s["spans"].values()) - total) < 1e-9
    assert s["counts"]["clzeta.cl_node.hall_skew_calls"] == s["spans"]["hall.hall_skew"][0]
    assert 0 < s["counts"]["clzeta.cl_node.hall_skew_calls"] <= \
        s["counts"]["clzeta.cl_node.partitions_built"]
    assert s["cl_series_args"] == {"('node', 1, 4, 3)"}
    assert s["edges"][("request", "clzeta.cl_series")][0] == 1


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert metrics.tail(list(range(100))) == (89, 90.0, 100)
    assert metrics.tail(list(range(11))) == (0, 100.0 / 11, 11)
    assert metrics.tail([5.0]) == (5.0, 100.0, 1)


def test_missing_sources_exit_nonzero(capsys):
    old = run.SRC
    run.SRC = BENCH / "no-such-src"
    try:
        code = run.main(["--workload", "nz-grid", "--seed", "1", "--seconds", "1"])
    finally:
        run.SRC = old
    assert code != 0
    assert capsys.readouterr().out == ""
