"""Self-tests of the benchmark's own arithmetic and metric names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import measure
import run
import tracing

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0, 100, -1, "run"),
        ("b", 10, 40, 0, "run"),
        ("c", 20, 30, 1, "run"),
        ("d", 50, 70, 0, "run"),
        ("b", 200, 210, -1, "setup"),
    ]
    totals = tracing.aggregate(spans)
    assert totals["a"] == (1, 100, 50)
    assert totals["b"] == (2, 40, 30)
    assert totals["c"] == (1, 10, 10)
    assert totals["d"] == (1, 20, 20)
    assert tracing.aggregate(spans, "setup") == {"b": (1, 10, 10)}


def test_tail_is_highest_percentile_with_ten_beyond():
    assert measure.tail_latency(range(1, 101)) == (90.0, 90)
    pct, value = measure.tail_latency([5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11])
    assert value == 1 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        measure.tail_latency(range(10))


def test_digest_check_flags_a_report_that_differs_in_one_field():
    report = {"suite": "froberg", "ok": True, "chordal_count": 822, "discrepancies": []}
    stored = {"suites.froberg_suite(5)": measure.digest(report)}
    same = dict(reversed(list(report.items())))
    assert measure.check_digests({"suites.froberg_suite(5)": measure.digest(same)}, stored) == ([], [])
    changed = {**report, "chordal_count": 821}
    computed = {"suites.froberg_suite(5)": measure.digest(changed), "new": measure.digest({})}
    assert measure.check_digests(computed, stored) == (["suites.froberg_suite(5)"], ["new"])


def test_quotas_are_proportional_and_capped():
    assert measure.quotas([1, 6, 15, 20, 15, 6, 1], 10) == [0, 1, 3, 3, 2, 1, 0]
    assert sum(measure.quotas([1, 6, 15, 20, 15, 6, 1], 37)) == 37
    assert measure.quotas([2, 100], 50) == [1, 49]
    assert measure.quotas([1, 1], 5) == [1, 1]


def _fake_run(**overrides) -> dict:
    base = {"run_s": 2.0, "latencies": [0.1, 0.3, 0.2] * 4, "suite_s": {"s": 0.5}, "setup_s": 0.5,
            "peak_rss_mb": 30.0, "homology_cache_entries": 7}
    return {**base, **overrides}


def test_repetitions_combine_at_each_instance_fastest():
    runs = [
        _fake_run(latencies=[0.1, 0.4], suite_s={"a": 0.3}),
        _fake_run(latencies=[0.3, 0.2], suite_s={"a": 0.5}),
    ]
    combined = run.fastest(runs)
    assert combined["latencies"] == [0.1, 0.2]
    assert combined["run_s"] == pytest.approx(0.1 + 0.2 + 0.3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([_fake_run()], [0.5, 0.4, 0.6])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    sys.path.insert(0, str(HERE))
    import worker

    layers = tracing.Tracer().layer_metrics()
    layers.update({name: 0.0 for name in worker.cli_layer_names()})
    per_layer = run.per_layer([_fake_run()], _fake_run(layers=layers))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in per_layer.items()}


def test_traced_worker_reports_every_layer_without_failures():
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "clutters63", "--seed", "3",
         "--seconds", "0", "--trace", "--spawn-time", repr(time.time())],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and len(result["latencies"]) == 20
    layers = result["layers"]
    assert layers["suites.clutter_erasure_suite.calls"] == 1
    assert layers["erasures.find_erasure_sequence.calls"] > 20  # 20 sampled + the suite's own
    assert layers["homology.rank_gf2.calls"] > 0 and layers["graphs.kruskal_mst.calls"] == 0
    stages = result["stages"]
    assert stages["suites.clutter_erasure_suite"][2] < stages["suites.clutter_erasure_suite"][1]


def test_chordal7_sample_is_distinct_chordal_graphs_at_the_edge_quotas():
    sys.path.insert(0, str(HERE))
    import worker

    table = worker.Chordal7.CHORDAL_7_BY_EDGES
    assert sum(table) == 617675
    sample = worker.Chordal7(seed=5, count=200).sample
    assert len(set(sample)) == len(sample) == 200
    assert all(worker.graphs.is_chordal_classic(worker.graphs.graph_from_edge_mask(7, g)) for g in sample)
    per_edges = [sum(1 for g in sample if g.bit_count() == m) for m in range(len(table))]
    assert per_edges == measure.quotas(list(table), 200)
