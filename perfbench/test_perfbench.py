"""Tests of the benchmark itself.

    python3 -m pytest perfbench

* every workload, shrunk to a few seconds, reports exactly the metric
  names and units ``BENCHMARK.json`` declares, end-to-end and per layer;
* a corrupted output counts as a failed operation and raises the error
  rate;
* without the program next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import fig9  # noqa: E402
import run as bench  # noqa: E402
import service  # noqa: E402

common.require_program()

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at the smallest size that still runs each layer."""
    monkeypatch.setattr(fig9, "INPUTS", 1)
    monkeypatch.setattr(service, "SLICES", 1)
    monkeypatch.setattr(service, "HIT_REPEATS", 1)
    monkeypatch.setattr(service, "SETUP_REPEATS", 1)
    monkeypatch.setattr(service, "REFERENCE_SAMPLE", 2)


def _names(line):
    return {name: metric["unit"] for name, metric in line["metrics"].items()}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_reports_the_declared_metrics(tiny, workload):
    # A traced run also measures untraced iterations, so one run gives
    # both result lines.
    report = bench.run(workload, seed=3, seconds=0.0, trace=True)
    assert report["failed"] == 0, report["problems"]
    untraced = bench.result_line(report, trace=False)
    traced = bench.result_line(report, trace=True)
    assert _names(untraced) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _names(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    layers = {name: metric["value"] for name, metric in traced["metrics"].items()}
    if workload == "fig9-warm":
        assert layers["cache.hits"] == 3 and layers["optimal.compute_s"] == 0
    if workload == "fig9-cold":
        assert layers["cache.misses"] == 3 and layers["optimal.compute_s"] > 0
    if workload.startswith("fig9"):
        assert layers["ledger_coverage"] >= bench.COVERAGE_TARGET
    else:
        assert layers["service.shard_tasks"] > 0 and layers["journal.appends"] > 0


def test_corrupted_fig9_output_raises_error_rate(monkeypatch):
    canned = {
        "wall_s": 1.0,
        "peak_rss_mb": 100.0,
        "digests": {name: "digest" for name in fig9.NAMES},
        "rows": {name: "rows" for name in fig9.NAMES},
        "diameters": {name: 5 for name in fig9.NAMES},
        "engines": {name: "vec" for name in fig9.NAMES},
        "contacts": {name: 100 for name in fig9.NAMES},
        "leaks": [],
    }
    calls = []

    def iterate(spec, timeout_s, mode="iteration"):
        if mode == "setup":
            return {"references": [dict(canned, setup_s=1.0) for _ in spec["seeds"]]}
        calls.append(spec)
        result = copy.deepcopy(canned)
        if len(calls) == 1:
            result["rows"]["reality"] = "corrupted"
        return result

    monkeypatch.setattr(fig9, "INPUTS", 2)
    monkeypatch.setattr(fig9, "_iterate", iterate)
    report = bench.run("fig9-cold", seed=1, seconds=0.0, trace=False)
    assert (report["attempted"], report["failed"]) == (2, 1)
    assert report["details"]["error_rate"] == 0.5
    assert not bench.result_line(report, trace=False)["correct"]


def test_corrupted_service_answer_is_a_problem():
    query = service.cold_queries()[0]
    cold = service.Answer(query, "cold")
    cold.status, cold.source, cold.body = 200, "computed", b"answer"
    hit = service.Answer(query, "hit")
    hit.status, hit.source, hit.body = 200, "store", b"answer"
    assert service._check([cold, hit], {}) == []
    hit.body = b"corrupted"
    assert len(service._check([cold, hit], {})) == 1
    reference = {service.query_id(query): hashlib.sha256(b"other").hexdigest()}
    assert len(service._check([cold], reference)) == 1


class _FakeService:
    """Serves canned ``/debug/traces/<id>`` and ``/metrics`` bodies."""

    def __init__(self, traces, metrics):
        self.traces = traces
        self.metrics = metrics

    def trace(self, trace_id):
        lines = [json.dumps({"kind": "span", **s}) for s in self.traces[trace_id]]
        return type("Response", (), {"status": 200, "text": lambda self: "\n".join(lines)})()

    def metrics_text(self):
        return self.metrics


def _span(span_id, parent, name, wall_s, origin="worker", start=0.0, **attrs):
    return {"span_id": span_id, "parent_span_id": parent, "name": name,
            "wall_s": wall_s, "origin": origin, "start_unix": start, "attrs": attrs}


def test_service_ledger_partitions_each_latency():
    query = service.cold_queries()[0]
    cold, hit, sharded = (service.Answer(query, kind) for kind in ("cold", "hit", "sharded"))
    cold.trace_id, cold.latency_s = "a", 1.0
    hit.trace_id, hit.latency_s = "b", 0.01
    sharded.trace_id, sharded.latency_s = "c", 1.0
    traces = {
        "a": [
            _span("r", None, "service.http.request", 0.95, "server"),
            _span("ad", "r", "service.admit", 0.1, "server"),
            _span("ex", "r", "service.execute", 0.8, "server"),
            _span("at", "ex", "service.pool.attempt", 0.7, "supervisor", start=10.0),
            _span("we", "at", "worker.execute", 0.65),
            _span("rd", "we", "traces.read_contacts", 0.05),
            _span("lc", "we", "cache.load_or_compute", 0.5, outcome="miss"),
            _span("dp", "lc", "optimal.compute_profiles", 0.3),
            _span("sg", "we", "engine.segment_table", 0.05),
        ],
        "b": [
            _span("r", None, "service.http.request", 0.008, "server"),
            _span("ad", "r", "service.admit", 0.004, "server"),
        ],
        # Two shard tasks side by side, then the merge run.
        "c": [
            _span("ad", None, "service.admit", 0.1, "server"),
            _span("ex", None, "service.execute", 0.85, "server"),
            _span("s1", "ex", "service.pool.attempt", 0.4, "supervisor", start=0.0, shard="1/2"),
            _span("s2", "ex", "service.pool.attempt", 0.4, "supervisor", start=0.0, shard="2/2"),
            _span("fi", "ex", "service.pool.attempt", 0.2, "supervisor", start=0.5),
            _span("w1", "s1", "worker.execute", 0.35),
            _span("w2", "s2", "worker.execute", 0.35),
            _span("w3", "fi", "worker.execute", 0.15),
        ],
    }
    metrics = ("engine_cdf_kernel_wall_sum 0.02\nengine_csr_build_s_wall_sum 0.01\n"
               'service_store_hit 1\nservice_store_miss 3\n'
               'profiles_cache_miss{engine="vec"} 2\n')
    layers = service._service_ledger(_FakeService(traces, metrics), [cold, hit, sharded])
    approx = pytest.approx
    assert layers["service.admit_s"] == approx(0.204)
    assert layers["service.http_s"] == approx(0.1 + 0.006 + 0.05)
    # Shard tasks covered 0.6 s of wall with 1.0 s of work: share 0.6.
    assert layers["service.queue_wait_s"] == approx(0.1 + 0.25)
    assert layers["service.dispatch_s"] == approx(0.05 + 0.6 * 0.15)
    assert layers["service.worker_exec_s"] == approx(0.65 + 0.85)
    assert layers["cache.save_s"] == approx(0.2)
    assert layers["optimal.compute_s"] == approx(0.29)
    assert layers["service.shard_tasks"] == 2 and layers["service.finalize_s"] == approx(0.2)
    assert layers["service.store_hit_ratio"] == approx(0.25)
    assert layers["cache.misses"] == 2
    # Worker time outside any core span (CLI parsing, shard merge) is
    # all that stays unattributed.
    unattributed = (0.65 - 0.05 - 0.5 - 0.05 - 0.02) + 0.6 * 0.85
    assert layers["unattributed_s"] == approx(unattributed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fig9-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
