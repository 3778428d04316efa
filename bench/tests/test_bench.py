"""Tests of the benchmark itself: small runs of every workload, the
correctness gate on broken logs, hook loss, and BENCHMARK.json agreement.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DISPATCH_WORKLOADS  # noqa: E402

SCALE = 0.05


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_small_run_prints_every_metric(workload, trace):
    result = run.measure(workload, seed=3, seconds=0, trace=trace, scale=SCALE)
    assert result["correct"], result["detail"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name][0]
        assert isinstance(metric["value"], (int, float))
    assert result["detail"]["not_measured"] == []
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_best_of_keeps_each_commands_minimum_and_drops_the_samples():
    reps = [run.Rep() for _ in range(3)]
    for rep, latencies in zip(reps, ([5, 9, 4], [7, 3, 6], [6, 8, 2])):
        rep.latencies = latencies
    best = []
    for rep in reps:
        best = run._fold_best(best, rep)
    assert best == [5, 3, 2]
    assert all(rep.latencies == [] for rep in reps)


def _stock_log(tmp_path):
    setup, client_fn = DISPATCH_WORKLOADS["stock-churn"]
    prepared = setup(5, SCALE)
    rep = run.Rep()
    run._drive(prepared.engine, client_fn(prepared, rep.failures.append), rep)
    assert rep.failures == []
    path = tmp_path / "events.jsonl"
    prepared.engine.write_log(path)
    assert run.verify_log(prepared.engine, path) == []
    return prepared.engine, path


def test_gate_fires_on_tampered_put_fact(tmp_path):
    engine, path = _stock_log(tmp_path)
    lines = path.read_text().splitlines()
    # the last put of a stock item: no later record can overwrite the change
    for index in reversed(range(len(lines))):
        record = json.loads(lines[index])
        puts = [f for f in record["deltas"]
                if f["f"] == "put" and f["store"] == "stock_items"]
        if puts:
            puts[-1]["data"]["inventory"]["on_hand"] += 1
            lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            break
    path.write_text("\n".join(lines) + "\n")
    assert run.verify_log(engine, path) == ["replayed state differs from live state"]


def test_gate_fires_on_dropped_last_record(tmp_path):
    engine, path = _stock_log(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    problems = run.verify_log(engine, path)
    assert any(p.startswith("log holds") for p in problems)
    assert "replayed state differs from live state" in problems


def test_missing_hook_is_reported_not_measured(monkeypatch):
    sites = dict(tracing.SITES)
    sites["commands.canonical_payload"] = [("storefront.engine", "no_such_name")]
    monkeypatch.setattr(tracing, "SITES", sites)
    result = run.measure("stock-churn", seed=3, seconds=0, trace=True, scale=SCALE)
    assert result["correct"]
    missing = result["detail"]["not_measured"]
    assert "commands.canonical_payload.us" in missing
    assert "engine.envelope.share" in missing
    assert "commands.parse_args.us" not in missing


def test_without_engine_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "stock-churn",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER
