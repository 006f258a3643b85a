"""Smoke tests of the benchmark itself: ``python -m pytest bench/tests`` (< 15 s).

Every workload runs at a twentieth of its size, so these say nothing about
speed — only that the names, the oracle and the tracer hold together.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import metrics, run
from bench.harness import run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SMALL = ["--seed", "7", "--seconds", "8", "--scale", "0.05"]


def manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_manifest_matches_the_tables():
    spec = manifest()
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, better, _moves in metrics.PER_LAYER]
    assert all(name.split(".")[0] in metrics.LAYERS + ("trace",)
               for name, *_rest in metrics.PER_LAYER)


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_untraced_run_emits_exactly_the_end_to_end_names(workload, capsys):
    status = run.main(["--workload", workload, "--trace", "0", *SMALL])
    result = last_line(capsys)
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in manifest()["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_traced_run_emits_exactly_the_per_layer_names(workload, capsys):
    status = run.main(["--workload", workload, "--trace", "1", *SMALL])
    result = last_line(capsys)
    assert status == 0 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in manifest()["per_layer"]]


def test_layer_self_times_fit_inside_the_traced_wall():
    report = run_workload("hub_board", seed=7, seconds=8, traced=True, scale=0.05)
    assert not report["trace_missing"]
    wall = report["diagnostics"]["raw_busy_s"]
    assert 0 < sum(report["layer_self_s"].values()) <= wall * 1.001
    assert report["per_layer"]["trace.layer_coverage_share"] > 0.5


def test_a_corrupted_read_is_counted_as_a_failure():
    clean = run_workload("hub_board", seed=7, seconds=8, scale=0.05)
    broken = run_workload("hub_board", seed=7, seconds=8, scale=0.05, corrupt_reads=True)
    assert clean["failed"] == 0
    assert broken["failed"] >= 1
    assert broken["workload_metrics"]["failed_share"] > 0
    assert broken["plan_sha256"] == clean["plan_sha256"]


def test_same_seed_same_plan_other_seed_other_plan():
    from bench.workloads import WORKLOADS

    def plan(name, seed):
        workload = WORKLOADS[name](seed=seed, seconds=8, scale=0.05)
        workload.generate()
        return workload.plan_digest()

    for name in WORKLOADS:
        assert plan(name, 1) == plan(name, 1)
        assert plan(name, 1) != plan(name, 2)


def test_lossy_mesh_replays_a_prefix_of_wepic_fanout():
    from bench.workloads import WORKLOADS
    from bench.workloads.base import EXPLAIN

    for seed, scale in ((1, 0.05), (2, 1.0)):
        fanout, lossy = (WORKLOADS[name](seed=seed, seconds=8, scale=scale)
                         for name in ("wepic_fanout", "lossy_mesh"))
        fanout.generate()
        lossy.generate()
        replayed = [op for op in lossy.ops if op.cls != EXPLAIN]
        assert lossy.initial == fanout.initial
        assert 0 < len(replayed) < len(lossy.ops)
        assert replayed == fanout.ops[:len(replayed)]


def test_no_program_no_result(tmp_path):
    """In a directory with only the manifest and ``bench/``: non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hub_board", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
