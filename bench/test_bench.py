"""Smoke test of the benchmark at tiny size: every declared metric is
emitted, and a job that leaves its reference counts as failed."""

import copy
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import scenarios  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
POOL = 3  # the probe and two jobs, so every job has a reference


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """Tiny-size reference files, one per workload."""
    base = tmp_path_factory.mktemp("references")
    paths = {}
    for name, workload in scenarios.WORKLOADS.items():
        summaries = harness.build_reference(workload, ROOT, POOL, tiny=True,
                                            work=base / f"{name}-work")
        paths[name] = base / f"{name}.json"
        paths[name].write_text(json.dumps({"scenarios": summaries}))
    return paths


def tiny_run(workload, reference, trace, work):
    args = Namespace(workload=workload, seed=7, seconds=0.0, trace=trace,
                     tiny=True, reference=reference)
    return harness.run(args, ROOT, work)


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(scenarios.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(scenarios.WORKLOADS))
def test_every_metric_is_emitted(workload, trace, references, tmp_path):
    result = tiny_run(workload, references[workload], trace, tmp_path)
    units = harness.PER_LAYER_UNITS if trace else harness.END_TO_END_UNITS
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == units
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared}.items() <= emitted.items()
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == POOL
    assert result["env"]["tail_percentile"] >= 0
    if trace:
        assert (tmp_path / "trace.npz").is_file()
    else:
        assert result["metrics"]["success_ratio"]["value"] == 1.0
        assert result["metrics"]["samples_per_s"]["value"] > 0.0


def test_corrupted_reference_fails_the_job(references, tmp_path):
    data = json.loads(references["s1-simulate"].read_text())
    corrupted = copy.deepcopy(data)
    for entry in corrupted["scenarios"]:
        entry["approx"]["final_row"][2] *= 1.0 + 1e-4  # x at the end
    path = tmp_path / "corrupted.json"
    path.write_text(json.dumps(corrupted))
    result = tiny_run("s1-simulate", path, 0, tmp_path / "work")
    assert result["failed"] == result["attempted"] == POOL
    assert all("final_row" in failure["problems"][0]
               for failure in result["failures"])
    assert result["metrics"]["success_ratio"]["value"] == 0.0


def test_exits_nonzero_without_hfo_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "s1-simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
