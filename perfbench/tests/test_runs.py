"""The benchmark command end to end, at a short run length."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=240)


def test_benchmark_json_names_every_reported_metric():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in SPEC["workloads"]] == ["cli-cold", "geometry", "lattice"]


@pytest.mark.parametrize("workload", ["cli-cold", "geometry", "lattice"])
def test_workload_runs_to_its_end_and_is_correct(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics():
    proc = bench("--workload", "lattice", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == list(tracing.metric_units())
    assert metrics["sobolev_bv.variation_nd.calls"]["value"] == 3
    assert metrics["smoothing.mollify.cells"]["value"] > 0
    assert metrics["smoothing.import_s"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
