"""The benchmark command in smoke mode: result format, checks, failure
accounting and traced-mode counts.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# Smoke mode keeps one known-failing deep pencil in the limit workload and
# runs two rounds.
SMOKE_FAILED = {"cli": 0, "estimate": 0, "limit": 2}
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "ratio", "KB", "1")
          and name != "trace.overhead"]


def run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.fixture(scope="module")
def traced():
    return {w: [run(w, 1), run(w, 1)] for w in SMOKE_FAILED}


@pytest.mark.parametrize("workload", sorted(SMOKE_FAILED))
def test_untraced_result(workload):
    proc = run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == SMOKE_FAILED[workload]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(SMOKE_FAILED))
def test_traced_counts_repeat(traced, workload):
    first, second = (json.loads(p.stdout.strip().splitlines()[-1]) for p in traced[workload])
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == PER_LAYER
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"] == SMOKE_FAILED[workload]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_limit_trace_sees_every_layer(traced):
    metrics = json.loads(traced["limit"][0].stdout.strip().splitlines()[-1])["metrics"]
    for name in ("mle.full_mle_s", "linalg.svd_calls", "linalg.pencil_deep_calls",
                 "stabilise.random_lift_s", "limits.analytic_s", "limits.grid_evals",
                 "validation.finite_scan_ratio"):
        assert metrics[name]["value"] > 0, name


def test_cli_trace_sees_the_cli_layer(traced):
    metrics = json.loads(traced["cli"][0].stdout.strip().splitlines()[-1])["metrics"]
    for name in ("cli.import_s", "cli.import_numpy_s", "cli.import_jsonschema_s", "cli.validate_s",
                 "cli.parse_s", "cli.command_s", "cli.serialise_s", "cli.report_kb",
                 "varieties.membership_s"):
        assert metrics[name]["value"] > 0, name


def test_without_the_program_it_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("estimate", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
