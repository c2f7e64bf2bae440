"""Self-test of the benchmark at tiny population sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--seconds", "0", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_prints_every_end_to_end_metric(workload):
    # At the default seed this also checks the stored tiny digest.
    result = bench("--workload", workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert_metrics(result, SPEC["end_to_end"])
    assert result["metrics"]["ok_share"]["value"] == 1.0


def test_traced_run_collects_worker_spans():
    result = bench("--workload", "sweep-n8-subset-j2", "--trace", "1")
    assert result["correct"]
    assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    # The kernels run only in the forked pool workers.
    assert metrics["chains.alternation_profile.calls_per_fn"]["value"] == 1.0
    assert metrics["measures.decision_tree_depth.calls"]["value"] == 0


def test_wrong_digest_counts_as_errors():
    result, info = run.run_workload("sweep-n4", 1, 0, trace=False, tiny=True, digest="0" * 64)
    assert info["error_share"] == 1.0
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]
    assert result["metrics"]["ok_share"]["value"] == 0.0
