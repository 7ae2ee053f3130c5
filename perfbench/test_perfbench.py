"""Self-tests of the benchmark, on the tiny size of every workload.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from oracle import Shadow  # noqa: E402
from repro.engine.query import QueryRequest, QueryResult  # noqa: E402
from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload: str, trace: str) -> None:
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", "0.5", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = LAYER_METRICS if trace == "1" else END_TO_END
    assert {name: unit for name, unit, *_ in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    if trace == "0":
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
    else:
        record = json.loads(done.stdout.strip().splitlines()[-2])
        shares = sum(record["layer_shares"].values())
        unattributed = result["metrics"]["trace.unattributed_share"]["value"]
        assert shares + unattributed == pytest.approx(1.0)


def test_benchmark_json_matches_the_code() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_oracle_flags_a_wrong_answer() -> None:
    shadow = Shadow({"colA": np.arange(4.0), "colC": np.array([1.0, 5.0, 5.0, 9.0])})
    request = QueryRequest.range("t", "colC", 4.0, 6.0)
    assert shadow.count_wrong([request], [QueryResult(locations=[1, 2])]) == 0
    assert shadow.count_wrong([request], [QueryResult(locations=[1])]) == 1
    shadow.delete(2)
    assert shadow.count_wrong([request], [QueryResult(locations=[1, 2])]) == 1


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_benchmark(tmp_path, "--workload", "batch-range", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
