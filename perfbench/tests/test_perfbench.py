"""Tests of the benchmark itself: its output format and its checks.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import operadix  # noqa: E402
import operadix.endomorphism  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Evaluation  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_spec_names_the_workloads_and_layers_the_benchmark_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in run.PER_LAYER.items()
    ]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_quick_run_prints_every_end_to_end_metric_with_its_unit(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith(f"{WORKLOADS[workload](operadix, 0).work_metric} ") for line in lines)


def test_traced_run_prints_every_per_layer_metric():
    done = bench("--workload", "text-pipeline", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["metrics"]["expr_parser.parse.us_p50"]["value"] > 0
    assert (BENCH / "out" / "text-pipeline.spans.tsv").is_file()


def test_a_flipped_table_entry_counts_as_a_failure(monkeypatch):
    real_circ = operadix.endomorphism.circ

    def corrupted(f, ii, g):
        out = real_circ(f, ii, g)
        table = ((out.table[0] + 1) % out.carrier,) + out.table[1:]
        return operadix.FiniteFn(out.carrier, out.arity, table)

    monkeypatch.setattr(operadix.endomorphism, "circ", corrupted)
    tally = run.measure(Evaluation(operadix, 5), seconds=0.06)
    assert tally.failed >= 4
    assert any("pointwise reference" in problem for problem in tally.problems)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "eval", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
