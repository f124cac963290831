"""Smoke checks of the benchmark itself; not part of the tier-1 suite.

    python -m pytest benchmarks

Each workload runs at a tiny scene size with a small iteration cap, in both
modes, and must report exactly the metrics BENCHMARK.json names, with their
units.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_hypercs()
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_contract_names_every_workload():
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name):
    workload = WORKLOADS[name]
    tiny = replace(workload, shape=(3, 3, workload.shape[2]), max_iter=5)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = run.run(tiny, seed=3, seconds=0.01, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] == 9 * tiny.pairs * (2 + trace)
        units = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = CONTRACT["command"] + ["--workload", "desk-convex", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
