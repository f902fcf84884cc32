"""Tests of the benchmark itself, so the harness cannot rot unnoticed.

* ``BENCHMARK.json`` keeps the shape the benchmark contract fixes;
* a tiny pass of every workload, untraced and traced, on a second seed
  prints exactly the metric names and units ``BENCHMARK.json`` lists
  (through ``selfcheck.py --tiny``);
* without the program beside it the benchmark exits non-zero and prints
  no result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    bounds = {}
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert bounds["setup_s"] == max(bounds.values())
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_tiny_pass_of_every_workload_matches_benchmark_json():
    proc = subprocess.run(
        [sys.executable, str(HERE / "selfcheck.py"), "--tiny", "--trace", "--seed", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = [line for line in proc.stdout.splitlines() if line.strip()]
    assert len(runs) == 2 * len(_spec()["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run_url_batched", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
