"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_harness.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_is_correct_and_reports_every_metric(name, tmp_path):
    size = workloads.TINY[name]
    plain = harness.run_workload(name, 3, 0, False, size, None, tmp_path / "plain")
    assert plain["details"]["problems"] == []
    assert (plain["correct"], plain["attempted"], plain["failed"]) == (True, 1, 0)
    assert {m["name"] for m in BENCH["end_to_end"]} <= set(plain["metrics"])
    assert all(v > 0 for v in plain["metrics"].values())

    traced = harness.run_workload(name, 3, 0, True, size, None, tmp_path / "traced")
    assert traced["details"]["problems"] == []
    assert (traced["correct"], traced["attempted"], traced["failed"]) == (True, 2, 0)
    layers = traced["metrics"]
    assert {m["name"] for m in BENCH["per_layer"]} <= set(layers)
    if name == "mc_calibration":
        assert layers["ecd.corrected_threshold.calls"] == size["n_realizations"]
    else:
        # peak_table reaches z_equivalent through infer's own binding of it
        assert layers["glm.z_equivalent.calls"] == layers["infer.n_peaks"] > 0


def test_corrupted_reference_fails_the_run(tmp_path):
    size = workloads.TINY["scalp_time"]
    first = harness.run_workload("scalp_time", 3, 0, False, size, None, tmp_path / "a")
    reference = first["details"]["summary"]
    same = harness.run_workload("scalp_time", 3, 0, False, size, reference, tmp_path / "b")
    assert same["correct"]

    corrupted = copy.deepcopy(reference)
    corrupted["columns"]["p_fwe"]["sum"] *= 1.0 + 1e-9
    bad = harness.run_workload("scalp_time", 3, 0, False, size, corrupted, tmp_path / "c")
    assert (bad["correct"], bad["attempted"], bad["failed"]) == (False, 1, 1)
    assert any("p_fwe" in p for p in bad["details"]["problems"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scalp_time",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
