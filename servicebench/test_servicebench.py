"""The benchmark's own tests, at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest servicebench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run(*args, cwd=ROOT, seconds=3):
    command = [sys.executable, "servicebench/run.py", "--seed", "5",
               "--seconds", str(seconds), "--scale", "tiny", *args]
    done = subprocess.run(command, cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done.returncode, result, done.stdout + done.stderr


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    code, result, output = run("--workload", workload, "--trace", trace,
                               seconds=4)
    assert code == 0, output
    assert result["correct"] and result["failed"] == 0, output
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {metric["name"]: metric["unit"]
                for metric in SPEC[section]}
    emitted = {name: value["unit"]
               for name, value in result["metrics"].items()}
    assert emitted == expected
    for name, value in result["metrics"].items():
        assert f"metric {workload} {name} = " in output


def test_wrong_expected_panel_fails_the_run():
    code, result, output = run("--workload", "net-explore",
                               "--fault", "wrong-panel")
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert "served panel differs" in output


def test_damaged_store_fails_the_run():
    code, result, output = run("--workload", "repo-durable",
                               "--fault", "damage-store", seconds=8)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert "before serving" in output


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "servicebench",
                    ignore=shutil.ignore_patterns(".work",
                                                  "__pycache__"))
    code, result, output = run("--workload", "net-explore",
                               cwd=tmp_path)
    assert code != 0
    assert result is None, output
