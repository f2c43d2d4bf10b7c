"""Smoke test of the benchmark harness: a traced run ends in a strict JSON result."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


@pytest.mark.parametrize("workload", ["elliptic-power", "denoise", "flow"])
def test_traced_run_ends_in_a_result_line(tmp_path, workload):
    # run from a copy, so the harness's .perfbench/ outputs stay out of the checkout
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    assert {"solver.iterations", "solver.checks"} <= result["metrics"].keys()
    if workload == "elliptic-power":
        assert "solver.opnorm.s" in result["metrics"]
