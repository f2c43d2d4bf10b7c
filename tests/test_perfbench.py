"""Smoke tests of the benchmark harness: a traced run ends in a strict JSON result,
and its tracer sees every kernel call."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_tracer_sees_every_kernel_call():
    # a plan that bound the kernels before the tracer replaced them would
    # hide their calls from it
    import anisoflow
    from anisoflow import GridSpec, solve_resolvent

    loader = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install(anisoflow)
    try:
        assert tracer.missing == set()
        spec = GridSpec((8, 8), (1.0, 1.0), (1, 1), (1.0, 2.0), "dirichlet_penalized")
        g = np.zeros(spec.dims)
        g[:4] = 1.0
        report = solve_resolvent(g, 0.1, spec).report
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert report.iterations > 0
    for layer in ("grid.grad", "grid.div", "prox.primal"):
        assert totals[layer]["calls"] >= report.iterations, layer
    assert totals["grid.boundary"]["calls"] >= 2 * report.iterations
