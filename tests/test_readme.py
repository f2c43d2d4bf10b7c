"""The README's Python example runs as written and documents every export."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import anisoflow
from anisoflow import evolve, solve_elliptic, solve_resolvent

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_python_example_runs_and_certifies(capsys):
    (block,) = _python_blocks()
    ns = {}
    exec(compile(block, str(README), "exec"), ns)
    assert ns["report"].converged
    assert ns["report"].certificate.sup_norm_z1 <= 1.0 + 1e-12
    assert len(ns["traj"].step_gaps) == 10


def test_every_export_is_documented():
    text = README.read_text(encoding="utf-8")
    missing = [n for n in anisoflow.__all__ if not re.search(rf"`{re.escape(n)}\b", text)]
    assert not missing, f"exports without a README entry: {missing}"


@pytest.mark.parametrize("fn", [solve_elliptic, solve_resolvent, evolve], ids=lambda f: f.__name__)
def test_call_signatures_list_every_parameter(fn):
    calls = re.findall(rf"`{fn.__name__}\(([^)]*)\)`", README.read_text(encoding="utf-8"))
    assert calls, f"no call signature of {fn.__name__} in the README"
    for args in calls:
        assert [a.strip() for a in args.split(",")] == list(inspect.signature(fn).parameters)


def test_import_leaves_unused_modules_out():
    # a fresh interpreter: the file formats, the oracle and the battery load
    # on first access to one of their names, and every export resolves; the
    # active-set polish loads only when a solve first polishes
    code = (
        "import sys, anisoflow\n"
        "lazy = ('anisoflow.io', 'anisoflow.oracle', 'anisoflow.selftest')\n"
        "assert not [m for m in lazy if m in sys.modules], sorted(sys.modules)\n"
        "for name in anisoflow.__all__:\n"
        "    getattr(anisoflow, name)\n"
        "assert all(m in sys.modules for m in lazy)\n"
        "assert 'anisoflow.polish' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
