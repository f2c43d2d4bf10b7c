"""The README's Python example runs as written and documents every export."""

import inspect
import re
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
