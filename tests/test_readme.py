"""The README's Python example runs as written and documents every export."""

import re
from pathlib import Path

import anisoflow

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
