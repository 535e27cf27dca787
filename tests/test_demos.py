"""Every demo script runs to completion against the library in src/."""

import os
import subprocess
from pathlib import Path

import pytest

from .runner import python

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # the demos run under this interpreter's flags, -O and -X dev included
    run = subprocess.run(python(str(demo)), capture_output=True, env=env, cwd=ROOT, check=False)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
