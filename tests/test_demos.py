"""Every demo under demos/, and every python block of README.md, runs to
completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.S | re.M)


def _run(argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = _run([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_exits_zero(block, tmp_path):
    proc = _run(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
