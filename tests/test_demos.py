"""Every script under demos/ runs to completion and prints something.

Each runs from a copy in a temporary directory, so the files a demo writes
next to itself (``out/``) land there, not in the source tree.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path, child_env):
    copy = shutil.copy(demo, tmp_path)
    done = subprocess.run([sys.executable, copy], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env=child_env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
