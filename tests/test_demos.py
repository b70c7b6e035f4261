"""The quick demos and the README's quick tour run to completion.  Demos
03 and 04 play whole matches (ten seconds or more each), so they stay out
of this suite; the long tier (``longtests/``) runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("number", ["01", "02"])
def test_demo_runs(number, tmp_path):
    (demo,) = (ROOT / "demos").glob(f"{number}_*.py")
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=src_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not any(tmp_path.iterdir())  # writes no files


def test_readme_quick_tour_runs():
    """The README's one Python block, run from the repo root as a reader
    would, prints True."""
    (tour,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                         re.MULTILINE | re.DOTALL)
    proc = subprocess.run(
        [sys.executable, "-c", tour], cwd=ROOT, env=src_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
