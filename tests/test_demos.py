"""The quick demos run to completion.  Demos 03 and 04 play and tune
whole matches (half a minute or more each), so they stay out of this
suite; the long tier (``longtests/``) runs demo 03."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("number", ["01", "02"])
def test_demo_runs(number, tmp_path):
    (demo,) = (ROOT / "demos").glob(f"{number}_*.py")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not any(tmp_path.iterdir())  # writes no files
