"""The timing tools under ``tools/`` run and report what they promise.
No test here asserts a timing."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def tree_files() -> dict:
    """Every file under the checkout but ``.git``, with its modification time."""
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*") if p.is_file() and ".git" not in p.parts}


@pytest.mark.parametrize("workload", ["line4-policy", "hex7-mcts-bridge", "hex7-tune-candidates"])
def test_ab_against_its_own_tree_reports_equal_outcomes(workload):
    before = tree_files()
    proc = subprocess.run(
        [sys.executable, "tools/ab.py", "--base", ".", "--workload", workload,
         "--size", "smoke", "--rounds", "3", "--json"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["workload"] == workload and report["rounds"] == 3 and report["games"] > 0
    assert len(report["ratios"]) == 3 and 0 <= report["change_wins"] <= 3
    assert set(report["seconds"]) == {"base", "change"}
    assert tree_files() == before  # wrote nothing, bytecode included
