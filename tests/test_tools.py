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


def shape(value):
    """The keys of a JSON report, nested, with None for each leaf."""
    return {k: shape(v) for k, v in value.items()} if isinstance(value, dict) else None


def leaves(*keys: str) -> dict:
    return dict.fromkeys(keys)


# The report each per-layer timing tool documents for --json.
COMPILE_MOVER = leaves("instances", "walk_calls", "cold_s", "hit_s", "hit_walk_replay_s", "hit_walk_replay_share")
TOOL_REPORTS = {
    "plies": {
        **leaves("case", "seed", "plies", "playouts", "unit_score_share", "repeat"),
        "us_per_call": leaves("legal_moves", "biased_scores", "_sample", "apply", "win_check", "playout_ply"),
    },
    "compile": {**leaves("candidates", "repeat", "cold_pair_s"), "movers": {"1": COMPILE_MOVER, "2": COMPILE_MOVER}},
    "scores": {
        **leaves("case", "seed", "positions", "tests_per_position", "repeat",
                 "biased_scores_us_per_call", "match_instance_ns_per_test"),
        "hex19_group3": leaves("boards", "instances", "match_instance_ns_per_test"),
    },
}


@pytest.mark.parametrize("tool", sorted(TOOL_REPORTS))
def test_timing_tool_reports_its_keys(tool):
    before = tree_files()
    # -B: Python's bytecode cache is not the tool's output.
    proc = subprocess.run(
        [sys.executable, "-B", f"tools/{tool}.py", "--repeat", "1", "--json"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert shape(report) == TOOL_REPORTS[tool] and report["repeat"] == 1
    assert tree_files() == before
