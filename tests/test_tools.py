"""The timing tools under ``tools/`` run and report what they promise.
No test here asserts a timing."""

import functools
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
         "--size", "smoke", "--rounds", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["workload"] == workload and report["rounds"] == 3 and report["games"] > 0
    assert len(report["ratios"]) == 3 and 0 <= report["change_wins"] <= 3
    for key in ("seconds", "setup_seconds"):
        assert shape(report[key]) == {side: leaves("min", "median") for side in ("base", "change")}
    assert tree_files() == before  # wrote nothing, bytecode included


def shape(value):
    """The keys of a JSON report, nested, with None for each leaf."""
    return {k: shape(v) for k, v in value.items()} if isinstance(value, dict) else None


def leaves(*keys: str) -> dict:
    return dict.fromkeys(keys)


# The report each per-layer timing tool documents.
COMPILE_MOVER = leaves("instances", "walk_calls", "distinct_recipes", "cold_s", "hit_s", "hit_walk_replay_s",
                       "hit_walk_replay_share")
PLY_COUNTS = leaves("plies", "playouts", "unit_score_share", "tests_per_ply", "match_instance_ns_per_test")
PLY_US = leaves("legal_moves", "biased_scores", "_sample", "apply", "win_check")
TOOL_REPORTS = {
    "plies": {
        **leaves("case", "seed", "repeat"),
        "line4-policy": {**PLY_COUNTS, "us_per_call": PLY_US},
        "hex7-mcts-bridge": {**PLY_COUNTS, "us_per_call": {**PLY_US, **leaves("playout_ply")}},
        "hex19_group3": leaves("boards", "instances", "match_instance_ns_per_test"),
    },
    "compile": {
        **leaves("candidates", "repeat", "cold_pair_s", "cold_pair_peak_mb", "cold_pair_kept_mb"),
        "movers": {"1": COMPILE_MOVER, "2": COMPILE_MOVER},
    },
}


@functools.cache
def tool_report(tool: str) -> dict:
    """The whole stdout of one ``--repeat 1`` run of ``tools/{tool}.py``,
    which must be one JSON object; the run must write no file."""
    before = tree_files()
    # -B: Python's bytecode cache is not the tool's output.
    proc = subprocess.run(
        [sys.executable, "-B", f"tools/{tool}.py", "--repeat", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert tree_files() == before
    return json.loads(proc.stdout)


@pytest.mark.parametrize("tool", sorted(TOOL_REPORTS))
def test_timing_tool_reports_its_keys(tool):
    report = tool_report(tool)
    assert shape(report) == TOOL_REPORTS[tool] and report["repeat"] == 1


def test_plies_records_each_agents_plies():
    """The policy agent samples its own moves and plays no playout; every
    one of its plies tests line4.fs's 434 proactive instances.  The bridge
    agent's plies are those of its playouts.  (The key check above holds
    ``playout_ply`` to the bridge workload.)"""
    report = tool_report("plies")
    line4, bridge = report["line4-policy"], report["hex7-mcts-bridge"]
    assert line4["plies"] > 0 and line4["playouts"] == 0 and line4["tests_per_ply"] == 434.0
    assert bridge["playouts"] > 0 and bridge["plies"] > bridge["playouts"]
