"""Long tier: the full-size runs that do not fit the tier-1 suite's time.

Run with ``PYTHONPATH=src python -m pytest longtests -q -s``. One run on a
2-CPU VM (Intel Xeon, Python 3.11.7) took 602 s: criterion 06 511 s, the
weight hill-climb 71 s, demo 03 12 s, the hex5 transfer match 5 s and
demo 04 4 s. They run at their stated sizes with every assert kept; the
tier-1 suite under ``tests/`` covers the same code paths at small sizes.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import geoweave as gw
from geoweave.dsl import parse_feature_set
from geoweave.featuregen import hill_climb_weights
from geoweave.search import AgentSpec, play_match

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"
# The acceptance suite's seed (tests/test_acceptance.py).
REGRESSION_SEED = 20250810


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_06_hex_bridge_strength():
    """Bridge-biased MCTS (w=5, 1000 playouts) beats vanilla MCTS on 7x7 Hex
    over 200 seeded games with the Wilson 95% lower bound above 0.5."""
    bridge_fs = gw.load_feature_set(FIXTURES / "bridge.fs")
    started = time.monotonic()
    rules = gw.hex_rules(7)
    biased = AgentSpec(feature_set=bridge_fs, playouts=1000)
    vanilla = AgentSpec(playouts=1000)
    result = play_match(rules, biased, vanilla, games=200, seed=REGRESSION_SEED)
    elapsed = time.monotonic() - started
    assert result.win_rate_a > 0.5
    assert result.ci_low > 0.5, f"CI lower bound {result.ci_low:.3f} not above 0.5"
    # First passing run, frozen as a seeded regression (this machine family).
    assert (result.wins_a, result.wins_b, result.draws) == (130, 70, 0)
    assert (result.wins_a_as_first, result.wins_a_as_second) == (67, 63)
    assert elapsed < 1800.0
    report(6, f"bridge biasing wins {result.wins_a}/200 "
              f"(rate {result.win_rate_a:.3f}, CI [{result.ci_low:.3f}, {result.ci_high:.3f}], "
              f"{elapsed:.0f}s)")


def test_bridge_mcts_transfers_to_hex5():
    """bridge.fs, written for hex7, still helps MCTS on 5x5 Hex: MCTS200
    with it beats vanilla MCTS200 over 40 seeded games with the Wilson 95%
    lower bound above 0.5.

    200 playouts exceed hex5's 25 legal moves, so UCT's fixed-move case
    (ROADMAP item 9) does not reach these roots. Item 9's fix may still
    move this tally; it is then re-frozen through the benchmark's outcome
    flag (ROADMAP item 1), with the reason in CHANGES.md."""
    bridge_fs = gw.load_feature_set(FIXTURES / "bridge.fs")
    rules = gw.hex_rules(5)
    biased = AgentSpec(feature_set=bridge_fs, playouts=200)
    vanilla = AgentSpec(playouts=200)
    result = play_match(rules, biased, vanilla, games=40, seed=REGRESSION_SEED)
    assert (result.wins_a, result.wins_b, result.draws) == (27, 13, 0)
    assert (result.wins_a_as_first, result.wins_a_as_second) == (13, 14)
    assert result.ci_low > 0.5, f"CI lower bound {result.ci_low:.3f} not above 0.5"


def test_hill_climb_budget_and_monotonicity():
    rules = gw.line4_rules(5, 5)
    fs = parse_feature_set(
        "rel proactive w=-1.5 rot=all refl=no el={}:. el={0}:o el={0,0}:o act_to={}", "make3"
    )
    result = hill_climb_weights(
        fs, rules, budget=6, step=2.0, seed=1234, games=300, playouts=16
    )
    assert len(result.history) <= 6
    assert result.best_record.win_rate >= result.history[0].win_rate
    # The "discourage lines of 3" direction measures as the harmful one in
    # this game: the climb flips the weight positive within the budget.
    assert result.best.features[0].weight > 0
    again = hill_climb_weights(
        fs, rules, budget=6, step=2.0, seed=1234, games=300, playouts=16
    )
    assert [r.win_rate for r in again.history] == [r.win_rate for r in result.history]


def run_demo(script: str, cwd: Path) -> str:
    """Run a demo from ``cwd`` on this checkout's ``src``; its output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_demo_03_runs(tmp_path):
    """Demo 03 builds a position by hand and plays two matches: too long
    for tier-1, which runs demos 01 and 02."""
    assert "the completion cell gets six times that" in run_demo("03_biased_playouts.py", tmp_path)
    assert not any(tmp_path.iterdir())  # writes no files


def test_demo_04_runs(tmp_path):
    """Demo 04 renders the fixture features into ``demos/out`` and scores a
    generated candidate over a 40-game match: too long for tier-1."""
    out = run_demo("04_rendering_and_generation.py", tmp_path)
    assert "candidates for hex with <=2 elements over 1-step walks: 25" in out
    assert not any(tmp_path.iterdir())  # writes only under demos/out
