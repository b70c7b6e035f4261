"""The benchmark's workloads, each a set-up plus one timed library call.

Every workload goes through the calls a user makes (``play_match``,
``hill_climb_weights``), looked up on the package at call time so the
tracer's wrappers see them.  The importer puts the checkout's ``src`` on
``sys.path`` first.  A call returns its outcome: the games it
completed and the tallies that must match the stored expected values.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import geoweave as gw
from geoweave import featuregen

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Criterion 07's frozen seed; case k of a workload plays seed REGRESSION_SEED + k.
REGRESSION_SEED = 20250810
# ``--seed`` selects one of this many cases, each with stored expected values.
CASES = 16


@dataclass(frozen=True)
class Size:
    games: int  # per match (per evaluation when tuning)
    playouts: int = 0  # UCT playouts per move; 0 plays from the policy
    budget: int = 0  # hill-climb evaluations
    max_elements: int = 0  # candidate generation bound


@dataclass(frozen=True)
class Workload:
    name: str  # BENCHMARK.json says why each workload exists
    setup: Callable  # (size) -> prepared inputs
    call: Callable  # (prepared, size, seed) -> outcome dict
    sizes: dict
    # Span names that must record calls; missing ones mean another engine ran.
    layers: tuple


def _fixture_setup(game: str, fixture: str):
    def setup(size: Size):
        rules = gw.game_from_name(game)
        fs = gw.load_feature_set(FIXTURES / fixture)
        gw.compile_feature_set(fs, rules)
        return rules, fs

    return setup


def _match_call(prepared, size: Size, seed: int) -> dict:
    rules, fs = prepared
    result = gw.play_match(
        rules,
        gw.AgentSpec(feature_set=fs, playouts=size.playouts),
        gw.AgentSpec(playouts=size.playouts),
        size.games,
        seed,
    )
    return {
        "games": result.games,
        "tallies": [result.wins_a, result.wins_b, result.draws,
                    result.wins_a_as_first, result.wins_a_as_second],
    }


def _candidates_setup(size: Size):
    rules = gw.hex_rules(7)
    cfg = featuregen.GenConfig(max_elements=size.max_elements, max_walk_length=1)
    fs = gw.FeatureSet(tuple(featuregen.generate_candidates(rules, cfg)), "candidates")
    gw.compile_feature_set(fs, rules)
    return rules, fs


def _tune_call(prepared, size: Size, seed: int) -> dict:
    rules, fs = prepared
    result = featuregen.hill_climb_weights(
        fs, rules, budget=size.budget, games=size.games, playouts=0, seed=seed
    )
    return {
        "games": sum(rec.games for rec in result.history),
        "win_rates": [rec.win_rate for rec in result.history],
        "best": gw.feature_set_hash(result.best),
    }


_PLAY = ("search.play_match", "games.apply", "games.status", "games.legal_moves",
         "search.biased_scores", "instancer.instantiate", "walks.resolve_walk_branches")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "line4-policy",
            _fixture_setup("line4-7x7", "line4.fs"),
            _match_call,
            {"full": Size(games=100), "smoke": Size(games=4), "criterion07": Size(games=1000)},
            _PLAY + ("dsl.load_feature_set", "instancer.match_instance"),
        ),
        Workload(
            "hex7-mcts-bridge",
            _fixture_setup("hex7", "bridge.fs"),
            _match_call,
            {"full": Size(games=2, playouts=30), "smoke": Size(games=2, playouts=2)},
            _PLAY + ("dsl.load_feature_set", "search.mcts_best_move", "search.run_playout"),
        ),
        Workload(
            "hex7-tune-candidates",
            _candidates_setup,
            _tune_call,
            {"full": Size(games=4, budget=2, max_elements=3),
             "smoke": Size(games=2, budget=2, max_elements=2)},
            _PLAY + ("featuregen.generate_candidates", "featuregen.evaluate_feature_set",
                     "instancer.match_instance"),
        ),
    )
}
