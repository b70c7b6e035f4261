import json
from fractions import Fraction as F

import pytest

import geoweave as gw
from geoweave import featuregen
from geoweave.dsl import feature_set_hash, parse_feature, parse_feature_set, serialize_feature
from geoweave.featuregen import (
    EvalRecord,
    GenConfig,
    GenError,
    default_vocabulary,
    eval_log,
    evaluate_feature_set,
    generate_candidates,
    hill_climb_weights,
)
from geoweave.features import ElementKind


def test_minimum_pattern_alone_for_single_element():
    rules = gw.hex_rules(5)
    candidates = generate_candidates(rules, GenConfig(max_elements=1))
    assert [serialize_feature(f) for f in candidates] == [
        "rel proactive w=1.0 rot=all refl=no el={}:. act_to={}"
    ]


def test_hex_two_element_candidates_include_friend_adjacent():
    rules = gw.hex_rules(5)
    candidates = generate_candidates(rules, GenConfig(max_elements=2, max_walk_length=1))
    texts = [serialize_feature(f) for f in candidates]
    assert "rel proactive w=1.0 rot=all refl=no el={}:. el={0}:o act_to={}" in texts
    assert len(texts) == 25  # 1 minimum + 6 one-step walks x 4 element kinds


def test_line4_default_candidate_count_regression():
    rules = gw.line4_rules(7, 7)
    candidates = generate_candidates(rules)
    # Regression value pinned by the first run of the enumerator.
    assert len(candidates) == 3121


def test_every_candidate_carries_minimum_pattern_and_round_trips():
    rules = gw.hex_rules(4)
    candidates = generate_candidates(rules, GenConfig(max_elements=2, max_walk_length=1, include_reactive=True))
    for f in candidates:
        anchor_elements = [el for el in f.elements if el.walk == ()]
        assert any(
            c.kind is ElementKind.EMPTY and not c.negated
            for el in anchor_elements
            for c in el.constraints
        )
        assert f.action == ()
        assert parse_feature(serialize_feature(f)) == f
    reactive = [f for f in candidates if f.reactive]
    assert reactive
    for f in reactive:
        assert f.last_move is not None


def test_generation_is_deterministic():
    rules = gw.line4_rules(5, 5)
    first = [serialize_feature(f) for f in generate_candidates(rules)]
    second = [serialize_feature(f) for f in generate_candidates(rules)]
    assert first == second


@pytest.mark.parametrize("game", [f"hex{n}" for n in range(2, 20)])
def test_hex_vocabulary_is_the_sixth_turns(game):
    assert default_vocabulary(gw.game_from_name(game)) == (0, F(1, 6), F(-1, 6), F(1, 3), F(-1, 3), F(1, 2))


@pytest.mark.parametrize("game", ["line4-4x4", "line4-5x5", "line4-7x7", "line4-9x6", "line4-4x9"])
def test_line4_vocabulary_is_the_quarter_turns(game):
    assert default_vocabulary(gw.game_from_name(game)) == (0, F(1, 4), F(-1, 4), F(1, 2))


def test_no_op_feature_set_evaluates_to_exactly_half():
    # Zero-weight features leave both agents identical; paired seeds with
    # side swapping then mirror every game pair into one win each.
    rules = gw.line4_rules(4, 4)
    fs = parse_feature_set("rel proactive w=0.0 el={}:. act_to={}")
    rec = evaluate_feature_set(fs, rules, games=10, seed=5, playouts=8)
    assert rec.win_rate == 0.5
    assert rec.ci_low < 0.5 < rec.ci_high


def test_evaluate_is_reproducible(bridge_fs):
    rules = gw.hex_rules(4)
    a = evaluate_feature_set(bridge_fs, rules, games=6, seed=3, playouts=12)
    b = evaluate_feature_set(bridge_fs, rules, games=6, seed=3, playouts=12)
    assert (a.win_rate, a.ci_low, a.ci_high) == (b.win_rate, b.ci_low, b.ci_high)


def test_eval_record_log_format(bridge_fs):
    rec = EvalRecord(bridge_fs, 10, 0.6, 0.31, 0.83, 7, 100)
    lines = eval_log([rec, rec]).strip().split("\n")
    assert len(lines) == 2
    payload = json.loads(lines[0])
    assert payload["games"] == 10
    assert payload["winRate"] == 0.6
    assert payload["ci"] == [0.31, 0.83]
    assert payload["seed"] == 7
    assert len(payload["featureSetHash"]) == 16


def test_hill_climb_keeps_only_improving_steps():
    """At policy strength (playouts=0) the climb on "discourage lines of 3"
    keeps both +2 steps, each a strict gain, and replays exactly."""
    rules = gw.line4_rules(5, 5)
    fs = parse_feature_set(
        "rel proactive w=-1.5 rot=all refl=no el={}:. el={0}:o el={0,0}:o act_to={}", "make3"
    )
    result = hill_climb_weights(fs, rules, budget=3, step=2.0, seed=1234, games=200, playouts=0)
    rates = [r.win_rate for r in result.history]
    assert rates == [0.34, 0.545, 0.6]
    assert [r.feature_set.features[0].weight for r in result.history] == [-1.5, 0.5, 2.5]
    assert result.best_record is result.history[-1]
    assert result.best.features[0].weight == 2.5
    again = hill_climb_weights(fs, rules, budget=3, step=2.0, seed=1234, games=200, playouts=0)
    assert [r.win_rate for r in again.history] == rates


def test_hill_climb_budget_validation(bridge_fs):
    rules = gw.hex_rules(4)
    with pytest.raises(GenError):
        hill_climb_weights(bridge_fs, rules, budget=0)


@pytest.mark.parametrize("step", [float("inf"), float("-inf"), float("nan")])
def test_hill_climb_refuses_a_non_finite_step_before_any_match(bridge_fs, step, monkeypatch):
    played = []
    monkeypatch.setattr(featuregen, "play_match", lambda *args, **kwargs: played.append(args))
    with pytest.raises(GenError, match="^step must be finite$"):
        hill_climb_weights(bridge_fs, gw.hex_rules(4), budget=3, step=step)
    assert played == []


@pytest.mark.parametrize("bounds", [(0, 1), (1, 0), (-1, 2)])
def test_gen_config_bounds(bounds):
    with pytest.raises(GenError) as err:
        GenConfig(*bounds)
    assert str(err.value) == "bounds must be >= 1"


# The generator drops no duplicate: its candidates are distinct by
# construction.  These pins hold the lists it gives.
@pytest.mark.parametrize("game,cfg,count,digest", [
    ("hex7", GenConfig(3, 1), 265, "711aa053486e67c0"),
    ("line4-5x5", GenConfig(3, 2, include_reactive=True), 4661, "ed5c56862e478454"),
    ("hex5", GenConfig(2, 3, include_reactive=True), 1291, "0bfb497e6530c114"),
])
def test_candidates_are_pinned_and_pairwise_distinct(game, cfg, count, digest):
    candidates = generate_candidates(gw.game_from_name(game), cfg)
    texts = [serialize_feature(f) for f in candidates]
    assert len(texts) == len(set(texts)) == count
    assert feature_set_hash(gw.FeatureSet(tuple(candidates))) == digest
