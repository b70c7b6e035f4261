import dataclasses
import math
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoweave as gw
from geoweave import search
from geoweave.features import EMPTY, FRIEND, Feature, FeatureSet, PatternElement
from geoweave.rng import SplitMix64, derive_seed
from geoweave.search import (
    FLOOR,
    AgentSpec,
    MatchCounters,
    _sample,
    biased_move_distribution,
    biased_scores,
    compile_feature_set,
    mcts_best_move,
    play_match,
    run_playout,
)
from geoweave.walks import make_walk
from conftest import FIXTURES
from oracles import biased_scores_oracle, instantiate_oracle, one_ply_winning_moves, random_oracle, sample_oracle
from test_instancer import NoWinRules, hex_bridge_position


def test_empty_index_gives_uniform_distribution():
    rules = gw.line4_rules(4, 4)
    state = rules.initial_state()
    legal = rules.legal_moves(state)
    probs = biased_move_distribution(state, legal, None)
    assert probs == [1.0 / len(legal)] * len(legal)


def test_single_feature_three_moves_gives_half():
    # One matching instance of weight 1 among 3 legal moves: (1+1)/4 = 0.5.
    rules = gw.line4_rules(4, 4)
    # Fill all but three cells without making a line of four.
    filled = [
        1, 2, 1, 2,
        2, 1, 1, 2,
        1, 2, 1, 2,
        1, 0, 0, 0,
    ]
    state = rules.position(filled, 1, 11)
    legal = rules.legal_moves(state)
    assert len(legal) == 3  # cells 13, 14, 15
    feature = Feature(
        elements=(PatternElement((), (EMPTY,)), PatternElement(make_walk([F(1, 2)]), (FRIEND,))),
        action=(),
        rotations=(F(0),),  # anchor faces north, friend just south
    )
    idx = gw.instantiate(FeatureSet((feature,)), rules.graph, 1)
    probs = biased_move_distribution(state, legal, idx)
    by_move = dict(zip(legal, probs))
    # Cell 14 sits above the friendly stone at 10; no other candidate does.
    assert by_move[14] == 0.5
    assert by_move[13] == 0.25 and by_move[15] == 0.25


def test_distribution_sums_to_one_and_respects_floor(line4_fs):
    rules = gw.line4_rules(5, 5)
    indexes = compile_feature_set(line4_fs, rules)
    rng = SplitMix64(5)
    state = rules.initial_state()
    for _ in range(8):
        legal = rules.legal_moves(state)
        scores = biased_scores(state, legal, indexes[state.mover])
        probs = biased_move_distribution(state, legal, indexes[state.mover])
        assert abs(sum(probs) - 1.0) < 1e-12
        floor_share = FLOOR / sum(scores)
        assert all(p >= floor_share - 1e-15 for p in probs)
        assert all(s >= FLOOR for s in scores)
        state = rules.apply(state, legal[rng.next_u64() % len(legal)])


def test_negative_weights_clamp_at_floor():
    rules = gw.line4_rules(5, 5)
    feature = Feature(
        elements=(PatternElement((), (EMPTY,)), PatternElement(make_walk([0]), (FRIEND,))),
        action=(),
        weight=-50.0,
    )
    indexes = compile_feature_set(FeatureSet((feature,)), rules)
    state = rules.apply(rules.initial_state(), 12)
    state = rules.apply(state, 0)
    legal = rules.legal_moves(state)
    scores = biased_scores(state, legal, indexes[1])
    assert min(scores) == FLOOR
    assert any(s == 1.0 for s in scores)


def test_bridge_completion_gets_max_probability(bridge_fs, hex7_rules):
    state, intrusion, completion = hex_bridge_position(hex7_rules)
    indexes = compile_feature_set(bridge_fs, hex7_rules)
    legal = hex7_rules.legal_moves(state)
    probs = biased_move_distribution(state, legal, indexes[2])
    best = max(range(len(legal)), key=lambda i: probs[i])
    assert legal[best] == completion
    # Weight 5 on base 1: the completion cell is exactly six times as likely.
    assert probs[best] == pytest.approx(6.0 * probs[0])


def test_playout_rejects_terminal_state():
    rules = gw.line4_rules(4, 4)
    state = rules.initial_state()
    for move in (0, 4, 1, 5, 2, 6, 3):
        state = rules.apply(state, move)
    assert rules.status(state) == 1
    with pytest.raises(ValueError):
        run_playout(state, rules, None, SplitMix64(1))


def test_playout_reproducible_and_uniform_equivalence():
    rules = gw.line4_rules(4, 4)
    first = run_playout(rules.initial_state(), rules, None, SplitMix64(42))
    second = run_playout(rules.initial_state(), rules, None, SplitMix64(42))
    assert first == second
    # An index with no instances biases nothing: same trajectory as None.
    empty_idx = compile_feature_set(None, rules)
    assert empty_idx is None
    fs = FeatureSet((Feature(
        elements=(PatternElement((), (EMPTY,)),),
        action=(),
        weight=0.0,
    ),))
    zero_idx = compile_feature_set(fs, rules)
    third = run_playout(rules.initial_state(), rules, zero_idx, SplitMix64(42))
    assert third == first


def test_mcts_finds_immediate_line4_win():
    rules = gw.line4_rules(5, 5)
    state = rules.initial_state()
    for move in (0, 20, 1, 21, 2, 22):
        state = rules.apply(state, move)
    wins = one_ply_winning_moves(rules, state)
    assert wins == [3]
    best = mcts_best_move(state, rules, None, playouts=1000, seed=9)
    assert best == 3


def test_mcts_deterministic_given_seed():
    rules = gw.line4_rules(4, 4)
    state = rules.initial_state()
    assert mcts_best_move(state, rules, None, 200, 77) == mcts_best_move(state, rules, None, 200, 77)


def test_mcts_symmetric_root_visits_are_balanced():
    """On an empty symmetric board the four corner moves should collect
    statistically similar visit counts (loose chi-square style bound)."""
    from geoweave.search import _search_tree

    rules = gw.line4_rules(4, 4)
    state = rules.initial_state()
    visits = _search_tree(state, rules, None, 2000, SplitMix64(3), None)
    legal = rules.legal_moves(state)
    corners = [visits[i] for i, m in enumerate(legal) if m in (0, 3, 12, 15)]
    mean = sum(corners) / 4
    assert mean > 0
    for v in corners:
        assert abs(v - mean) <= 6 * math.sqrt(mean) + 10


def test_mcts_hex2_picks_winning_opening():
    rules = gw.hex_rules(2)
    best = mcts_best_move(rules.initial_state(), rules, None, playouts=10000, seed=4)
    # Exhaustive minimax: every opening wins for player 1 on 2x2 hex, so
    # just confirm the chosen move actually wins under perfect play.
    from oracles import minimax_winner

    after = rules.apply(rules.initial_state(), best)
    assert minimax_winner(rules, after) == 1


def test_search_rejects_an_index_of_other_rules(bridge_fs, hex7_rules):
    """Search checks that its indexes were compiled for its rules' board:
    a hex7 index is refused on line4-7x7, which has hex7's 49 cells, and
    on hex5.  The same rules built again pass."""
    indexes = compile_feature_set(bridge_fs, hex7_rules)
    for rules in (gw.line4_rules(7, 7), gw.hex_rules(5)):
        state = rules.initial_state()
        with pytest.raises(ValueError, match="another board"):
            mcts_best_move(state, rules, indexes, 4, 1)
        with pytest.raises(ValueError, match="another board"):
            run_playout(state, rules, indexes, SplitMix64(1))
    again = gw.hex_rules(7)
    run_playout(again.initial_state(), again, indexes, SplitMix64(1))
    mcts_best_move(again.initial_state(), again, indexes, 4, 1)


def test_search_rejects_a_finished_game_no_playouts_and_no_legal_moves():
    rules = gw.line4_rules(4, 4)
    won = rules.initial_state()
    for move in (0, 4, 1, 5, 2, 6, 3):
        won = rules.apply(won, move)
    assert rules.status(won) == 1
    with pytest.raises(ValueError, match="non-terminal"):
        mcts_best_move(won, rules, None, 4, 1)
    with pytest.raises(ValueError, match="playouts"):
        mcts_best_move(rules.initial_state(), rules, None, 0, 1)
    with pytest.raises(ValueError, match="no legal moves"):
        biased_move_distribution(won, [], None)


def test_a_game_without_wins_ends_in_a_draw_on_the_full_board():
    """The base ``apply`` draws a full board, so rules that never find a
    win still end: a playout fills the board, and so does every match game,
    under the policy and under MCTS."""
    rules = NoWinRules(gw.build_board(gw.Square(3, 3)))
    assert run_playout(rules.initial_state(), rules, None, SplitMix64(3)) == 0
    result = play_match(rules, AgentSpec(playouts=4), AgentSpec(), games=2, seed=5)
    assert (result.wins_a, result.wins_b, result.draws) == (0, 0, 2)


def record_tests(monkeypatch) -> list:
    """Every instance that ``biased_scores`` tests from now on, in order."""
    tested = []
    match = search.match_instance

    def recording(inst, bits):
        tested.append(inst)
        return match(inst, bits)

    monkeypatch.setattr(search, "match_instance", recording)
    return tested


def test_reactive_fast_path_counters(bridge_fs, hex7_rules, monkeypatch):
    """Each move tests the last-move bucket, by identity and in order, then
    the proactive list (empty for the bridge set), and the counters count
    exactly those tests."""
    indexes = compile_feature_set(bridge_fs, hex7_rules)
    tested = record_tests(monkeypatch)
    counters = MatchCounters()
    rng = SplitMix64(17)
    state = hex7_rules.initial_state()
    moves = 0
    for _ in range(20):
        legal = hex7_rules.legal_moves(state)
        if not legal or hex7_rules.status(state) is not None:
            break
        idx = indexes[state.mover]
        assert idx.proactive == ()
        tested.clear()
        before = counters.reactive_tests
        biased_scores(state, legal, idx, counters)
        bucket = idx.reactive_for(state.last_move) if state.last_move is not None else ()
        assert list(map(id, tested)) == list(map(id, bucket + idx.proactive))
        assert counters.reactive_tests - before == len(bucket)
        moves += bool(bucket)
        state = hex7_rules.apply(state, legal[rng.next_u64() % len(legal)])
    assert moves
    assert counters.proactive_tests == 0


def test_agent_label_names_the_kind_and_the_feature_set():
    assert AgentSpec().label() == "policy:uniform"
    assert AgentSpec(playouts=30).label() == "mcts30:uniform"
    assert AgentSpec(feature_set=FeatureSet((), "bridge")).label() == "policy:bridge"
    # An empty set is still a feature set: it has no weight to add, but it
    # is compiled and scored like any other.
    assert AgentSpec(feature_set=FeatureSet(())).label() == "policy:features"


def test_play_match_validation(hex7_rules):
    with pytest.raises(ValueError):
        play_match(hex7_rules, AgentSpec(), AgentSpec(), games=0, seed=1)
    with pytest.raises(ValueError):
        play_match(hex7_rules, AgentSpec(), AgentSpec(), games=3, seed=1)


def test_uniform_self_play_is_balanced():
    rules = gw.hex_rules(5)
    result = play_match(rules, AgentSpec(), AgentSpec(), games=200, seed=6)
    assert result.games == 200
    assert result.wins_a + result.wins_b + result.draws == 200
    assert 0.4 <= result.win_rate_a <= 0.6
    again = play_match(rules, AgentSpec(), AgentSpec(), games=200, seed=6)
    assert again.to_dict() == result.to_dict()


def test_identical_policy_agents_mirror_to_exactly_half():
    """Paired seeds + side swap: two identical agents split every pair."""
    rules = gw.line4_rules(5, 5)
    result = play_match(rules, AgentSpec(), AgentSpec(), games=30, seed=11)
    assert result.win_rate_a == 0.5


def test_bridge_mcts_match_tally_is_frozen(bridge_fs, hex7_rules):
    """Criterion 06's pairing (bridge-biased MCTS against vanilla MCTS on 7x7
    Hex) at a tier-1 size, frozen as a seeded regression."""
    result = play_match(
        hex7_rules, AgentSpec(feature_set=bridge_fs, playouts=200), AgentSpec(playouts=200),
        games=4, seed=20250810,
    )
    assert (result.wins_a, result.wins_b, result.draws) == (3, 1, 0)
    assert (result.wins_a_as_first, result.wins_a_as_second) == (1, 2)


def test_derive_seed_streams_differ():
    seeds = {derive_seed(9, i) for i in range(100)}
    assert len(seeds) == 100


# --- sampling, the RNG and scoring against their oracles --------------------

# Floor-clamped scores, tied scores and arbitrary positive ones.
score_values = st.one_of(
    st.just(FLOOR),
    st.sampled_from([0.5, 1.0, 1.0 + FLOOR, 2.0]),
    st.floats(min_value=FLOOR, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None)
@given(
    scores=st.lists(score_values, min_size=1, max_size=121),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_sample_picks_the_linear_scan_index(scores, seed):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for _ in range(8):
        assert _sample(scores, fast) == sample_oracle(scores, slow)
    assert fast.state == slow.state


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 121), seed=st.integers(0, (1 << 64) - 1))
def test_sample_picks_the_linear_scan_index_on_unit_scores(n, seed):
    scores = [1.0] * n
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    for _ in range(8):
        assert _sample(scores, fast) == sample_oracle(scores, slow)
    assert fast.state == slow.state


class _FixedDraw:
    """An RNG whose every draw is ``k`` * 2**-53, through either method."""

    def __init__(self, k: int):
        self.k = k

    def random(self) -> float:
        return self.k / 9007199254740992.0

    def next_u64(self) -> int:
        return self.k << 11


@pytest.mark.parametrize("k", [0, 1, 1 << 52, (1 << 53) - 1, 1 << 53])
def test_sample_matches_the_linear_scan_at_the_extreme_draws(k):
    # 1 << 53 draws exactly the total, which the linear scan maps to the
    # last move; a true draw stays below 1, and its product with a total
    # rounds to below that total, so only this draw reaches the clamp.
    unit = [[1.0] * n for n in (1, 2, 7, 49, 121)]
    for scores in ([FLOOR, FLOOR, FLOOR], [0.1, 0.2, 0.3], [3.0, FLOOR, 1.0, FLOOR], *unit):
        assert _sample(scores, _FixedDraw(k)) == sample_oracle(scores, _FixedDraw(k))


@pytest.mark.parametrize("seed", [0, 1, 2025, (1 << 64) - 1])
def test_random_draws_are_bit_identical_to_next_u64(seed):
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    assert [fast.random() for _ in range(100_000)] == [random_oracle(slow) for _ in range(100_000)]
    assert fast.state == slow.state
    assert fast.next_u64() == slow.next_u64()


# "bridge+group3" is a test-only set: bridge's reactive feature and
# group3's proactive ones together, reweighted so that the order in which
# a move's weights are added changes its float sum, as (1.0 + 0.1) + 0.2
# differs from (1.0 + 0.2) + 0.1.
SCORING_FIXTURES = ("bridge", "group3", "line4", "thin_group", "bridge+group3")
MIXED_WEIGHTS = (0.1, 0.2, 0.7, -0.3, 0.6)
SCORING_GAMES = ("hex5", "hex7", "line4-7x7")


def scoring_feature_set(fixture: str) -> FeatureSet:
    if fixture == "bridge+group3":
        features = [f for name in ("bridge", "group3")
                    for f in gw.load_feature_set(FIXTURES / f"{name}.fs").features]
        assert [f.reactive for f in features] == [True, False, False, False, False]
        return FeatureSet(tuple(dataclasses.replace(f, weight=w)
                                for f, w in zip(features, MIXED_WEIGHTS)), fixture)
    return gw.load_feature_set(FIXTURES / f"{fixture}.fs")


@lru_cache(maxsize=None)
def compiled_fixture(fixture: str, game: str):
    """The rules, the engine's index of each player and the oracle's."""
    rules = gw.game_from_name(game)
    fs = scoring_feature_set(fixture)
    oracle = {p: instantiate_oracle(fs, rules.graph, p) for p in (1, 2)}
    return rules, compile_feature_set(fs, rules), oracle


@pytest.mark.parametrize("game", SCORING_GAMES)
@pytest.mark.parametrize("fixture", SCORING_FIXTURES)
@settings(max_examples=20, deadline=None)
@given(picks=st.lists(st.integers(0, 120), min_size=1, max_size=40))
def test_biased_scores_equal_the_full_board_oracle(fixture, game, picks):
    """At every position of a random game (the i-th move is legal move
    ``picks[i] mod count``), the mover's scores equal the oracle's."""
    rules, indexes, oracle = compiled_fixture(fixture, game)
    state = rules.initial_state()
    for pick in picks:
        if rules.status(state) is not None:
            break
        legal = rules.legal_moves(state)
        want = biased_scores_oracle(state, legal, oracle[state.mover])
        assert biased_scores(state, legal, indexes[state.mover]) == want
        state = rules.apply(state, legal[pick % len(legal)])
