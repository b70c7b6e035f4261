"""Acceptance suite: every release criterion at its stated scale.

Each test prints one PASS line on success (run with -s to see them all);
a failure reads as the criterion number plus what broke.  The
play-strength criteria (07 and 11) are statistical, with their first
passing tallies frozen as seeded regressions; all other criteria are exact or
oracle-based.  Criterion 06 (~15.5–18.5 min) lives in ``longtests/``.
"""

import itertools
import json
import time
from fractions import Fraction as F

import numpy as np
import pytest

import geoweave as gw
from geoweave.cli import main as cli_main
from geoweave.dsl import parse_feature, serialize_feature
from geoweave.instancer import instance_placements, instantiate, match_instance
from geoweave.rng import SplitMix64
from geoweave.search import (
    AgentSpec,
    MatchCounters,
    biased_move_distribution,
    biased_scores,
    compile_feature_set,
    play_match,
)
from geoweave.svg import render_feature
from geoweave.walks import make_walk, resolve_walk_branches, round_turn
from conftest import FIXTURES, GOLDEN
from oracles import interpret_instances_batch, probe_cell_value, round_half_away, square_walk_oracle, word_count, words
from test_dsl import random_feature
from test_search import record_tests

REGRESSION_SEED = 20250810


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


def pack_state_words(values_matrix: np.ndarray, chunk_bits: int, n_words: int) -> np.ndarray:
    """Pack decoded value rows into 64-bit word rows (test-side packing)."""
    n_states, n_cells = values_matrix.shape
    words = np.zeros((n_states, n_words), dtype=np.uint64)
    for c in range(n_cells):
        bit = c * chunk_bits
        words[:, bit // 64] |= values_matrix[:, c].astype(np.uint64) << np.uint64(bit % 64)
    return words


def test_criterion_01_matcher_oracle_equivalence(
    bridge_fs, line4_fs, group3_fs, thin_group_fs
):
    """Compiled bit-parallel matching == naive per-element interpretation on
    10^4 random states x every instance of all four fixture sets."""
    started = time.monotonic()
    rng = np.random.default_rng(11)
    n_states = 10_000
    total_instances = 0
    total_pairs = 0
    setups = [
        (bridge_fs, gw.hex_rules(7)),
        (group3_fs, gw.hex_rules(7)),
        (thin_group_fs, gw.hex_rules(7)),
        (line4_fs, gw.line4_rules(7, 7)),
    ]
    for fs, rules in setups:
        cells = rules.graph.cell_count
        shape = (gw.CHUNK_BITS, cells)
        n_words = word_count(*shape)
        values = rng.integers(0, 3, size=(n_states, cells), dtype=np.int64)
        state_words = pack_state_words(values, gw.CHUNK_BITS, n_words)
        for mover in (1, 2):
            idx = instantiate(fs, rules.graph, mover)
            assert idx.instances
            total_instances += len(idx.instances)
            # The naive matcher reads each instance's element sites, which
            # only a compile for its placements gives.
            placed = instance_placements(fs, rules.graph, mover)
            assert [inst for inst, *_ in placed] == list(idx.instances)
            want = interpret_instances_batch([sites for *_, sites in placed], values, mover)
            got = np.empty_like(want)
            for j, inst in enumerate(idx.instances):
                mask = np.array(words(inst.mask, *shape), dtype=np.uint64)
                target = np.array(words(inst.target, *shape), dtype=np.uint64)
                ok = np.all((state_words & mask) == target, axis=1)
                for cell, forbidden in map(probe_cell_value, inst.negative_probes):
                    ok &= values[:, cell] != forbidden
                got[:, j] = ok
            assert (got == want).all(), f"{fs.name} mover {mover}: compiled != interpreter"
            total_pairs += want.size
            # Tie the vectorised word test to the actual runtime matcher.
            for _ in range(200):
                s = int(rng.integers(n_states))
                j = int(rng.integers(len(idx.instances)))
                board = sum(int(w) << 64 * i for i, w in enumerate(state_words[s]))
                assert match_instance(idx.instances[j], board) == bool(got[s, j])
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is one minute"
    report(1, f"{total_pairs} state x instance pairs across {total_instances} instances "
              f"agree 100% ({elapsed:.1f}s)")


def test_criterion_02_walk_oracle_equivalence(square9):
    """resolve_walk on SQUARE(9,9) == coordinate arithmetic for every anchor,
    start direction and quarter-turn walk up to length 4 (exhaustive)."""
    started = time.monotonic()
    turns = [F(0), F(1, 4), F(1, 2), F(3, 4)]
    compass = ["N", "E", "S", "W"]
    checked = 0
    walks = [w for length in range(5) for w in itertools.product(turns, repeat=length)]
    for y in range(9):
        for x in range(9):
            anchor = gw.square_cell(square9, x, y)
            for d in range(4):
                for walk in walks:
                    branches = resolve_walk_branches(square9, anchor, d, make_walk(walk))
                    want = square_walk_oracle(9, 9, (x, y), compass[d], walk)
                    assert branches == (want,), (x, y, d, walk)
                    checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(2, f"{checked} exhaustive walk resolutions match the oracle ({elapsed:.1f}s)")


def test_criterion_03_knight_ambiguity_on_semi3464(semi3):
    """{0,0,1/4} from the central square cell: two branches per orientation;
    triangle-first orientations give two distinct destinations (the paper's
    two equivalent knight moves); frozen as a regression fixture."""
    golden = json.loads((GOLDEN / "semi_knight.json").read_text())
    anchor = golden["anchor"]
    assert semi3.sides[anchor] == 4
    knight = make_walk([0, 0, F(1, 4)])
    split_orientations = 0
    for d in range(4):
        branches = resolve_walk_branches(semi3, anchor, d, knight)
        expect = golden["orientations"][str(d)]
        assert branches == tuple(expect["branches"])
        assert len(branches) == 2  # one odd cell on every path: always two branches
        assert sorted(set(branches)) == expect["distinct"]
        if semi3.sides[semi3.neighbors[anchor][d]] == 3:
            assert len(set(branches)) == 2
            split_orientations += 1
    assert split_orientations == 2
    report(3, "knight walk splits into two instances; triangle-first orientations "
              "reach two distinct cells, frozen in golden/semi_knight.json")


def test_criterion_04_rounding_rule():
    assert round_turn(F(1, 4), 3) == 1  # quarter turn in a triangle = third turn
    checked = 0
    for a in (3, 4, 6):
        for den in range(1, 13):
            for num in range(-3 * den, 3 * den + 1):
                f = F(num, den)
                assert round_turn(f, a) == round_half_away(f * a)
                checked += 1
    report(4, f"round_turn matches half-away-from-zero on {checked} cases "
              "(denominators <= 12, sides 3/4/6)")


def test_criterion_05_bias_correctness(line4_fs):
    """No features => exactly the uniform distribution on 10^3 sampled
    states; the canonical 3-move single-feature case scores exactly 0.5."""
    rng = SplitMix64(55)
    sampled = 0
    for rules in (gw.line4_rules(5, 5), gw.hex_rules(5)):
        zero_weight = None
        if isinstance(rules, gw.Line4Rules):
            zero_weight = gw.FeatureSet(
                tuple(
                    gw.Feature(
                        elements=f.elements, action=f.action, weight=0.0,
                        anchor=f.anchor, rotations=f.rotations,
                        reflections=f.reflections, last_move=f.last_move,
                    )
                    for f in line4_fs.features
                )
            )
        zero_idx = compile_feature_set(zero_weight, rules) if zero_weight else None
        state = rules.initial_state()
        for _ in range(500):
            if rules.status(state) is not None:
                state = rules.initial_state()
            legal = rules.legal_moves(state)
            uniform = [1.0 / len(legal)] * len(legal)
            assert biased_move_distribution(state, legal, None) == uniform
            if zero_idx is not None:
                assert biased_move_distribution(state, legal, zero_idx[state.mover]) == uniform
            sampled += 1
            state = rules.apply(state, legal[rng.next_u64() % len(legal)])

    from test_search import test_single_feature_three_moves_gives_half

    test_single_feature_three_moves_gives_half()
    report(5, f"biased == uniform exactly on {sampled} sampled states; "
              "single-feature 3-move case is exactly 0.5")


def test_criterion_07_line4_strategy_fixture(line4_fs):
    """Feature-biased random player with the line-strategy fixture beats the
    uniform random player on 7x7: rate > 0.55, CI excluding 0.5."""
    started = time.monotonic()
    rules = gw.line4_rules(7, 7)
    result = play_match(
        rules,
        AgentSpec(feature_set=line4_fs, playouts=0),
        AgentSpec(playouts=0),
        games=1000,
        seed=REGRESSION_SEED,
    )
    elapsed = time.monotonic() - started
    assert result.win_rate_a > 0.55
    assert result.ci_low > 0.5
    # Frozen first-passing-run tallies (seeded regression).
    assert (result.wins_a, result.wins_b, result.draws) == (701, 299, 0)
    assert elapsed < 300.0
    report(7, f"line-strategy biased random wins {result.wins_a}/1000 "
              f"(rate {result.win_rate_a:.3f}, CI [{result.ci_low:.3f}, {result.ci_high:.3f}], "
              f"{elapsed:.0f}s)")


def test_criterion_08_reactive_fast_path(bridge_fs, hex7_rules, monkeypatch):
    """Per move, the instances tested are the last-move bucket's, by identity
    and in order, then the (empty) proactive list: never the whole reactive
    set, measured across 100+ playout moves."""
    indexes = compile_feature_set(bridge_fs, hex7_rules)
    total_reactive = sum(len(v) for v in indexes[1].reactive_by_last_move.values())
    tested = record_tests(monkeypatch)
    rng = SplitMix64(313)
    moves_checked = 0
    while moves_checked < 100:
        state = hex7_rules.initial_state()
        while hex7_rules.status(state) is None:
            legal = hex7_rules.legal_moves(state)
            idx = indexes[state.mover]
            assert idx.proactive == ()
            tested.clear()
            counters = MatchCounters()
            scores = biased_scores(state, legal, idx, counters)
            bucket = idx.reactive_for(state.last_move) if state.last_move is not None else ()
            assert list(map(id, tested)) == list(map(id, bucket + idx.proactive))
            assert (counters.reactive_tests, counters.proactive_tests) == (len(bucket), 0)
            if state.last_move is not None:
                assert len(bucket) < total_reactive  # strictly less than the full set
                moves_checked += 1
            total = sum(scores)
            r = rng.random() * total
            acc, pick = 0.0, len(legal) - 1
            for i, s in enumerate(scores):
                acc += s
                if r < acc:
                    pick = i
                    break
            state = hex7_rules.apply(state, legal[pick])
    report(8, f"the instances tested are the last-move bucket on {moves_checked} moves "
              f"(full reactive set: {total_reactive} instances)")


def test_criterion_09_dsl_round_trip_fuzz():
    """10^4 random features survive parse . serialize . parse with
    structural equality; every element glyph form is exercised."""
    rng = SplitMix64(20240809)
    seen_glyphs = set()
    for _ in range(10_000):
        f = random_feature(rng)
        text = serialize_feature(f)
        again = parse_feature(text)
        assert again == f, text
        assert serialize_feature(again) == text
        for el in f.elements:
            for c in el.constraints:
                glyph = c.glyph()
                seen_glyphs.add(glyph[1] if glyph.startswith("!") else glyph[0])
                if c.negated:
                    seen_glyphs.add("!")
    assert {"-", ".", "o", "x", "P", "I", "!"} <= seen_glyphs
    report(9, "10000 random features round-trip exactly; all glyph forms covered")


def test_criterion_10_reproducibility(tmp_path, bridge_fs, hex7_rules, line4_fs, line4_7_rules):
    """cmd_match with a fixed seed is byte-identical across runs; SVG
    output matches the checked-in goldens byte for byte."""
    args = [
        "match", "--game", "hex5", "--a", str(FIXTURES / "bridge.fs"),
        "--games", "4", "--playouts", "50", "--seed", "9",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "r2")]) == 0
    first = (tmp_path / "r1" / "match.json").read_bytes()
    second = (tmp_path / "r2" / "match.json").read_bytes()
    assert first == second

    assert render_feature(bridge_fs.features[0], hex7_rules.graph) == \
        (GOLDEN / "bridge_feature.svg").read_text()
    for i, feature in enumerate(line4_fs.features):
        assert render_feature(feature, line4_7_rules.graph) == \
            (GOLDEN / f"line4_feature_{i}.svg").read_text()
    report(10, "match JSON byte-identical across reruns; SVG goldens stable")


@pytest.mark.parametrize("size,tally", [(9, (152, 48, 0)), (15, (144, 56, 0))])
def test_criterion_11_line4_fixture_transfers_to_larger_boards(line4_fs, size, tally):
    """The line-strategy fixture, written for 7x7, still beats the uniform
    random player on boards it was not written for: Wilson lower bound
    above 0.5 over 200 games at criterion 07's seed."""
    started = time.monotonic()
    result = play_match(
        gw.line4_rules(size, size),
        AgentSpec(feature_set=line4_fs, playouts=0),
        AgentSpec(playouts=0),
        games=200,
        seed=REGRESSION_SEED,
    )
    elapsed = time.monotonic() - started
    assert result.ci_low > 0.5
    # Frozen first-passing-run tallies (seeded regression).
    assert (result.wins_a, result.wins_b, result.draws) == tally
    report(11, f"line-strategy fixture on line4-{size}x{size} wins {result.wins_a}/200 "
               f"(rate {result.win_rate_a:.3f}, CI [{result.ci_low:.3f}, {result.ci_high:.3f}], "
               f"{elapsed:.1f}s)")
