import dataclasses
import gc
import re
import tracemalloc
from fractions import Fraction as F

import pytest

import geoweave as gw
from geoweave import instancer, walks
from geoweave.features import (
    EMPTY,
    ENEMY,
    FRIEND,
    OFF,
    Constraint,
    ElementKind,
    Feature,
    FeatureSet,
    PatternElement,
    negate,
)
from geoweave.chunkset import CHUNK_BITS
from geoweave.dsl import parse_feature
from geoweave.featuregen import GenConfig, generate_candidates
from geoweave.instancer import FeatureInstance, InstancerError, instantiate, match_instance
from geoweave.rng import SplitMix64
from geoweave.search import biased_scores, compile_feature_set
from geoweave.walks import make_walk, resolve_walk_branches
import oracles
from oracles import biased_scores_oracle, instantiate_oracle, interpret_instance, pack_values, word_count, words

KNIGHT = make_walk([0, 0, F(1, 4)])


def knight_feature(**kw):
    defaults = dict(
        elements=(PatternElement((), (EMPTY,)),),
        action=KNIGHT,
        weight=1.0,
        reflections=True,
    )
    defaults.update(kw)
    return Feature(**defaults)


def knight_star(x, y):
    return {
        (x + dx, y + dy)
        for dx, dy in ((1, 2), (2, 1), (2, -1), (1, -2), (-1, -2), (-2, -1), (-2, 1), (-1, 2))
    }


def test_knight_instances_form_the_star():
    g = gw.build_board(gw.Square(8, 8))
    idx = instantiate(FeatureSet((knight_feature(),)), g, 1)
    anchor = gw.square_cell(g, 4, 4)
    mine = [i for i in idx.instances if i.anchor == anchor]
    assert len(mine) == 8  # 4 rotations x 2 reflections, all distinct
    got = {i.action_to for i in mine}
    want = {gw.square_cell(g, x, y) for x, y in knight_star(4, 4)}
    assert got == want


def test_knight_instance_count_bound():
    g = gw.build_board(gw.Square(8, 8))
    idx = instantiate(FeatureSet((knight_feature(),)), g, 1)
    bound = g.cell_count * 4 * 2
    discarded = 0
    for x in range(8):
        for y in range(8):
            discarded += sum(
                1 for (dx, dy) in knight_star(0, 0)
                if not (0 <= x + dx < 8 and 0 <= y + dy < 8)
            )
    assert len(idx.instances) == bound - discarded
    assert len(idx.instances) <= bound


def test_semi3464_knight_splits_into_two_instances(semi3):
    # Pick a central square cell and aim it at a triangle, then a hexagon.
    centre_sq = min(
        (c for c in range(semi3.cell_count) if semi3.sides[c] == 4),
        key=lambda c: semi3.centers[c][0] ** 2 + semi3.centers[c][1] ** 2,
    )
    tri_dir = next(d for d, n in enumerate(semi3.neighbors[centre_sq]) if semi3.sides[n] == 3)
    hex_dir = next(d for d, n in enumerate(semi3.neighbors[centre_sq]) if semi3.sides[n] == 6)

    def weighted_instances_for(start_dir):
        feature = knight_feature(reflections=False, rotations=(F(start_dir, 4),))
        idx = instantiate(FeatureSet((feature,)), semi3, 1)
        return [(i, idx.weights[i.number]) for i in idx.instances if i.anchor == centre_sq]

    through_triangle = weighted_instances_for(tri_dir)
    assert len(through_triangle) == 2  # ambiguous quarter turn, two destinations
    assert through_triangle[0][0].action_to != through_triangle[1][0].action_to
    assert all(weight == 1.0 for _, weight in through_triangle)

    through_hexagon = weighted_instances_for(hex_dir)
    # Both branches land on the same cell: merged instance, summed weight.
    assert len(through_hexagon) == 1
    assert through_hexagon[0][1] == 2.0


def test_off_board_element_forces_edge_anchors():
    g = gw.build_board(gw.Square(6, 6))
    feature = Feature(
        elements=(PatternElement((), (EMPTY,)), PatternElement(make_walk([0]), (OFF,))),
        action=(),
        rotations=(F(0),),  # keep facing north only
    )
    idx = instantiate(FeatureSet((feature,)), g, 1)
    anchors = {i.anchor for i in idx.instances}
    top_row = {gw.square_cell(g, x, 5) for x in range(6)}
    assert anchors == top_row


def test_negated_off_requires_on_board():
    g = gw.build_board(gw.Square(4, 4))
    feature = Feature(
        elements=(PatternElement(make_walk([0]), (negate(OFF),)),),
        action=(),
        rotations=(F(0),),
    )
    idx = instantiate(FeatureSet((feature,)), g, 1)
    anchors = {i.anchor for i in idx.instances}
    assert anchors == {gw.square_cell(g, x, y) for x in range(4) for y in range(3)}


def hex_bridge_position(rules):
    """Fig-1 style position: white bridge (1,1)-(2,2), black intrudes (1,2)
    and white is to move; with the intrusion and completion cells."""
    g = rules.graph
    intrusion = gw.hex_cell(g, 1, 2)
    values = [0] * g.cell_count
    values[gw.hex_cell(g, 1, 1)] = values[gw.hex_cell(g, 2, 2)] = 2
    values[intrusion] = 1
    return rules.position(values, 2, intrusion), intrusion, gw.hex_cell(g, 2, 1)


def test_bridge_instance_matches_fig1_position(bridge_fs):
    rules = gw.hex_rules(7)
    idx = instantiate(bridge_fs, rules.graph, mover=2)
    state, intrusion, completion = hex_bridge_position(rules)
    hits = [i for i in idx.reactive_for(intrusion) if match_instance(i, state.board)]
    assert len(hits) == 1
    assert hits[0].action_to == completion
    # The same instance fails on an empty board: no enemy stone to react to.
    empty = rules.initial_state()
    assert not match_instance(hits[0], empty.board)


def test_reactive_indexing_partitions_instances(bridge_fs):
    rules = gw.hex_rules(5)
    idx = instantiate(bridge_fs, rules.graph, 1)
    assert not idx.proactive
    assert sum(len(v) for v in idx.reactive_by_last_move.values()) == len(idx.instances)
    for cell, bucket in idx.reactive_by_last_move.items():
        for inst in bucket:
            assert inst.last_move_cell == cell


def test_enemy_two_player_compiles_positively(bridge_fs):
    rules = gw.hex_rules(5)
    idx = instantiate(bridge_fs, rules.graph, mover=2)
    inst = idx.instances[0]
    assert inst.negative_tests == ()  # pure mask/target fast path


def test_player_index_out_of_range():
    g = gw.build_board(gw.Square(4, 4))
    feature = Feature(
        elements=(PatternElement((), (Constraint(ElementKind.PLAYER, 3),)),),
        action=(),
    )
    with pytest.raises(InstancerError, match="out of range"):
        instantiate(FeatureSet((feature,)), g, 1)


@pytest.mark.parametrize("mover", [0, 3])
def test_mover_out_of_range(mover, bridge_fs):
    with pytest.raises(InstancerError, match=f"mover {mover} out of range 1..2"):
        instantiate(bridge_fs, gw.hex_rules(5).graph, mover)


def test_absolute_feature_symmetry_expansion():
    g = gw.build_board(gw.Square(5, 5))
    corner = gw.square_cell(g, 0, 0)
    feature = Feature(
        elements=(PatternElement((), (EMPTY,)), PatternElement(make_walk([0]), (FRIEND,))),
        action=(),
        anchor=corner,
        reflections=True,
    )
    idx = instantiate(FeatureSet((feature,)), g, 1)
    anchors = {i.anchor for i in idx.instances}
    assert anchors == {gw.square_cell(g, x, y) for x in (0, 4) for y in (0, 4)}
    # Rotations only (no reflections) still visits every corner.
    feature_rot = Feature(
        elements=feature.elements, action=feature.action, anchor=corner, reflections=False
    )
    idx_rot = instantiate(FeatureSet((feature_rot,)), g, 1)
    assert {i.anchor for i in idx_rot.instances} == anchors


def test_absolute_explicit_rotations_stay_at_anchor():
    g = gw.build_board(gw.Square(5, 5))
    centre = gw.square_cell(g, 2, 2)
    feature = Feature(
        elements=(PatternElement(make_walk([0]), (FRIEND,)),),
        action=(),
        anchor=centre,
        rotations=make_walk([0, F(1, 2)]),
    )
    idx = instantiate(FeatureSet((feature,)), g, 1)
    assert {i.anchor for i in idx.instances} == {centre}
    assert len(idx.instances) == 2


def test_symmetry_maps_are_built_on_first_use(line4_fs):
    rules = gw.game_from_name("line4-5x5")
    compile_feature_set(line4_fs, rules)  # relative patterns only
    assert "symmetries" not in rules.graph.__dict__
    corner = Feature(elements=(PatternElement((), (EMPTY,)),), action=(), anchor=0)
    instantiate(FeatureSet((corner,)), rules.graph, 1)
    assert "symmetries" in rules.graph.__dict__


@pytest.mark.parametrize("kind", [
    gw.Square(1, 1), gw.Square(4, 6), gw.Square(5, 5), gw.HexRhombus(1), gw.HexRhombus(5),
    gw.Triangular(1), gw.Triangular(4), gw.Semi3464(1),
])
@pytest.mark.parametrize("reflections", [False, True])
def test_absolute_placements_are_distinct(kind, reflections):
    """Each symmetry gives an absolute feature one placement, and no two
    agree on it, so the expansion needs no de-duplication."""
    graph = gw.build_board(kind)
    kept = [s for s in graph.symmetries if reflections or not s.mirror]
    for anchor in range(graph.cell_count):
        feature = Feature((PatternElement((), (EMPTY,)),), (), anchor=anchor, reflections=reflections)
        placements = instancer._absolute_placements(feature, graph)
        assert len(set(placements)) == len(placements) == len(kept)


def instance_counts(idx):
    """Each instance as its required cells with their values, its forbidden
    cells with theirs, its action cell and its last-move cell, counted
    ``weight`` times (the weights are whole)."""
    full = (1 << CHUNK_BITS) - 1
    counts = {}
    for inst in idx.instances:
        required = frozenset(
            (cell, inst.target >> cell * CHUNK_BITS & full)
            for cell in range(idx.graph.cell_count) if inst.mask >> cell * CHUNK_BITS & full
        )
        key = (required, frozenset(inst.negative_tests), inst.action_to, inst.last_move_cell)
        counts[key] = counts.get(key, 0) + idx.weights[inst.number]
    return counts


@pytest.mark.parametrize("kind", [gw.Square(5, 5), gw.HexRhombus(5), gw.Triangular(5), gw.Semi3464(2)])
def test_symmetry_expansion_is_the_images_of_the_identity_placement(kind):
    """At every anchor, an absolute feature with ``rot=all refl=yes``
    compiles to the images, under every symmetry's cell map, of what its
    identity placement (``rot={0} refl=no``) compiles to: a rule that needs
    neither the slot maps nor the placements built from them."""
    graph = gw.build_board(kind)
    q = F(1, 4)
    compiled = 0
    for anchor in range(graph.cell_count):
        feature = Feature(
            elements=(
                PatternElement((), (EMPTY,)),
                PatternElement(make_walk([0]), (FRIEND,)),
                PatternElement(make_walk([0, q]), (negate(ENEMY),)),
                PatternElement(make_walk([q, 0]), (OFF,)),
            ),
            action=make_walk([q]),
            anchor=anchor,
            reflections=True,
            last_move=make_walk([0, 0]),
        )
        identity = dataclasses.replace(feature, rotations=make_walk([0]), reflections=False)
        placed = instance_counts(instantiate(FeatureSet((identity,)), graph, 1))
        want = {}
        for sym in graph.symmetries:
            for (required, forbidden, action, last), n in placed.items():
                key = (
                    frozenset((sym.cell_map[cell], value) for cell, value in required),
                    frozenset((sym.cell_map[cell], value) for cell, value in forbidden),
                    sym.cell_map[action],
                    sym.cell_map[last],
                )
                want[key] = want.get(key, 0) + n
        got = instance_counts(instantiate(FeatureSet((feature,)), graph, 1))
        assert got == want
        compiled += sum(got.values())
    assert compiled  # the feature fits somewhere on every board


def test_instantiation_is_deterministic(line4_fs, line4_7_rules):
    g = line4_7_rules.graph
    a = instantiate(line4_fs, g, 1)
    b = instantiate(line4_fs, g, 1)
    assert len(a.instances) == len(b.instances)
    for x, y in zip(a.instances, b.instances):
        assert x.anchor == y.anchor
        assert x.action_to == y.action_to
        assert a.weights[x.number] == b.weights[y.number]
        assert x.mask == y.mask
        assert x.target == y.target
        assert x.negative_tests == y.negative_tests


def random_values(rng, cells, values_range):
    return [rng.next_u64() % values_range for _ in range(cells)]


# Boards of 1, 2 and 3 words (hex7: 98 bits, hex9: 162, line4-8x8: 128).
BOARDS = {"hex": ("hex5", "hex7", "hex9"), "line4": ("line4-5x5", "line4-8x8")}


@pytest.mark.parametrize("fixture_name,game", [
    ("bridge_fs", "hex"), ("group3_fs", "hex"), ("thin_group_fs", "hex"), ("line4_fs", "line4"),
])
def test_compiled_matching_agrees_with_interpreter(fixture_name, game, request):
    fs = request.getfixturevalue(fixture_name)
    rng = SplitMix64(7)
    for name in BOARDS[game]:
        rules = gw.game_from_name(name)
        shape = (gw.CHUNK_BITS, rules.graph.cell_count)
        outcomes = set()
        for mover in (1, 2):
            idx = instantiate(fs, rules.graph, mover)
            assert idx.instances
            # Each negative probe sits at its cell's chunk ...
            full = (1 << gw.CHUNK_BITS) - 1
            for inst in idx.instances:
                assert inst.negative_probes == tuple(
                    (full << cell * gw.CHUNK_BITS, v << cell * gw.CHUNK_BITS)
                    for cell, v in inst.negative_tests
                )
            # ... and on boards of several words some instance's mask spans
            # two words of the 64-bit view.
            if word_count(*shape) > 1:
                assert any(sum(1 for m in words(i.mask, *shape) if m) > 1 for i in idx.instances)
            for _ in range(60):
                values = random_values(rng, rules.graph.cell_count, 3)
                board = pack_values(values, gw.CHUNK_BITS)
                for inst in idx.instances:
                    got = match_instance(inst, board)
                    assert got == interpret_instance(inst, values, mover), name
                    outcomes.add(got)
        assert outcomes == {True, False}, name


# --- the compiler against its memo-free oracle ------------------------------


def assert_same_index(got, want):
    """The engine's index ``got`` has the oracle's instances in the same
    order, field by field, each with the oracle's weight bit for bit, and
    the same proactive/reactive split."""
    assert (got.graph, got.mover) == (want.graph, want.mover)
    assert len(got.instances) == len(want.instances) == len(got.weights)
    for a, b in zip(got.instances, want.instances):
        for f in dataclasses.fields(FeatureInstance):
            assert getattr(a, f.name) == getattr(b, f.name), f.name
        assert float(got.weights[a.number]).hex() == float(b.weight).hex()

    def positions(index):
        at = {id(inst): i for i, inst in enumerate(index.instances)}
        return (
            [at[id(inst)] for inst in index.proactive],
            [(cell, [at[id(inst)] for inst in bucket])
             for cell, bucket in index.reactive_by_last_move.items()],
        )

    assert positions(got) == positions(want)


def assert_compiles_like_oracle(fs, graph, movers=(1, 2)):
    """A cold compile and then a memo hit each equal the oracle, or raise
    its error."""
    for mover in movers:
        instancer.clear_memo()
        try:
            want = instantiate_oracle(fs, graph, mover)
        except InstancerError as exc:
            for _ in range(2):
                with pytest.raises(InstancerError, match=re.escape(str(exc))):
                    instantiate(fs, graph, mover)
            continue
        for _ in range(2):
            assert_same_index(instantiate(fs, graph, mover), want)


@pytest.mark.parametrize("board", ["hex5", "hex7", "hex9", "line4-5x5", "line4-7x7"])
def test_fixtures_compile_like_oracle(board, bridge_fs, group3_fs, thin_group_fs, line4_fs):
    graph = gw.game_from_name(board).graph
    for fs in (bridge_fs, group3_fs, thin_group_fs, line4_fs):
        assert_compiles_like_oracle(fs, graph)


# One mover each keeps this under a few seconds; the fixtures cover both.
@pytest.mark.parametrize("game,mover", [("hex7", 1), ("line4-7x7", 2)])
def test_generated_candidates_compile_like_oracle(game, mover):
    rules = gw.game_from_name(game)
    cfg = GenConfig(max_elements=3, max_walk_length=1, include_reactive=True)
    fs = FeatureSet(tuple(generate_candidates(rules, cfg)), "candidates")
    assert any(f.reactive for f in fs)
    assert_compiles_like_oracle(fs, rules.graph, movers=(mover,))


class NoWinRules(gw.GameRules):
    """Placement on any board, where nothing ever wins."""

    name = "nowin"

    def _placed(self, bits, groups, mover, cell, *_):
        return None, groups


@pytest.mark.parametrize("kind,count", [(gw.Triangular(4), 13), (gw.Semi3464(1), 33)])
def test_candidates_for_any_rules_on_any_tiling_compile_like_oracle(kind, count):
    """The generator takes its turns from the board, so it serves rules it
    has never heard of, on boards with odd-sided and mixed cells."""
    rules = NoWinRules(gw.build_board(kind))
    fs = FeatureSet(tuple(generate_candidates(rules, GenConfig(2, 1))), "candidates")
    assert len(fs.features) == count
    assert_compiles_like_oracle(fs, rules.graph)


def placement_kinds(graph):
    """A reflected, a symmetry-expanded absolute, an explicitly rotated
    absolute and an off-board-edged feature, with quarter turns that branch
    in odd-sided cells, negative tests, a reactive walk and weights whose
    sums depend on their order."""
    q = F(1, 4)
    anchor = graph.cell_count // 3
    return (
        Feature(
            elements=(
                PatternElement((), (EMPTY,)),
                PatternElement(make_walk([0]), (FRIEND,)),
                PatternElement(make_walk([0, q]), (negate(FRIEND),)),
            ),
            action=(),
            weight=0.1,
            reflections=True,
        ),
        Feature(
            elements=(PatternElement((), (EMPTY,)), PatternElement(make_walk([0, 0]), (ENEMY,)),
                      PatternElement(make_walk([q]), (negate(OFF),))),
            action=(),
            weight=0.2,
            anchor=anchor,
            reflections=True,
        ),
        Feature(
            elements=(PatternElement(make_walk([0]), (FRIEND,)),
                      PatternElement(make_walk([0, -q]), (EMPTY,))),
            action=make_walk([q]),
            weight=0.3,
            anchor=anchor,
            rotations=make_walk([0, q, F(1, 2)]),
        ),
        Feature(
            elements=(PatternElement((), (FRIEND,)), PatternElement(make_walk([0, q]), (EMPTY,)),
                      PatternElement(make_walk([q, q]), (OFF,))),
            action=make_walk([0, q]),
            weight=0.7,
        ),
        Feature(
            elements=(PatternElement((), (EMPTY,)), PatternElement(make_walk([q, 0]), (ENEMY,))),
            action=(),
            weight=0.1,
            reflections=True,
            last_move=make_walk([q, 0]),
        ),
    )


@pytest.mark.parametrize("board", ["semi3", "square9", "hex5"])
def test_placement_kinds_compile_like_oracle(board, request):
    graph = gw.game_from_name(board).graph if board == "hex5" else request.getfixturevalue(board)
    features = placement_kinds(graph)
    if board == "semi3":
        assert any(len(resolve_walk_branches(graph, a, 0, make_walk([0, F(1, 4)]))) == 2
                   for a in range(graph.cell_count))
    for feature in features:
        assert_compiles_like_oracle(FeatureSet((feature,)), graph)
    assert_compiles_like_oracle(FeatureSet(features), graph)
    # Walks and constraints shared by value between features, the mirror of
    # one feature's walk being another's plain walk.
    twins = tuple(dataclasses.replace(f, weight=f.weight + 0.2) for f in features)
    assert_compiles_like_oracle(FeatureSet(features + twins), graph)


# One mover each, the other one than above, so both movers are covered.
@pytest.mark.parametrize("game,mover", [("hex7", 2), ("line4-7x7", 1)])
def test_weighted_candidates_compile_like_oracle(game, mover):
    # Distinct non-dyadic weights: merged sums equal the oracle's only when
    # they are added in the same order.
    rules = gw.game_from_name(game)
    cfg = GenConfig(max_elements=3, max_walk_length=1, include_reactive=True)
    fs = FeatureSet(tuple(dataclasses.replace(f, weight=0.1 * (i % 7 + 1))
                          for i, f in enumerate(generate_candidates(rules, cfg))), "weighted")
    assert_compiles_like_oracle(fs, rules.graph, movers=(mover,))


@pytest.mark.parametrize("board", ["hex5", "square9"])
def test_swapped_element_order_merges_into_one_instance(board, request):
    graph = gw.game_from_name(board).graph if board == "hex5" else request.getfixturevalue(board)
    here, ahead = PatternElement((), (EMPTY,)), PatternElement(make_walk([0]), (FRIEND,))
    pattern = Feature(elements=(here, ahead), action=(), weight=0.1)
    # The same pattern with its elements swapped: another constraint
    # signature, and every placement compiles to the same instance ...
    swapped = Feature(elements=(ahead, here), action=(), weight=0.2)
    # ... and one with the same walks, so the same placements and sites,
    # but another constraint: never the same instance.
    enemy = Feature(elements=(here, PatternElement(make_walk([0]), (ENEMY,))),
                    action=(), weight=0.4)
    fs = FeatureSet((pattern, swapped, enemy, pattern))
    assert_compiles_like_oracle(fs, graph)
    alone = instantiate(FeatureSet((pattern,)), graph, 1).instances
    idx = instantiate(fs, graph, 1)
    assert len(idx.instances) == 2 * len(alone)
    assert [i.features for i in idx.instances] == [(0, 1, 3)] * len(alone) + [(2,)] * len(alone)
    assert {idx.weights[i.number] for i in idx.instances} == {0.1 + 0.2 + 0.1, 0.4}


@pytest.mark.parametrize("board", ["hex5", "semi3"])
def test_each_instance_names_every_feature_it_sums(board, request):
    """An instance's ``features`` holds, in set order, the position of each
    feature that compiles to it alone, once per placement that produced
    it: checked on a set with duplicate features, rotations that merge and
    a pattern with its elements swapped."""
    graph = gw.game_from_name(board).graph if board == "hex5" else request.getfixturevalue(board)
    pair, single, swapped, mirrored = (parse_feature(text) for text in (
        "rel proactive el={}:. el={0}:o act_to={}",
        "rel proactive el={}:. act_to={}",
        "rel proactive el={0}:o el={}:. act_to={}",
        "rel proactive refl=yes el={}:. el={0,1/4}:!x act_to={}",
    ))
    fs = FeatureSet((pair, single, swapped, pair, mirrored, single))
    want: dict[tuple, list[int]] = {}
    for position, feature in enumerate(fs):
        # With weight 1, an instance's weight counts the placements that gave it.
        alone = instantiate(FeatureSet((dataclasses.replace(feature, weight=1.0),)), graph, 1)
        for inst in alone.instances:
            key = (inst.mask, inst.target, inst.negative_tests, inst.action_to, inst.last_move_cell)
            want.setdefault(key, []).extend([position] * int(alone.weights[inst.number]))
    got = {
        (inst.mask, inst.target, inst.negative_tests, inst.action_to, inst.last_move_cell): inst.features
        for inst in instantiate(fs, graph, 1).instances
    }
    assert got == {key: tuple(positions) for key, positions in want.items()}
    assert (0, 2, 3) in got.values()  # ``pair``, its swap and its copy
    assert (1,) * 6 + (5,) * 6 in got.values()  # ``single`` and its copy, at each turn of a hexagon


@pytest.mark.parametrize("game", ["hex7", "line4-7x7"])
def test_element_forms_compile_like_oracle(game):
    """Each form an element's constraints take: a positive with negatives
    at one site, negatives only, off the board and on it."""
    graph = gw.game_from_name(game).graph
    forms = ("o,!x", ".,!o,!x", "!o,!x", "-", "!-")
    features = tuple(parse_feature(f"rel proactive el={{}}:. el={{0,0}}:{form} act_to={{}}") for form in forms)
    for feature in features:
        assert instantiate(FeatureSet((feature,)), graph, 1).instances
        assert_compiles_like_oracle(FeatureSet((feature,)), graph)
    assert_compiles_like_oracle(FeatureSet(features), graph)


def with_copied_walks(fs, rng):
    """``fs`` reweighted as new Feature objects whose walks equal the
    originals but are new objects (but the empty walk, which is one
    object)."""

    def copy(walk):
        return None if walk is None else make_walk(walk)

    copies = FeatureSet(tuple(
        dataclasses.replace(
            f,
            elements=tuple(dataclasses.replace(el, walk=copy(el.walk)) for el in f.elements),
            action=copy(f.action),
            last_move=copy(f.last_move),
            weight=random_weight(rng),
        )
        for f in fs
    ), fs.name)
    for f, c in zip(fs, copies):
        for a, b in zip((*(el.walk for el in f.elements), f.action, f.last_move),
                        (*(el.walk for el in c.elements), c.action, c.last_move)):
            assert a == b and (a is not b or not a)
    return copies


@pytest.mark.parametrize("name", ["bridge_fs", "group3_fs", "thin_group_fs", "line4_fs", "candidates"])
def test_walk_calls_match_oracle(name, request, monkeypatch):
    """The benchmark freezes the number of walk resolutions: ``instantiate``
    makes exactly the oracle's calls, one per walk of each placement, in the
    oracle's order, memo hits included, on a cold compile and on a hit of
    the compile memo alike.  A hit, also on a reweighted set of new walk
    objects, resolves no walk anew."""
    if name == "candidates":
        rules = gw.hex_rules(7)
        cfg = GenConfig(max_elements=3, max_walk_length=1)  # hex7-tune-candidates
        sets = [(FeatureSet(tuple(generate_candidates(rules, cfg))), rules.graph)]
    else:
        fs = request.getfixturevalue(name)
        sets = [(fs, gw.game_from_name(board).graph) for board in ("hex7", "line4-7x7")]

    def recorder(module, calls):
        resolve = module.resolve_walk_branches

        def recording(graph, anchor, start_dir, walk, memo=None):
            calls.append((anchor, start_dir, tuple(walk)))
            return resolve(graph, anchor, start_dir, walk, memo)

        monkeypatch.setattr(module, "resolve_walk_branches", recording)

    exits = []
    resolve_exits = walks.resolve_walk_exits

    def counting_exits(*args):
        exits.append(args)
        return resolve_exits(*args)

    instancer.clear_memo()
    for fs, graph in sets:
        copies = with_copied_walks(fs, SplitMix64(len(fs)))
        for mover in (1, 2):
            cold, want = [], []
            recorder(oracles, want)
            instantiate_oracle(fs, graph, mover)
            recorder(instancer, cold)
            instantiate(fs, graph, mover)
            monkeypatch.undo()
            assert cold == want
            if name == "candidates":
                assert len(want) == 303_996
            # Hits, on the set itself and on a reweighted copy of it whose
            # walks are other objects, only look walks up in the memo.
            for hit_fs in (fs, copies):
                hit = []
                recorder(instancer, hit)
                monkeypatch.setattr(instancer, "_compile", no_compile)
                monkeypatch.setattr(walks, "resolve_walk_exits", counting_exits)
                instantiate(hit_fs, graph, mover)
                monkeypatch.undo()
                assert hit == want
                assert not exits


@pytest.mark.parametrize("name", ["bridge_fs", "candidates"])
def test_second_mover_compile_borrows_the_walk_tables(name, request, monkeypatch):
    """The other mover's cold compile borrows the first's walk plan with
    its tables: it makes the oracle's walk calls and resolves no walk
    anew."""
    if name == "candidates":
        rules = gw.hex_rules(7)
        cfg = GenConfig(max_elements=3, max_walk_length=1)  # hex7-tune-candidates
        fs = FeatureSet(tuple(generate_candidates(rules, cfg)))
    else:
        fs = request.getfixturevalue(name)
    graph = gw.hex_rules(7).graph
    want, got, exits = [], [], []

    def recording(calls, resolve):
        def record(graph, anchor, start_dir, walk, *memo):
            calls.append((anchor, start_dir, tuple(walk)))
            return resolve(graph, anchor, start_dir, walk, *memo)
        return record

    monkeypatch.setattr(oracles, "resolve_walk_branches", recording(want, resolve_walk_branches))
    instantiate_oracle(fs, graph, 2)
    instancer.clear_memo()
    instantiate(fs, graph, 1)
    monkeypatch.setattr(instancer, "resolve_walk_branches", recording(got, resolve_walk_branches))
    monkeypatch.setattr(walks, "resolve_walk_exits", recording(exits, walks.resolve_walk_exits))
    instantiate(fs, graph, 2)
    monkeypatch.undo()
    assert len(instancer._memo) == 2
    assert got == want
    assert not exits


# --- the compile memo -------------------------------------------------------


def no_compile(*args):
    raise AssertionError("compiled in full where the memo should hit")


# Signed zeros, subnormals, the smallest normal and non-dyadic decimals.
SPECIAL_WEIGHTS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, -0.3)


def random_weight(rng):
    """A finite weight of either sign: now and then a special one, else
    non-dyadic, half of them near 1 (their sums depend on the order of
    addition) and half from 1e-300 (tiny) to 1e301 (large)."""
    if rng.next_u64() % 8 == 0:
        return SPECIAL_WEIGHTS[rng.next_u64() % len(SPECIAL_WEIGHTS)]
    weight = (rng.next_u64() % 10_000 + 1) / 997
    if rng.next_u64() & 1:
        weight *= 10.0 ** (rng.next_u64() % 601 - 300)
    return -weight if rng.next_u64() & 1 else weight


def reweighted(fs, rng):
    """``fs`` as new Feature objects of the same structure with random
    weights."""
    return FeatureSet(tuple(dataclasses.replace(f, weight=random_weight(rng)) for f in fs), fs.name)


def assert_hits_equal_oracle(fs, graph, mover, rng, monkeypatch, sets=2):
    """After a cold compile, ``sets`` random reweightings of ``fs`` are memo
    hits that equal the oracle on the reweighted set."""
    instancer.clear_memo()
    try:
        instantiate(fs, graph, mover)
    except InstancerError:
        return
    monkeypatch.setattr(instancer, "_compile", no_compile)
    for _ in range(sets):
        new = reweighted(fs, rng)
        got = instantiate(new, graph, mover)
        assert_same_index(got, instantiate_oracle(new, graph, mover))
        # The hit's instances share the memo's one tuple of each recipe.
        assert len({id(i.features) for i in got.instances}) == len({i.features for i in got.instances})
    monkeypatch.undo()


@pytest.mark.parametrize("board", ["hex5", "hex7", "line4-7x7"])
@pytest.mark.parametrize("mover", [1, 2])
def test_memo_hit_after_reweighting_equals_oracle(board, mover, monkeypatch,
                                                 bridge_fs, group3_fs, thin_group_fs, line4_fs):
    graph = gw.game_from_name(board).graph
    rng = SplitMix64(31 * mover + len(board))
    for fs in (bridge_fs, group3_fs, thin_group_fs, line4_fs):
        assert_hits_equal_oracle(fs, graph, mover, rng, monkeypatch)


@pytest.mark.parametrize("mover", [1, 2])
def test_memo_hit_on_reweighted_candidates_equals_oracle(mover, monkeypatch):
    rules = gw.hex_rules(7)
    cfg = GenConfig(max_elements=3, max_walk_length=1)  # hex7-tune-candidates
    fs = FeatureSet(tuple(generate_candidates(rules, cfg)), "candidates")
    assert len(fs) == 265
    assert_hits_equal_oracle(fs, rules.graph, mover, SplitMix64(mover), monkeypatch, sets=1)


# A cold compile of both movers' hex7 candidates peaks at 7.1 MB under
# tracemalloc on Python 3.11-3.13 and 7.5 MB on 3.10.  A compile that
# merges each pair's elements through a dict of cell values and
# de-duplicates on its sorted items peaks at 10.8 MB (11.2 MB on 3.10).
COLD_COMPILE_PEAK_MB = 9.5


def test_cold_compile_of_the_candidates_peaks_below_its_bound():
    rules = gw.hex_rules(7)
    cfg = GenConfig(max_elements=3, max_walk_length=1)  # hex7-tune-candidates
    fs = FeatureSet(tuple(generate_candidates(rules, cfg)), "candidates")
    assert len(fs) == 265
    instancer.clear_memo()
    gc.collect()
    tracemalloc.start()
    try:
        indexes = compile_feature_set(fs, rules)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(indexes[p].instances) for p in (1, 2)] == [5296, 5296]
    assert peak / 1e6 < COLD_COMPILE_PEAK_MB


@pytest.mark.parametrize("fixture_name,board", [("bridge_fs", "hex7"), ("line4_fs", "line4-7x7")])
def test_memo_hits_share_no_mutable_object(fixture_name, board, request, monkeypatch):
    """Every hit hands back the first compile's instances, which refuse
    assignment to any field; spoiling what an index owns, its weights and
    its dict of reactive buckets, leaves the next hit equal to the oracle."""
    fs = request.getfixturevalue(fixture_name)
    graph = gw.game_from_name(board).graph
    want = instantiate_oracle(fs, graph, 1)
    instancer.clear_memo()
    indexes = [instantiate(fs, graph, 1)]
    shared = indexes[0].instances
    for inst in shared:
        for f in dataclasses.fields(FeatureInstance):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(inst, f.name, -1)
    monkeypatch.setattr(instancer, "_compile", no_compile)
    for _ in range(2):
        # Spoil the index before: its weights, its buckets and its dict.
        spoiled = indexes[-1]
        spoiled.weights[:] = [w + 1.0 for w in reversed(spoiled.weights)]
        buckets = spoiled.reactive_by_last_move
        for cell in list(buckets)[::2]:
            del buckets[cell]
        for cell, bucket in buckets.items():
            buckets[cell] = bucket[::-1] + bucket
        buckets[-1] = spoiled.instances
        spoiled.instances, spoiled.proactive = spoiled.proactive, spoiled.instances
        indexes.append(instantiate(fs, graph, 1))
        assert_same_index(indexes[-1], want)
        assert indexes[-1].instances is shared
    assert len({id(inst) for idx in indexes for inst in idx.instances}) == len(want.instances)
    assert len({id(idx.weights) for idx in indexes}) == len({id(idx.reactive_by_last_move) for idx in indexes}) == 3


@pytest.mark.parametrize("fixture_name,board", [("bridge_fs", "hex7"), ("line4_fs", "line4-7x7")])
def test_reweighted_twins_share_instances_and_score_like_oracle(fixture_name, board, request):
    """A set and its reweighted twin, compiled in one process, share their
    instances, and at every ply of a seeded game each one's scores equal
    the scoring oracle's over the oracle's compile of that set."""
    fs = request.getfixturevalue(fixture_name)
    rules = gw.game_from_name(board)
    sets = (fs, reweighted(fs, SplitMix64(len(board))))
    instancer.clear_memo()
    indexes = [compile_feature_set(s, rules) for s in sets]
    oracle = [{p: instantiate_oracle(s, rules.graph, p) for p in (1, 2)} for s in sets]
    for p in (1, 2):
        first, twin = indexes[0][p], indexes[1][p]
        assert first.instances is twin.instances
        assert first.weights != twin.weights
    rng = SplitMix64(11)
    state = rules.initial_state()
    plies = scored = 0
    while rules.status(state) is None:
        legal = rules.legal_moves(state)
        scores = []
        for idx, want in zip(indexes, oracle):
            scores.append(biased_scores(state, legal, idx[state.mover]))
            assert scores[-1] == biased_scores_oracle(state, legal, want[state.mover])
        scored += scores[0] != scores[1]
        state = rules.apply(state, legal[rng.next_u64() % len(legal)])
        plies += 1
    assert plies > 10 and scored  # the twins' weights told apart somewhere


def test_a_structure_that_fails_to_compile_fails_every_time():
    g = gw.build_board(gw.Square(4, 4))
    player3 = Feature(elements=(PatternElement((), (Constraint(ElementKind.PLAYER, 3),)),),
                      action=())
    instancer.clear_memo()
    for weight in (1.0, 1.0, -2.0):
        with pytest.raises(InstancerError, match="out of range"):
            instantiate(FeatureSet((dataclasses.replace(player3, weight=weight),)), g, 1)
    assert not instancer._memo


def test_memo_keeps_its_bound_and_drops_the_oldest(bridge_fs, line4_fs, monkeypatch):
    compiles = []
    compile_ = instancer._compile

    def counting(*args):
        compiles.append(args[1:4])
        return compile_(*args)

    monkeypatch.setattr(instancer, "_compile", counting)
    instancer.clear_memo()
    keys = [(fs, board, mover)
            for fs, board in ((bridge_fs, "hex5"), (line4_fs, "line4-5x5"), (bridge_fs, "hex7"))
            for mover in (1, 2)]
    assert len(keys) > instancer.MEMO_ENTRIES
    for fs, board, mover in keys:
        instantiate(fs, gw.game_from_name(board).graph, mover)
        assert len(instancer._memo) <= instancer.MEMO_ENTRIES
    assert len(compiles) == len(keys)
    # The newest structures hit, each on a graph built anew (the graph
    # counts by value); the oldest was dropped and compiles again.
    for fs, board, mover in keys[-instancer.MEMO_ENTRIES:]:
        instantiate(fs, gw.game_from_name(board).graph, mover)
    assert len(compiles) == len(keys)
    fs, board, mover = keys[0]
    instantiate(fs, gw.game_from_name(board).graph, mover)
    assert len(compiles) == len(keys) + 1
    assert len(instancer._memo) == instancer.MEMO_ENTRIES


def test_memo_key_holds_every_feature_field_but_the_weight():
    base = Feature(elements=(PatternElement((), (EMPTY,)),), action=(), weight=0.5)
    for f in dataclasses.fields(Feature):
        # A value equal to no other: a field outside the key would let two
        # different structures share one memo entry.
        variant = dataclasses.replace(base)
        object.__setattr__(variant, f.name, object())
        assert (instancer._structure(variant) == instancer._structure(base)) == (f.name == "weight"), f.name
