import re

import pytest

import geoweave as gw
from geoweave.dsl import parse_feature
from geoweave.svg import render_feature
from conftest import GOLDEN


def test_bridge_matches_golden(bridge_fs, hex7_rules):
    svg = render_feature(bridge_fs.features[0], hex7_rules.graph)
    assert svg == (GOLDEN / "bridge_feature.svg").read_text()


def test_line4_fixture_matches_goldens(line4_fs, line4_7_rules):
    for i, feature in enumerate(line4_fs.features):
        svg = render_feature(feature, line4_7_rules.graph)
        assert svg == (GOLDEN / f"line4_feature_{i}.svg").read_text(), f"feature {i}"


def test_rendering_is_deterministic(bridge_fs, hex7_rules):
    a = render_feature(bridge_fs.features[0], hex7_rules.graph)
    b = render_feature(bridge_fs.features[0], hex7_rules.graph)
    assert a == b


def test_bridge_drawing_conventions(bridge_fs, hex7_rules):
    svg = render_feature(bridge_fs.features[0], hex7_rules.graph)
    circles = re.findall(r"<circle[^/]*/>", svg)
    whites = [c for c in circles if 'fill="#ffffff"' in c and 'r="12.00"' in c]
    blacks = [c for c in circles if 'fill="#000000"' in c]
    assert len(whites) == 2  # the bridged friendly stones
    assert len(blacks) == 1 and "stroke-dasharray" in blacks[0]  # dotted last move
    assert svg.count('stroke="#1a9641"') == 2  # two strokes of the green plus
    assert svg.count('fill="#fff3c4"') == 1  # highlighted anchor


def test_negative_weight_renders_red_minus(line4_fs, line4_7_rules):
    discourager = line4_fs.features[2]
    assert discourager.weight < 0
    svg = render_feature(discourager, line4_7_rules.graph)
    assert svg.count('stroke="#d7191c"') == 1  # single stroke: a minus
    assert '#1a9641' not in svg


def test_off_board_elements_render_ghosts():
    g = gw.build_board(gw.Square(5, 5))
    feature = parse_feature("rel proactive rot={0} el={}:. el={0}:- act_to={}")
    svg = render_feature(feature, g)
    assert "stroke-dasharray" in svg  # ghost marker for the off-board site
    assert svg == (GOLDEN / "ghost_square.svg").read_text()


@pytest.mark.parametrize("kind,text,golden,ghosts", [
    # The walk enters a triangle, whose odd side count splits it into two
    # branches that leave the board through different edges.
    (gw.Triangular(3), "rel proactive rot={0} el={}:. el={0,0}:- act_to={}", "ghost_triangular.svg", 2),
    (gw.Semi3464(1), "rel proactive el={}:. el={0,0,0}:- act_to={}", "ghost_semi3464.svg", 1),
])
def test_off_board_ghosts_on_odd_sided_tilings_match_goldens(kind, text, golden, ghosts):
    svg = render_feature(parse_feature(text), gw.build_board(kind))
    assert svg.count('stroke-dasharray="3,3"') == ghosts  # one ghost per off-board exit
    assert svg == (GOLDEN / golden).read_text()


def test_player_and_item_disks_are_labelled():
    g = gw.build_board(gw.Square(5, 5))
    feature = parse_feature("rel proactive rot={0} el={}:. el={0}:P2 el={1/4}:I1,!I0 act_to={}")
    svg = render_feature(feature, g)
    assert ">P2</text>" in svg
    assert ">I1</text>" in svg
    assert ">!I0</text>" in svg


def test_unplaceable_feature_raises():
    g = gw.build_board(gw.Square(4, 4))
    # Off-board in two opposite directions at once never resolves.
    feature = parse_feature("rel proactive rot={0} el={0}:- el={1/2}:- el={}:. act_to={}")
    with pytest.raises(ValueError, match="no valid instance"):
        render_feature(feature, g)
