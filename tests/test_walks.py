import itertools
from fractions import Fraction as F

import pytest

import geoweave as gw
from geoweave.board import OFF_BOARD
from geoweave.walks import (
    WalkError,
    format_walk,
    make_walk,
    mirror_walk,
    normalize_turn,
    parse_walk,
    resolve_walk,
    resolve_walk_branches,
    round_turn,
)
from oracles import round_half_away, square_walk_oracle


def test_round_turn_triangle_example():
    # A quarter turn in a triangle is the same as a third turn.
    assert round_turn(F(1, 4), 3) == 1


def test_round_turn_basics():
    assert round_turn(F(0), 5) == 0
    assert round_turn(F(1, 2), 6) == 3
    assert round_turn(F(1, 2), 3) == 2  # .5 rounds away from zero
    assert round_turn(F(-1, 2), 3) == -2
    with pytest.raises(WalkError):
        round_turn(F(1, 4), 2)


def test_round_turn_matches_half_away_reference():
    for a in (3, 4, 6):
        for den in range(1, 13):
            for num in range(-den, den + 1):
                f = F(num, den)
                assert round_turn(f, a) == round_half_away(f * a), (f, a)


def test_normalize_turn_keeps_sign():
    assert normalize_turn(F(5, 4)) == F(1, 4)
    assert normalize_turn(F(-5, 4)) == F(-1, 4)
    assert normalize_turn(F(-1, 2)) == F(-1, 2)
    assert normalize_turn(F(1)) == 0
    assert normalize_turn(F(-2, 4)) == F(-1, 2)


def test_knight_walk_square(square9):
    # {0,0,1/4} facing north: two cells north, one east.
    anchor = gw.square_cell(square9, 4, 4)
    sites = resolve_walk(square9, anchor, 0, make_walk([0, 0, F(1, 4)]))
    assert sites == [gw.ResolvedSite(gw.square_cell(square9, 5, 6), 1)]


def test_empty_walk_resolves_to_anchor(square9):
    assert resolve_walk(square9, 17, 2, ()) == [gw.ResolvedSite(17, 1)]


def test_start_dir_out_of_range(square9):
    with pytest.raises(WalkError):
        resolve_walk(square9, 0, 4, ())


def test_square_walks_match_coordinate_oracle(square9):
    turns = [F(0), F(1, 4), F(1, 2), F(3, 4)]
    anchor = gw.square_cell(square9, 4, 4)
    for length in range(4):
        for walk in itertools.product(turns, repeat=length):
            got = resolve_walk(square9, anchor, 0, make_walk(walk))
            want = square_walk_oracle(9, 9, (4, 4), "N", walk)
            assert len(got) == 1
            assert got[0].location == want
            assert got[0].multiplicity == 1


def test_hex_walks_never_split():
    g = gw.build_board(gw.HexRhombus(7))
    anchor = gw.hex_cell(g, 3, 3)
    turns = [F(0), F(1, 6), F(-1, 6), F(1, 3), F(1, 2)]
    for length in range(1, 4):
        for walk in itertools.product(turns, repeat=length):
            branches = resolve_walk_branches(g, anchor, 0, make_walk(walk))
            assert len(branches) == 1


def test_off_board_mid_walk_locates_the_edge():
    g = gw.build_board(gw.Square(3, 3))
    top = gw.square_cell(g, 1, 2)
    # One step north leaves the board; further steps stay unconsumed.
    sites = resolve_walk(g, top, 0, make_walk([0, 0, 0]))
    assert sites == [gw.ResolvedSite(OFF_BOARD, 1)]


def test_semi3464_knight_ambiguity(semi3):
    """The quarter-turn knight walk from a square cell passes exactly one
    odd cell when it stays on the board, so those orientations yield two
    branches: two distinct cells when the triangle comes first, the same
    cell twice when it comes last."""
    knight = make_walk([0, 0, F(1, 4)])
    square_cells = [c for c in range(semi3.cell_count) if semi3.sides[c] == 4]
    assert square_cells
    tri_first = hex_first = 0
    for c in square_cells:
        for d in range(4):
            branches = resolve_walk_branches(semi3, c, d, knight)
            if OFF_BOARD in branches:
                continue
            assert len(branches) == 2
            first = semi3.neighbors[c][d]
            if semi3.sides[first] == 3:
                assert branches[0] != branches[1]
                tri_first += 1
            else:
                assert branches[0] == branches[1]
                hex_first += 1
    assert tri_first > 0 and hex_first > 0


def test_branch_count_bounded_by_odd_cells_entered(semi3):
    anchor = next(c for c in range(semi3.cell_count) if semi3.sides[c] == 6)
    for length in range(1, 4):
        for walk in itertools.product([F(0), F(1, 4), F(-1, 4)], repeat=length):
            branches = resolve_walk_branches(semi3, anchor, 0, make_walk(walk))
            assert len(branches) <= 2 ** length


@pytest.mark.parametrize("kind,turns", [
    (gw.Square(7, 7), [F(0), F(1, 4), F(-1, 4), F(1, 2)]),
    (gw.HexRhombus(5), [F(0), F(1, 6), F(-1, 6), F(1, 3), F(-1, 3)]),
])
def test_mirrored_walk_is_board_reflection(kind, turns):
    """Carrying a placement through any board reflection and negating every
    turn lands on the reflected terminal set."""
    g = gw.build_board(kind)
    mirrors = [s for s in g.symmetries if s.mirror]
    assert mirrors
    anchor = g.cell_count // 2
    for sym in mirrors:
        for start in range(g.sides[anchor]):
            for length in range(1, 3):
                for walk in itertools.product(turns, repeat=length):
                    walk = make_walk(walk)
                    plain = resolve_walk_branches(g, anchor, start, walk)
                    mirrored = resolve_walk_branches(
                        g, sym.cell_map[anchor], sym.dir_maps[anchor][start], mirror_walk(walk)
                    )
                    reflected = [OFF_BOARD if b == OFF_BOARD else sym.cell_map[b] for b in plain]
                    assert sorted(mirrored) == sorted(reflected)


@pytest.mark.parametrize("board", ["semi3", "square9", "hex5"])
def test_memoised_resolution_equals_direct(board, request):
    """With one memo table per walk, every anchor and start direction
    resolves plain and mirrored walks as without one, on the first lookup
    and on repeats, and both return a tuple."""
    g = gw.hex_rules(5).graph if board == "hex5" else request.getfixturevalue(board)
    turns = [F(0), F(1, 4), F(-1, 3)]
    walks = [make_walk(w) for n in range(4) for w in itertools.product(turns, repeat=n)]
    walks += [mirror_walk(w) for w in walks]
    memos: dict[int, dict] = {id(walk): {} for walk in walks}
    branched = False
    for _ in range(2):  # first lookups, then repeats
        for walk in walks:
            for anchor in range(g.cell_count):
                for d in range(g.sides[anchor]):
                    want = resolve_walk_branches(g, anchor, d, walk)
                    got = resolve_walk_branches(g, anchor, d, walk, memos[id(walk)])
                    assert type(got) is type(want) is tuple
                    assert got == want
                    branched |= len(got) > 1
    assert branched == (board == "semi3")
    # Each table holds one entry per anchor and start direction.
    for memo in memos.values():
        assert sorted(memo) == list(range(g.cell_count))
        assert sum(map(len, memo.values())) == sum(g.sides)


def test_memoised_resolution_still_rejects_bad_starts(semi3):
    """A start out of range is in no table, so it raises, and leaves the
    table as it was, even once every valid start is in it."""
    walk = make_walk([0, F(1, 4)])
    memo: dict = {}
    for anchor in range(semi3.cell_count):
        for d in range(semi3.sides[anchor]):
            resolve_walk_branches(semi3, anchor, d, walk, memo)
    filled = {anchor: dict(row) for anchor, row in memo.items()}
    assert sum(map(len, filled.values())) == sum(semi3.sides)
    for anchor, d in ((-1, 0), (semi3.cell_count, 0), (0, semi3.sides[0]), (0, -1)):
        for _ in range(2):
            with pytest.raises(WalkError, match="out of range"):
                resolve_walk_branches(semi3, anchor, d, walk, memo)
    assert memo == filled


def test_walk_text_round_trip():
    for text in ("{}", "{0}", "{0,0,1/4}", "{-1/6,1/2}", "{1/3,-1/3,0}"):
        assert format_walk(parse_walk(text)) == text
    assert format_walk(parse_walk("{ 0 , 5/4 }")) == "{0,1/4}"
    with pytest.raises(WalkError):
        parse_walk("0,1/4")
    with pytest.raises(WalkError):
        parse_walk("{1/0}")
    with pytest.raises(WalkError):
        parse_walk("{1,,2}")
