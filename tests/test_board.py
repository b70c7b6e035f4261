import hashlib
import json

import pytest

import geoweave as gw
from conftest import GOLDEN
from geoweave.board import OFF_BOARD, BoardError, back_index

# The boards whose graphs tests/golden/board_graphs.json pins.
PINNED_BOARDS = (
    [gw.Square(w, h) for w in range(1, 12) for h in range(1, 12)]
    + [gw.HexRhombus(n) for n in range(1, 25)]
    + [gw.Triangular(n) for n in range(1, 15)]
    + [gw.Semi3464(r) for r in range(1, 8)]
)


def off_count(graph, cell):
    return sum(1 for n in graph.neighbors[cell] if n == OFF_BOARD)


def test_square_3x3_basics():
    g = gw.build_board(gw.Square(3, 3))
    assert g.cell_count == 9
    corners = [gw.square_cell(g, x, y) for x in (0, 2) for y in (0, 2)]
    for c in corners:
        assert off_count(g, c) == 2
    assert off_count(g, gw.square_cell(g, 1, 1)) == 0
    # Slot order is N, E, S, W.
    center = gw.square_cell(g, 1, 1)
    assert g.neighbors[center] == (
        gw.square_cell(g, 1, 2),
        gw.square_cell(g, 2, 1),
        gw.square_cell(g, 1, 0),
        gw.square_cell(g, 0, 1),
    )


def test_hex7_interior_has_six_neighbors():
    g = gw.build_board(gw.HexRhombus(7))
    assert g.cell_count == 49
    for q in range(1, 6):
        for r in range(1, 6):
            c = gw.hex_cell(g, q, r)
            assert all(n != OFF_BOARD for n in g.neighbors[c])
            assert g.sides[c] == 6


def test_semi3464_side_counts(semi3):
    assert set(semi3.sides) == {3, 4, 6}


@pytest.mark.parametrize("kind", [gw.Square(0, 3), gw.HexRhombus(0), gw.Triangular(0), gw.Semi3464(0)])
def test_invalid_parameters_rejected(kind):
    with pytest.raises(BoardError):
        gw.build_board(kind)


def test_back_index_square_interior():
    g = gw.build_board(gw.Square(5, 5))
    c = gw.square_cell(g, 2, 2)
    assert back_index(g, c, 0) == 2  # north neighbour points back south
    assert back_index(g, c, 1) == 3
    assert back_index(g, c, 2) == 0
    assert back_index(g, c, 3) == 1


def test_back_index_hex_interior():
    g = gw.build_board(gw.HexRhombus(5))
    c = gw.hex_cell(g, 2, 2)
    for d in range(6):
        assert back_index(g, c, d) == (d + 3) % 6


def test_back_index_semi3464_square_to_triangle(semi3):
    seen = False
    for c in range(semi3.cell_count):
        if semi3.sides[c] != 4:
            continue
        for d, n in enumerate(semi3.neighbors[c]):
            if n != OFF_BOARD and semi3.sides[n] == 3:
                b = back_index(semi3, c, d)
                assert 0 <= b < 3
                assert semi3.neighbors[n][b] == c
                seen = True
    assert seen


def test_back_index_errors():
    g = gw.build_board(gw.Square(3, 3))
    corner = gw.square_cell(g, 0, 0)
    with pytest.raises(BoardError):
        back_index(g, corner, 2)  # south is off the board
    with pytest.raises(BoardError):
        back_index(g, corner, 7)


@pytest.mark.parametrize(
    "kind",
    [gw.Square(4, 6), gw.Square(5, 5), gw.HexRhombus(4), gw.Triangular(4), gw.Semi3464(2),
     gw.HexRhombus(7), gw.Triangular(6), gw.Semi3464(3)],
)
def test_back_index_involution_and_edge_parity(kind):
    g = gw.build_board(kind)
    slots = 0
    for c in range(g.cell_count):
        assert len(g.neighbors[c]) == g.sides[c]
        for d, n in enumerate(g.neighbors[c]):
            if n == OFF_BOARD:
                continue
            slots += 1
            b = back_index(g, c, d)
            assert g.neighbors[n][b] == c
            assert back_index(g, n, b) == d
    assert slots % 2 == 0


@pytest.mark.parametrize(
    "kind",
    [gw.Square(4, 6), gw.HexRhombus(5), gw.Triangular(5), gw.Semi3464(3), gw.Semi3464(4), gw.Semi3464(5)],
)
def test_slots_run_clockwise_from_north(kind):
    """Each ring's clockwise positions (degrees from due north) rise from
    slot 0 within [0, 360).  Edge angles are exact to 6 decimals, so an
    edge within that of north is the north edge and comes first."""
    g = gw.build_board(kind)
    for c, angles in enumerate(g.edge_angles):
        positions = [(90.0 - round(a, 6)) % 360.0 for a in angles]
        assert all(0.0 <= p < 360.0 for p in positions), c
        assert positions == sorted(set(positions)), c


def graph_digest(g) -> str:
    """sha256 of a graph's sides, neighbours, back indexes, centres,
    polygons and edge angles (rounded to 9 decimals)."""
    angles = [[round(a, 9) for a in ring] for ring in g.edge_angles]
    fields = [g.sides, g.neighbors, g.back_indexes, g.centers, g.polygons, angles]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def test_board_graphs_match_their_pins():
    """Every float of a centre or polygon is pinned bit for bit; so are the
    slot orders, which put each cell's north edge in slot 0."""
    pins = json.loads((GOLDEN / "board_graphs.json").read_text())
    assert {repr(kind): graph_digest(gw.build_board(kind)) for kind in PINNED_BOARDS} == pins


def test_square_directed_edge_count():
    w, h = 5, 7
    g = gw.build_board(gw.Square(w, h))
    directed = sum(1 for c in range(g.cell_count) for n in g.neighbors[c] if n != OFF_BOARD)
    assert directed == 2 * (w * (h - 1) + h * (w - 1))


def symmetries_digest(g) -> str:
    """sha256 of each symmetry's name, cell map, slot maps and mirror flag,
    in the order the board lists them."""
    fields = [[s.name, s.cell_map, s.dir_maps, s.mirror] for s in g.symmetries]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def test_board_symmetries_match_their_pins():
    """The square and hex pins were recorded before every board took the
    same isometry loop, which had to reproduce them bit for bit; the
    triangular and 3.4.6.4 pins were recorded once their maps passed
    ``test_symmetries_preserve_adjacency``."""
    pins = json.loads((GOLDEN / "board_symmetries.json").read_text())
    assert {repr(kind): symmetries_digest(gw.build_board(kind)) for kind in PINNED_BOARDS} == pins


@pytest.mark.parametrize("kind", [
    gw.Square(5, 5), gw.Square(4, 6), gw.HexRhombus(5),
    gw.Triangular(1), gw.Triangular(5), gw.Semi3464(1), gw.Semi3464(2),
])
def test_symmetries_preserve_adjacency(kind):
    g = gw.build_board(kind)
    assert g.symmetries[0].name == "rot0"  # the identity is always found
    for sym in g.symmetries:
        assert sorted(sym.cell_map) == list(range(g.cell_count))
        for c in range(g.cell_count):
            image = sym.cell_map[c]
            for d, n in enumerate(g.neighbors[c]):
                image_slot = sym.dir_maps[c][d]
                expected = OFF_BOARD if n == OFF_BOARD else sym.cell_map[n]
                assert g.neighbors[image][image_slot] == expected


def test_symmetry_orders():
    g = gw.build_board(gw.Square(5, 5))

    def compose(m1, m2):
        return tuple(m2[m1[c]] for c in range(len(m1)))

    identity = tuple(range(g.cell_count))
    for sym in g.symmetries:
        if sym.mirror:
            assert compose(sym.cell_map, sym.cell_map) == identity
        if sym.name == "rot90":
            twice = compose(sym.cell_map, sym.cell_map)
            assert compose(twice, twice) == identity


def test_rectangle_has_no_quarter_turn():
    g = gw.build_board(gw.Square(4, 6))
    names = {s.name for s in g.symmetries}
    assert "rot90" not in names
    assert "rot180" in names


@pytest.mark.parametrize("kind,count", [
    (gw.Square(1, 1), 8),
    (gw.Square(4, 6), 4),
    (gw.Square(5, 5), 8),
    (gw.HexRhombus(1), 12),
    (gw.HexRhombus(5), 4),
    (gw.Triangular(1), 6),
    (gw.Triangular(4), 6),
    (gw.Semi3464(1), 12),
    (gw.Semi3464(3), 12),
])
def test_symmetry_counts_and_distinct_maps(kind, count):
    symmetries = gw.build_board(kind).symmetries
    assert len(symmetries) == count
    assert len({(s.cell_map, s.dir_maps, s.mirror) for s in symmetries}) == count


@pytest.mark.parametrize("call,message", [
    (lambda: gw.build_board("penrose"), "unsupported tiling kind: 'penrose'"),
    (lambda: gw.square_cell(gw.build_board(gw.HexRhombus(3)), 0, 0), "square_cell requires a square board"),
    (lambda: gw.square_cell(gw.build_board(gw.Square(4, 3)), 4, 0), "(4, 0) outside 4x3 board"),
    (lambda: gw.square_cell(gw.build_board(gw.Square(4, 3)), 0, -1), "(0, -1) outside 4x3 board"),
    (lambda: gw.hex_cell(gw.build_board(gw.Square(3, 3)), 0, 0), "hex_cell requires a hex board"),
    (lambda: gw.hex_cell(gw.build_board(gw.HexRhombus(3)), 1, 3), "(1, 3) outside size-3 hex board"),
    (lambda: gw.hex_cell(gw.build_board(gw.HexRhombus(3)), -1, 0), "(-1, 0) outside size-3 hex board"),
])
def test_board_lookups_refuse_bad_input(call, message):
    with pytest.raises(BoardError) as err:
        call()
    assert str(err.value) == message


def test_geometry_is_present_for_rendering(semi3):
    for g in (gw.build_board(gw.Square(3, 3)), semi3):
        assert len(g.centers) == g.cell_count
        assert len(g.polygons) == g.cell_count
        for c in range(g.cell_count):
            assert len(g.polygons[c]) == g.sides[c]
            assert len(g.edge_angles[c]) == g.sides[c]
