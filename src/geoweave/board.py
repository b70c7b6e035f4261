"""Board graphs for the supported tilings.

A board is a graph of cells (the dual of the drawn tiling: one node per
cell, edges between cells that share a tile edge).  A tiling is its
cells' centres and polygons: each builder yields only those, in cell
order, and ``_assemble`` derives the rest in one place.  Every polygon
edge is a slot of its cell, and two cells are neighbours through the
edge midpoint they share.  A cell thus stores its full clockwise ring of
slots, including ``OFF_BOARD`` placeholders where no other cell shares
the edge, so walk resolution can locate board edges and corners.  A
board's symmetries are found the same way on every tiling, by probing
planar isometries against its cell centres and edge angles.

Conventions (these are fixed by construction and documented here because
relative patterns only need a *consistent* ordering, not any particular
one):

* The y axis points north; clockwise means decreasing polar angle.
* A slot's edge angle is the direction from the cell's centre to the
  edge's midpoint, in degrees rounded to 6 decimals.
* Slot 0 of each cell is the first edge at or clockwise-after due north.
* ``SQUARE`` cells therefore list neighbours as ``[N, E, S, W]``.
* ``HEX_RHOMBUS`` cells list the six directions clockwise starting from
  the north-east edge: ``[NE, E, SE, SW, W, NW]``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

OFF_BOARD = -1

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Square:
    width: int
    height: int


@dataclass(frozen=True)
class HexRhombus:
    size: int


@dataclass(frozen=True)
class Triangular:
    rows: int


@dataclass(frozen=True)
class Semi3464:
    radius: int


TilingKind = Square | HexRhombus | Triangular | Semi3464


@dataclass(frozen=True)
class Symmetry:
    """A board automorphism: cell permutation plus per-cell slot permutations.

    ``mirror`` is True for orientation-reversing maps (reflections), which
    is what decides whether walk turns must be negated when a pattern is
    carried through the map.
    """

    name: str
    cell_map: tuple[int, ...]
    dir_maps: tuple[tuple[int, ...], ...]
    mirror: bool


@dataclass(frozen=True)
class BoardGraph:
    kind: TilingKind
    cell_count: int
    sides: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...]
    back_indexes: tuple[tuple[int, ...], ...]
    # Render-only geometry; no gameplay semantics.
    centers: tuple[tuple[float, float], ...]
    polygons: tuple[tuple[tuple[float, float], ...], ...]
    edge_angles: tuple[tuple[float, ...], ...]

    @property
    def centroid(self) -> tuple[float, float]:
        """The mean of the cell centres."""
        return (
            sum(x for x, _ in self.centers) / self.cell_count,
            sum(y for _, y in self.centers) / self.cell_count,
        )

    @cached_property
    def symmetries(self) -> tuple[Symmetry, ...]:
        """The board's automorphisms, found on first use; the identity is
        always one.  Not a field, so equality and hashing skip it."""
        return _find_symmetries(self)


class BoardError(ValueError):
    pass


def back_index(graph: BoardGraph, cell: int, direction: int) -> int:
    """Slot in the neighbouring cell that points back at ``cell``."""
    if not 0 <= direction < graph.sides[cell]:
        raise BoardError(f"direction {direction} out of range for cell {cell}")
    other = graph.neighbors[cell][direction]
    if other == OFF_BOARD:
        raise BoardError(f"cell {cell} has no neighbor in direction {direction}")
    return graph.back_indexes[cell][direction]


# --- construction ----------------------------------------------------------

# A tiling builder yields each cell, in cell order, as (centre, polygon).
_Cell = tuple[tuple[float, float], tuple[tuple[float, float], ...]]


def _pos_key(x: float, y: float) -> tuple[int, int]:
    return (round(x * 1e5), round(y * 1e5))


def edge_midpoints(
    center: tuple[float, float], polygon: tuple[tuple[float, float], ...]
) -> list[tuple[float, tuple[float, float]]]:
    """A cell's edges in slot order, each as (edge angle, edge midpoint).

    The edge angle is the direction from the cell's centre to the edge's
    midpoint, in degrees rounded to 6 decimals; slots run clockwise from
    north.
    """
    cx, cy = center
    edges = []
    x0, y0 = polygon[-1]
    for x1, y1 in polygon:
        mx, my = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        angle = round(math.degrees(math.atan2(my - cy, mx - cx)) * 1e6) / 1e6 % 360.0
        edges.append(((90.0 - angle) % 360.0, angle, (mx, my)))
        x0, y0 = x1, y1
    edges.sort()
    return [(angle, midpoint) for _, angle, midpoint in edges]


def _assemble(kind: TilingKind, cells: Iterable[_Cell]) -> BoardGraph:
    """Derive slots, edge angles and adjacency from the cells' polygons.

    Each polygon edge is a slot, in the order and at the angle that
    ``edge_midpoints`` gives.  The first cell to reach a midpoint leaves
    its slot open; the second pairs with it, which fills in both cells'
    neighbour and back index at once.
    """
    centers: list[tuple[float, float]] = []
    polygons: list[tuple[tuple[float, float], ...]] = []
    edge_angles: list[tuple[float, ...]] = []
    neighbors: list[list[int]] = []
    back_indexes: list[list[int]] = []
    open_slots: dict[tuple[int, int], tuple[int, int]] = {}  # edge midpoint -> (cell, slot)
    for c, (center, polygon) in enumerate(cells):
        angles, midpoints = zip(*edge_midpoints(center, polygon))
        row, back_row = [], []
        for d, (mx, my) in enumerate(midpoints):
            midpoint = _pos_key(mx, my)
            other = open_slots.pop(midpoint, None)
            if other is None:
                open_slots[midpoint] = (c, d)
                row.append(OFF_BOARD)
                back_row.append(OFF_BOARD)
            else:
                n, b = other
                row.append(n)
                back_row.append(b)
                neighbors[n][b], back_indexes[n][b] = c, d
        centers.append(center)
        polygons.append(polygon)
        edge_angles.append(angles)
        neighbors.append(row)
        back_indexes.append(back_row)

    return BoardGraph(
        kind=kind,
        cell_count=len(centers),
        sides=tuple(map(len, polygons)),
        neighbors=tuple(map(tuple, neighbors)),
        back_indexes=tuple(map(tuple, back_indexes)),
        centers=tuple(centers),
        polygons=tuple(polygons),
        edge_angles=tuple(edge_angles),
    )


def _find_symmetries(graph: BoardGraph) -> tuple[Symmetry, ...]:
    """Probe candidate planar isometries against the cell-centre set.

    Candidates are the 12 turns in 30-degree steps about the board
    centroid, first alone (``rot{30k}``) and then after a flip of the y
    axis, which together make the reflections across axes in 15-degree
    steps (``refl{15k}``).  That covers every symmetry the supported
    tilings can have.  An isometry maps distinct centres to distinct
    points, so every accepted cell map is one-to-one; no two accepted
    candidates share their maps, being different isometries.
    """
    cx, cy = graph.centroid
    lookup = {_pos_key(x, y): i for i, (x, y) in enumerate(graph.centers)}

    found: list[Symmetry] = []
    for mirror in (False, True):
        flip = -1.0 if mirror else 1.0
        for k in range(12):
            turn = k * 30.0
            cos, sin = math.cos(math.radians(turn)), math.sin(math.radians(turn))
            cell_map = []
            for x, y in graph.centers:
                dx, dy = x - cx, flip * (y - cy)
                image = lookup.get(_pos_key(cos * dx - sin * dy + cx, sin * dx + cos * dy + cy))
                if image is None:
                    break
                cell_map.append(image)
            else:
                dir_maps = [
                    _slot_map(graph.edge_angles[c], graph.edge_angles[image], flip, turn)
                    for c, image in enumerate(cell_map)
                ]
                if None not in dir_maps:
                    name = f"refl{k * 15}" if mirror else f"rot{k * 30}"
                    found.append(Symmetry(name, tuple(cell_map), tuple(dir_maps), mirror))
    return tuple(found)


def _slot_map(
    angles: tuple[float, ...], targets: tuple[float, ...], flip: float, turn: float
) -> tuple[int, ...] | None:
    """The slot among ``targets`` of each edge angle carried through the
    isometry (``flip * angle + turn``), or None when one has no match."""
    slots = []
    for theta in angles:
        image = (flip * theta + turn) % 360.0
        for slot, t in enumerate(targets):
            if abs((t - image + 180.0) % 360.0 - 180.0) < 1e-6:
                slots.append(slot)
                break
        else:
            return None
    return tuple(slots)


def _square_cells(w: int, h: int) -> Iterator[_Cell]:
    for y in range(h):
        for x in range(w):
            yield (float(x), float(y)), (
                (x - 0.5, y - 0.5),
                (x + 0.5, y - 0.5),
                (x + 0.5, y + 0.5),
                (x - 0.5, y + 0.5),
            )


def _hexagon_corners(radius: float) -> list[tuple[float, float]]:
    """Corner offsets of a hexagon with flat east and west edges."""
    return [
        (radius * math.cos(math.radians(30 + 60 * k)), radius * math.sin(math.radians(30 + 60 * k)))
        for k in range(6)
    ]


def _hex_cells(n: int) -> Iterator[_Cell]:
    corners = _hexagon_corners(1.0 / _SQRT3)
    for r in range(n):
        for q in range(n):
            cx, cy = q + r / 2.0, r * _SQRT3 / 2.0
            yield (cx, cy), tuple((cx + dx, cy + dy) for dx, dy in corners)


def _triangular_cells(rows: int) -> Iterator[_Cell]:
    h = _SQRT3 / 2.0
    for i in range(rows):
        y_bot = (rows - 1 - i) * h
        for j in range(2 * i + 1):
            if j % 2 == 0:  # up-pointing
                xl = -i / 2.0 + j // 2
                yield (xl + 0.5, y_bot + h / 3.0), ((xl, y_bot), (xl + 1.0, y_bot), (xl + 0.5, y_bot + h))
            else:  # down-pointing
                xl = -i / 2.0 + (j - 1) // 2 + 0.5
                yield (xl + 0.5, y_bot + 2.0 * h / 3.0), ((xl, y_bot + h), (xl + 1.0, y_bot + h), (xl + 0.5, y_bot))


def _semi3464_cells(radius: int) -> Iterator[_Cell]:
    """Rhombitrihexagonal (3.4.6.4) patch: hexagons, then squares, then
    triangles, each in the sorted order of their lattice points.

    Hexagons sit on a triangular lattice, a square bridges every pair of
    adjacent hexagons, and a triangle fills every lattice triangle whose
    three hexagons are all present.  A square or triangle is placed from
    its hexagons in the order the loops below last met them, which fixes
    the last bits of its centre and polygon.
    """
    spacing = 1.0 + _SQRT3

    def hex_xy(u: int, v: int) -> tuple[float, float]:
        return (spacing * (u + v / 2.0), spacing * v * _SQRT3 / 2.0)

    def angle_of(dx: float, dy: float) -> float:
        return math.degrees(math.atan2(dy, dx)) % 360.0

    hexes = set()
    for u in range(-radius, radius + 1):
        for v in range(-radius, radius + 1):
            if (abs(u) + abs(v) + abs(u + v)) // 2 <= radius:
                hexes.add((u, v))

    squares = {}
    for p in hexes:
        for du, dv in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)):
            q = (p[0] + du, p[1] + dv)
            if q in hexes:
                squares[tuple(sorted((p, q)))] = (p, q)

    triangles = {}
    for p in hexes:
        for a, b in (((1, 0), (0, 1)), ((1, 0), (1, -1))):
            q = (p[0] + a[0], p[1] + a[1])
            r = (p[0] + b[0], p[1] + b[1])
            if q in hexes and r in hexes:
                triangles[tuple(sorted((p, q, r)))] = (p, q, r)

    corners = _hexagon_corners(1.0)
    for p in sorted(hexes):
        cx, cy = hex_xy(*p)
        yield (cx, cy), tuple((cx + dx, cy + dy) for dx, dy in corners)

    half_diag = math.sqrt(0.5)
    for key in sorted(squares):
        p, q = squares[key]
        px, py = hex_xy(*p)
        qx, qy = hex_xy(*q)
        cx, cy = (px + qx) / 2.0, (py + qy) / 2.0
        theta = angle_of(qx - px, qy - py)
        yield (cx, cy), tuple(
            (cx + half_diag * math.cos(math.radians(theta + 45 + 90 * k)),
             cy + half_diag * math.sin(math.radians(theta + 45 + 90 * k)))
            for k in range(4)
        )

    circum = 1.0 / _SQRT3
    for key in sorted(triangles):
        corners3 = [hex_xy(*p) for p in triangles[key]]
        cx = sum(x for x, _ in corners3) / 3.0
        cy = sum(y for _, y in corners3) / 3.0
        # Edge normals point at the midpoints of the hexagon pairs.
        normals = sorted(
            angle_of((ax + bx) / 2.0 - cx, (ay + by) / 2.0 - cy)
            for (ax, ay), (bx, by) in zip(corners3, corners3[1:] + corners3[:1])
        )
        yield (cx, cy), tuple(
            (cx + circum * math.cos(math.radians(t + 60.0)), cy + circum * math.sin(math.radians(t + 60.0)))
            for t in normals
        )


def build_board(kind: TilingKind) -> BoardGraph:
    """Construct the board graph for a tiling."""
    if isinstance(kind, Square):
        if kind.width < 1 or kind.height < 1:
            raise BoardError("square board needs positive width and height")
        return _assemble(kind, _square_cells(kind.width, kind.height))
    if isinstance(kind, HexRhombus):
        if kind.size < 1:
            raise BoardError("hex board needs positive size")
        return _assemble(kind, _hex_cells(kind.size))
    if isinstance(kind, Triangular):
        if kind.rows < 1:
            raise BoardError("triangular board needs at least one row")
        return _assemble(kind, _triangular_cells(kind.rows))
    if isinstance(kind, Semi3464):
        if kind.radius < 1:
            raise BoardError("3.4.6.4 board needs radius >= 1")
        return _assemble(kind, _semi3464_cells(kind.radius))
    raise BoardError(f"unsupported tiling kind: {kind!r}")


def square_cell(graph: BoardGraph, x: int, y: int) -> int:
    """Cell id at column x, row y of a square board (row 0 is the south row)."""
    kind = graph.kind
    if not isinstance(kind, Square):
        raise BoardError("square_cell requires a square board")
    if not (0 <= x < kind.width and 0 <= y < kind.height):
        raise BoardError(f"({x}, {y}) outside {kind.width}x{kind.height} board")
    return y * kind.width + x


def hex_cell(graph: BoardGraph, q: int, r: int) -> int:
    """Cell id at axial (q, r) of a hex rhombus board."""
    kind = graph.kind
    if not isinstance(kind, HexRhombus):
        raise BoardError("hex_cell requires a hex board")
    if not (0 <= q < kind.size and 0 <= r < kind.size):
        raise BoardError(f"({q}, {r}) outside size-{kind.size} hex board")
    return r * kind.size + q
