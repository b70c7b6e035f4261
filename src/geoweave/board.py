"""Board graphs for the supported tilings.

A board is a graph of cells (the dual of the drawn tiling: one node per
cell, edges between cells that share a tile edge).  Every cell stores its
full clockwise ring of edge slots, including ``OFF_BOARD`` placeholders
where a tile edge has no neighbouring cell, so walk resolution can locate
board edges and corners.

Conventions (these are fixed by construction and documented here because
relative patterns only need a *consistent* ordering, not any particular
one):

* The y axis points north; clockwise means decreasing polar angle.
* Slot 0 of each cell is the first edge at or clockwise-after due north.
* ``SQUARE`` cells therefore list neighbours as ``[N, E, S, W]``.
* ``HEX_RHOMBUS`` cells list the six directions clockwise starting from
  the north-east edge: ``[NE, E, SE, SW, W, NW]``.
* ``TRIANGULAR`` and ``SEMI_3464`` cells get their slot order from the
  same north-clockwise rule applied to their polygon edge normals.
"""

from __future__ import annotations

import math
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

    @cached_property
    def symmetries(self) -> tuple[Symmetry, ...]:
        """The board's automorphisms, found on first use, for the square
        and hex boards (the only ones absolute patterns are expanded on);
        ``()`` for the others.  Not a field, so equality and hashing skip it."""
        return _find_symmetries(self) if isinstance(self.kind, (Square, HexRhombus)) else ()


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

# Proto-cells are (key, center, [(edge_angle_deg, neighbor_key | None)], polygon).
_Proto = tuple[object, tuple[float, float], list[tuple[float, object | None]], list[tuple[float, float]]]


def _clockwise_key(angle: float) -> float:
    # Position of an edge in the north-first clockwise ring.
    return round((90.0 - angle) % 360.0, 6)


def _pos_key(x: float, y: float) -> tuple[int, int]:
    return (int(round(x * 1e5)), int(round(y * 1e5)))


def _assemble(kind: TilingKind, protos: list[_Proto]) -> BoardGraph:
    index_of = {proto[0]: i for i, proto in enumerate(protos)}
    if len(index_of) != len(protos):
        raise BoardError("duplicate cell keys in tiling construction")

    sides: list[int] = []
    neighbors: list[tuple[int, ...]] = []
    edge_angles: list[tuple[float, ...]] = []
    centers: list[tuple[float, float]] = []
    polygons: list[tuple[tuple[float, float], ...]] = []
    for key, center, slots, polygon in protos:
        ordered = sorted(slots, key=lambda s: _clockwise_key(s[0]))
        row = tuple(
            index_of[nkey] if nkey is not None and nkey in index_of else OFF_BOARD
            for _, nkey in ordered
        )
        sides.append(len(ordered))
        neighbors.append(row)
        edge_angles.append(tuple(angle % 360.0 for angle, _ in ordered))
        centers.append(center)
        polygons.append(tuple(polygon))

    back_indexes: list[tuple[int, ...]] = []
    for c, row in enumerate(neighbors):
        back_row = []
        for d, n in enumerate(row):
            if n == OFF_BOARD:
                back_row.append(OFF_BOARD)
            else:
                try:
                    back_row.append(neighbors[n].index(c))
                except ValueError:
                    raise BoardError(f"adjacency not symmetric between {c} and {n}")
        back_indexes.append(tuple(back_row))

    return BoardGraph(
        kind=kind,
        cell_count=len(protos),
        sides=tuple(sides),
        neighbors=tuple(neighbors),
        back_indexes=tuple(back_indexes),
        centers=tuple(centers),
        polygons=tuple(polygons),
        edge_angles=tuple(edge_angles),
    )


def _find_symmetries(graph: BoardGraph) -> tuple[Symmetry, ...]:
    """Probe candidate planar isometries against the cell-centre set.

    Candidates are rotations in 30-degree steps about the board centroid
    and reflections across axes in 15-degree steps, which covers every
    symmetry the supported tilings can have.
    """
    cx = sum(x for x, _ in graph.centers) / graph.cell_count
    cy = sum(y for _, y in graph.centers) / graph.cell_count
    lookup = {_pos_key(x, y): i for i, (x, y) in enumerate(graph.centers)}

    found: list[Symmetry] = []
    seen: set[tuple] = set()
    candidates: list[tuple[str, float, bool]] = []
    for k in range(12):
        candidates.append((f"rot{k * 30}", k * 30.0, False))
    for k in range(12):
        candidates.append((f"refl{k * 15}", k * 15.0, True))

    for name, param, mirror in candidates:
        if mirror:
            a = math.radians(param)
            cos2, sin2 = math.cos(2 * a), math.sin(2 * a)

            def lin(x: float, y: float) -> tuple[float, float]:
                return (cos2 * x + sin2 * y, sin2 * x - cos2 * y)

            def ang(theta: float) -> float:
                return 2 * param - theta

        else:
            a = math.radians(param)
            cosr, sinr = math.cos(a), math.sin(a)

            def lin(x: float, y: float) -> tuple[float, float]:
                return (cosr * x - sinr * y, sinr * x + cosr * y)

            def ang(theta: float) -> float:
                return theta + param

        cell_map = []
        ok = True
        for x, y in graph.centers:
            ix, iy = lin(x - cx, y - cy)
            j = lookup.get(_pos_key(ix + cx, iy + cy))
            if j is None:
                ok = False
                break
            cell_map.append(j)
        if not ok or len(set(cell_map)) != graph.cell_count:
            continue

        dir_maps = []
        for c in range(graph.cell_count):
            image = cell_map[c]
            if graph.sides[image] != graph.sides[c]:
                ok = False
                break
            target_angles = graph.edge_angles[image]
            dmap = []
            for theta in graph.edge_angles[c]:
                theta2 = ang(theta) % 360.0
                for slot, t in enumerate(target_angles):
                    if abs((t - theta2 + 180.0) % 360.0 - 180.0) < 1e-6:
                        dmap.append(slot)
                        break
                else:
                    ok = False
                    break
            if not ok:
                break
            dir_maps.append(tuple(dmap))
        if not ok:
            continue

        fingerprint = (tuple(cell_map), tuple(dir_maps), mirror)
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        found.append(Symmetry(name, tuple(cell_map), tuple(dir_maps), mirror))
    return tuple(found)


def _square_protos(w: int, h: int) -> list[_Proto]:
    protos: list[_Proto] = []
    for y in range(h):
        for x in range(w):
            key = (x, y)
            slots = [
                (90.0, (x, y + 1) if y + 1 < h else None),
                (0.0, (x + 1, y) if x + 1 < w else None),
                (270.0, (x, y - 1) if y - 1 >= 0 else None),
                (180.0, (x - 1, y) if x - 1 >= 0 else None),
            ]
            poly = [
                (x - 0.5, y - 0.5),
                (x + 0.5, y - 0.5),
                (x + 0.5, y + 0.5),
                (x - 0.5, y + 0.5),
            ]
            protos.append((key, (float(x), float(y)), slots, poly))
    return protos


# Axial deltas in the fixed clockwise-from-north-east order.
HEX_DELTAS = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))
_HEX_ANGLES = (60.0, 0.0, 300.0, 240.0, 180.0, 120.0)


def _hex_center(q: int, r: int) -> tuple[float, float]:
    return (q + r / 2.0, r * _SQRT3 / 2.0)


def _hex_protos(n: int) -> list[_Proto]:
    cells = {(q, r) for r in range(n) for q in range(n)}
    protos: list[_Proto] = []
    radius = 1.0 / _SQRT3
    for r in range(n):
        for q in range(n):
            cx, cy = _hex_center(q, r)
            slots = []
            for (dq, dr), angle in zip(HEX_DELTAS, _HEX_ANGLES):
                nkey = (q + dq, r + dr)
                slots.append((angle, nkey if nkey in cells else None))
            poly = [
                (cx + radius * math.cos(math.radians(30 + 60 * k)), cy + radius * math.sin(math.radians(30 + 60 * k)))
                for k in range(6)
            ]
            protos.append(((q, r), (cx, cy), slots, poly))
    return protos


def _triangular_protos(rows: int) -> list[_Proto]:
    h = _SQRT3 / 2.0
    protos: list[_Proto] = []
    for i in range(rows):
        y_bot = (rows - 1 - i) * h
        for j in range(2 * i + 1):
            key = (i, j)
            if j % 2 == 0:  # up-pointing
                k = j // 2
                xl = -i / 2.0 + k
                poly = [(xl, y_bot), (xl + 1.0, y_bot), (xl + 0.5, y_bot + h)]
                center = (xl + 0.5, y_bot + h / 3.0)
                slots = [
                    (30.0, (i, j + 1) if j + 1 < 2 * i + 1 else None),
                    (270.0, (i + 1, j + 1) if i + 1 < rows else None),
                    (150.0, (i, j - 1) if j - 1 >= 0 else None),
                ]
            else:  # down-pointing
                k = (j - 1) // 2
                xl = -i / 2.0 + k + 0.5
                poly = [(xl, y_bot + h), (xl + 1.0, y_bot + h), (xl + 0.5, y_bot)]
                center = (xl + 0.5, y_bot + 2.0 * h / 3.0)
                slots = [
                    (90.0, (i - 1, j - 1)),
                    (330.0, (i, j + 1) if j + 1 < 2 * i + 1 else None),
                    (210.0, (i, j - 1)),
                ]
            protos.append((key, center, slots, poly))
    return protos


def _axial_rot60(u: int, v: int) -> tuple[int, int]:
    return (-v, u + v)


def _axial_rot300(u: int, v: int) -> tuple[int, int]:
    return (u + v, -u)


def _semi3464_protos(radius: int) -> list[_Proto]:
    """Rhombitrihexagonal (3.4.6.4) patch.

    Hexagons sit on a triangular lattice, a square bridges every pair of
    adjacent hexagons, and a triangle fills every lattice triangle whose
    three hexagons are all present.
    """
    spacing = 1.0 + _SQRT3

    def hex_xy(u: int, v: int) -> tuple[float, float]:
        return (spacing * (u + v / 2.0), spacing * v * _SQRT3 / 2.0)

    hexes = set()
    for u in range(-radius, radius + 1):
        for v in range(-radius, radius + 1):
            if (abs(u) + abs(v) + abs(u + v)) // 2 <= radius:
                hexes.add((u, v))

    lattice_dirs = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]

    def square_key(p: tuple[int, int], q: tuple[int, int]):
        return ("S",) + tuple(sorted((p, q)))

    def triangle_key(p, q, r):
        return ("T",) + tuple(sorted((p, q, r)))

    squares = {}
    for p in hexes:
        for du, dv in lattice_dirs:
            q = (p[0] + du, p[1] + dv)
            if q in hexes:
                squares[square_key(p, q)] = (p, q)

    triangles = {}
    for p in hexes:
        for a, b in (((1, 0), (0, 1)), ((1, 0), (1, -1))):
            q = (p[0] + a[0], p[1] + a[1])
            r = (p[0] + b[0], p[1] + b[1])
            if q in hexes and r in hexes:
                triangles[triangle_key(p, q, r)] = (p, q, r)

    def angle_of(dx: float, dy: float) -> float:
        return math.degrees(math.atan2(dy, dx)) % 360.0

    protos: list[_Proto] = []
    for p in sorted(hexes):
        cx, cy = hex_xy(*p)
        slots = []
        for du, dv in lattice_dirs:
            q = (p[0] + du, p[1] + dv)
            skey = square_key(p, q) if q in hexes else None
            qx, qy = hex_xy(*q)
            slots.append((angle_of(qx - cx, qy - cy), skey))
        poly = [
            (cx + math.cos(math.radians(30 + 60 * k)), cy + math.sin(math.radians(30 + 60 * k)))
            for k in range(6)
        ]
        protos.append((("H",) + p, (cx, cy), slots, poly))

    for skey in sorted(squares):
        p, q = squares[skey]
        px, py = hex_xy(*p)
        qx, qy = hex_xy(*q)
        cx, cy = (px + qx) / 2.0, (py + qy) / 2.0
        slots = [
            (angle_of(px - cx, py - cy), ("H",) + p),
            (angle_of(qx - cx, qy - cy), ("H",) + q),
        ]
        du, dv = q[0] - p[0], q[1] - p[1]
        for rot in (_axial_rot60, _axial_rot300):
            ru, rv = rot(du, dv)
            third = (p[0] + ru, p[1] + rv)
            tkey = triangle_key(p, q, third) if third in hexes else None
            tx, ty = hex_xy(*third)
            tcx, tcy = (px + qx + tx) / 3.0, (py + qy + ty) / 3.0
            slots.append((angle_of(tcx - cx, tcy - cy), tkey))
        theta = angle_of(qx - px, qy - py)
        half_diag = math.sqrt(0.5)
        poly = [
            (cx + half_diag * math.cos(math.radians(theta + 45 + 90 * k)),
             cy + half_diag * math.sin(math.radians(theta + 45 + 90 * k)))
            for k in range(4)
        ]
        protos.append((skey, (cx, cy), slots, poly))

    for tkey in sorted(triangles):
        p, q, r = triangles[tkey]
        corners = [hex_xy(*p), hex_xy(*q), hex_xy(*r)]
        cx = sum(x for x, _ in corners) / 3.0
        cy = sum(y for _, y in corners) / 3.0
        slots = []
        for a, b in ((p, q), (q, r), (p, r)):
            ax, ay = hex_xy(*a)
            bx, by = hex_xy(*b)
            sx, sy = (ax + bx) / 2.0, (ay + by) / 2.0
            slots.append((angle_of(sx - cx, sy - cy), square_key(a, b)))
        circum = 1.0 / _SQRT3
        normals = sorted(s[0] for s in slots)
        poly = [
            (cx + circum * math.cos(math.radians(t + 60.0)), cy + circum * math.sin(math.radians(t + 60.0)))
            for t in normals
        ]
        protos.append((tkey, (cx, cy), slots, poly))
    return protos


def build_board(kind: TilingKind) -> BoardGraph:
    """Construct the board graph for a tiling."""
    if isinstance(kind, Square):
        if kind.width < 1 or kind.height < 1:
            raise BoardError("square board needs positive width and height")
        return _assemble(kind, _square_protos(kind.width, kind.height))
    if isinstance(kind, HexRhombus):
        if kind.size < 1:
            raise BoardError("hex board needs positive size")
        return _assemble(kind, _hex_protos(kind.size))
    if isinstance(kind, Triangular):
        if kind.rows < 1:
            raise BoardError("triangular board needs at least one row")
        return _assemble(kind, _triangular_protos(kind.rows))
    if isinstance(kind, Semi3464):
        if kind.radius < 1:
            raise BoardError("3.4.6.4 board needs radius >= 1")
        return _assemble(kind, _semi3464_protos(kind.radius))
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
