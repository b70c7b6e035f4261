"""Boards and walks: the geometry layer.

Builds each supported tiling, shows the clockwise neighbour rings with
their off-board placeholders, and resolves a few walks, ending with the
knight move that splits in two on the semi-regular 3.4.6.4 grid.
"""

from fractions import Fraction as F

import geoweave as gw
from geoweave.walks import make_walk, resolve_walk, resolve_walk_branches

print("== square 5x5 ==")
sq = gw.build_board(gw.Square(5, 5))
corner = gw.square_cell(sq, 0, 0)
centre = gw.square_cell(sq, 2, 2)
print(f"cells: {sq.cell_count}")
print(f"corner {corner} neighbours [N,E,S,W]: {sq.neighbors[corner]}  (-1 = off board)")
print(f"centre {centre} neighbours [N,E,S,W]: {sq.neighbors[centre]}")
print(f"symmetries: {[s.name for s in sq.symmetries]}")

print("\n== hex rhombus 5 ==")
hx = gw.build_board(gw.HexRhombus(5))
c = gw.hex_cell(hx, 2, 2)
print(f"cells: {hx.cell_count}; centre ring (clockwise from NE): {hx.neighbors[c]}")

print("\n== triangular, 4 rows ==")
tri = gw.build_board(gw.Triangular(4))
print(f"cells: {tri.cell_count}; every cell has {set(tri.sides)} sides")
print(f"symmetries: {[s.name for s in tri.symmetries]}")

print("\n== semi-regular 3.4.6.4, radius 2 ==")
semi = gw.build_board(gw.Semi3464(2))
histogram = {k: semi.sides.count(k) for k in sorted(set(semi.sides))}
print(f"cells by side count: {histogram}")
print(f"symmetries: {[s.name for s in semi.symmetries]}")

print("\n== walks ==")
knight = make_walk([0, 0, F(1, 4)])
anchor = gw.square_cell(sq, 2, 2)
site = resolve_walk(sq, anchor, 0, knight)[0]
x, y = site.location % 5, site.location // 5
print(f"knight walk {{0,0,1/4}} facing north from (2,2): lands at ({x},{y})")

# A quarter turn rounds to the nearest slot count per cell: in a triangle
# it becomes a third turn; entering an odd-sided cell has no exact
# "forwards", so the branch splits.
centre_square = min(
    (c for c in range(semi.cell_count) if semi.sides[c] == 4),
    key=lambda c: semi.centers[c][0] ** 2 + semi.centers[c][1] ** 2,
)
for d in range(4):
    first = semi.neighbors[centre_square][d]
    branches = resolve_walk_branches(semi, centre_square, d, knight)
    kind = "triangle" if semi.sides[first] == 3 else "hexagon"
    print(f"same walk on 3.4.6.4 from square cell, step 1 into a {kind}: "
          f"branches -> {branches}")

print("\nwalks that leave the board locate its edge:")
top = gw.square_cell(sq, 2, 4)
print(f"north from the top row: {resolve_walk(sq, top, 0, make_walk([0]))}")
