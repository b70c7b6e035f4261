"""SVG diagrams of features, following the paper-style drawing conventions:
white disks for friendly pieces, black disks for enemy pieces, small white
dots for required-empty cells, a dotted disk for the triggering last move,
and a green ``+`` (red ``-`` for negative weights) on the action cell.
The anchor cell is tinted.  Output bytes are deterministic for golden
tests: fixed float formatting, no timestamps.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .board import OFF_BOARD, BoardGraph, edge_midpoints
from .features import Constraint, ElementKind, Feature, FeatureSet
from .instancer import InstancerError, instance_placements
from .walks import mirror_walk, resolve_walk_exits

GREEN = "#1a9641"
RED = "#d7191c"
ANCHOR_FILL = "#fff3c4"
CELL_FILL = "#ffffff"
CONTEXT_FILL = "#f2f2f2"
EDGE = "#666666"
LABEL_FILL = "#333333"
# Drawing units per board unit.
SCALE = 40.0


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _central_instance(feature: Feature, graph: BoardGraph) -> tuple:
    """The first of the feature's instances whose anchor lies nearest the
    board's centroid, as ``instancer.instance_placements`` gives it."""
    placed = instance_placements(FeatureSet((feature,), "render"), graph, mover=1)
    if not placed:
        raise InstancerError("feature has no valid instance on this board")
    cx, cy = graph.centroid

    def centrality(placement: tuple) -> float:
        x, y = graph.centers[placement[1]]  # its anchor
        return (x - cx) ** 2 + (y - cy) ** 2

    best = placed[0]
    best_d = centrality(best)
    for placement in placed[1:]:
        d = centrality(placement)
        if d < best_d - 1e-9:
            best, best_d = placement, d
    return best


def render_feature(feature: Feature, graph: BoardGraph) -> str:
    """One feature as a standalone SVG 1.1 document (deterministic bytes)."""
    inst, anchor, start_dir, reflected, element_sites = _central_instance(feature, graph)
    walk_of = mirror_walk if reflected else (lambda w: w)

    # Cells to draw: pattern sites, action, last move, plus a one-ring halo.
    pattern_cells: dict[int, tuple[Constraint, ...]] = {}
    ghosts: list[tuple[float, float]] = []
    for (site, constraints), el in zip(element_sites, feature.elements):
        if site == OFF_BOARD:
            for loc, last_cell, exit_slot in resolve_walk_exits(
                graph, anchor, start_dir, walk_of(el.walk)
            ):
                if loc == OFF_BOARD:
                    cx, cy = graph.centers[last_cell]
                    _, (mx, my) = edge_midpoints((cx, cy), graph.polygons[last_cell])[exit_slot]
                    ghosts.append((cx + 2 * (mx - cx), cy + 2 * (my - cy)))
        else:
            pattern_cells[site] = constraints

    core = set(pattern_cells) | {anchor, inst.action_to}
    if inst.last_move_cell is not None:
        core.add(inst.last_move_cell)
    halo = set(core)
    for c in core:
        for n in graph.neighbors[c]:
            if n >= 0:
                halo.add(n)

    xs = [x for c in halo for x, _ in [graph.centers[c]]]
    ys = [y for c in halo for _, y in [graph.centers[c]]]
    for gx, gy in ghosts:
        xs.append(gx)
        ys.append(gy)
    pad = 1.2
    min_x, max_x = min(xs) - pad, max(xs) + pad
    min_y, max_y = min(ys) - pad, max(ys) + pad

    def tx(x: float) -> float:
        return (x - min_x) * SCALE

    def ty(y: float) -> float:
        return (max_y - y) * SCALE  # flip: board north is up

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": _fmt((max_x - min_x) * SCALE),
            "height": _fmt((max_y - min_y) * SCALE),
        },
    )

    def poly_points(cell: int) -> str:
        return " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in graph.polygons[cell])

    for cell in sorted(halo):
        fill = CONTEXT_FILL
        if cell in core:
            fill = ANCHOR_FILL if cell == anchor else CELL_FILL
        ET.SubElement(
            svg,
            "polygon",
            {"points": poly_points(cell), "fill": fill, "stroke": EDGE, "stroke-width": "1"},
        )

    def circle(x: float, y: float, r: float, fill: str, stroke: str, width: str,
               dasharray: str | None = None) -> None:
        """A circle of radius ``r`` board units centred on board point (x, y)."""
        attrs = {
            "cx": _fmt(tx(x)),
            "cy": _fmt(ty(y)),
            "r": _fmt(r * SCALE),
            "fill": fill,
            "stroke": stroke,
            "stroke-width": width,
        }
        if dasharray is not None:
            attrs["stroke-dasharray"] = dasharray
        ET.SubElement(svg, "circle", attrs)

    for gx, gy in sorted(ghosts):
        circle(gx, gy, 0.28, "none", EDGE, "1", "3,3")

    def disk(cell: int, fill: str, dotted: bool) -> None:
        circle(*graph.centers[cell], 0.30, fill, "#000000", "1.5", "4,3" if dotted else None)

    def small_dot(cell: int) -> None:
        circle(*graph.centers[cell], 0.07, "#ffffff", "#000000", "1")

    def label(cell: int, text: str, dy: float = -0.45, fill: str = LABEL_FILL) -> None:
        x, y = graph.centers[cell]
        el = ET.SubElement(
            svg,
            "text",
            {
                "x": _fmt(tx(x)),
                "y": _fmt(ty(y + dy)),
                "font-size": _fmt(0.28 * SCALE),
                "font-family": "sans-serif",
                "text-anchor": "middle",
                "fill": fill,
            },
        )
        el.text = text

    for cell in sorted(pattern_cells):
        constraints = pattern_cells[cell]
        dotted = cell == inst.last_move_cell
        positives = [c for c in constraints if not c.negated]
        negatives = [c for c in constraints if c.negated]
        for c in positives:
            if c.kind is ElementKind.EMPTY:
                small_dot(cell)
            elif c.kind is ElementKind.FRIEND:
                disk(cell, "#ffffff", dotted)
            elif c.kind is ElementKind.ENEMY:
                disk(cell, "#000000", dotted)
            elif c.kind is ElementKind.PLAYER:
                # A dark label on the black disk would be unreadable.
                first = c.index == 1
                disk(cell, "#ffffff" if first else "#000000", dotted)
                label(cell, f"P{c.index}", dy=0.0, fill=LABEL_FILL if first else "#ffffff")
            elif c.kind is ElementKind.ITEM:
                disk(cell, "#bbbbbb", dotted)
                label(cell, f"I{c.index}", dy=0.0)
        if negatives:
            label(cell, ",".join(c.glyph() for c in negatives))

    # Action marker: green plus for encouraged moves, red minus otherwise.
    ax, ay = graph.centers[inst.action_to]
    color = GREEN if feature.weight >= 0 else RED
    arm = 0.22 * SCALE
    w = _fmt(0.09 * SCALE)
    # Half-extents (dx, dy) of the horizontal stroke, then of a plus's vertical one.
    strokes = [(arm, 0.0), (0.0, arm)] if feature.weight >= 0 else [(arm, 0.0)]
    for dx, dy in strokes:
        ET.SubElement(
            svg,
            "line",
            {
                "x1": _fmt(tx(ax) - dx), "y1": _fmt(ty(ay) - dy),
                "x2": _fmt(tx(ax) + dx), "y2": _fmt(ty(ay) + dy),
                "stroke": color, "stroke-width": w, "stroke-linecap": "round",
            },
        )

    return ET.tostring(svg, encoding="unicode") + "\n"
