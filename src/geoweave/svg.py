"""SVG diagrams of features, following the paper-style drawing conventions:
white disks for friendly pieces, black disks for enemy pieces, small white
dots for required-empty cells, a dotted disk for the triggering last move,
and a green ``+`` (red ``-`` for negative weights) on the action cell.
The anchor cell is tinted.  Output bytes are deterministic for golden
tests: fixed float formatting, no timestamps.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

from .board import OFF_BOARD, BoardGraph
from .features import Constraint, ElementKind, Feature, FeatureSet
from .instancer import FeatureInstance, InstancerError, instantiate
from .walks import mirror_walk, resolve_walk_exits

GREEN = "#1a9641"
RED = "#d7191c"
ANCHOR_FILL = "#fff3c4"
CELL_FILL = "#ffffff"
CONTEXT_FILL = "#f2f2f2"
EDGE = "#666666"
# Drawing units per board unit.
SCALE = 40.0


def _fmt(v: float) -> str:
    s = f"{v:.2f}"
    return "0.00" if s == "-0.00" else s


def _central_instance(feature: Feature, graph: BoardGraph) -> FeatureInstance:
    index = instantiate(FeatureSet((feature,), "render"), graph, mover=1)
    if not index.instances:
        raise InstancerError("feature has no valid instance on this board")
    cx = sum(x for x, _ in graph.centers) / graph.cell_count
    cy = sum(y for _, y in graph.centers) / graph.cell_count

    def centrality(inst: FeatureInstance) -> float:
        x, y = graph.centers[inst.anchor]
        return (x - cx) ** 2 + (y - cy) ** 2

    best = index.instances[0]
    best_d = centrality(best)
    for inst in index.instances[1:]:
        d = centrality(inst)
        if d < best_d - 1e-9:
            best, best_d = inst, d
    return best


def _edge_midpoint(graph: BoardGraph, cell: int, slot: int) -> tuple[float, float]:
    cxy = graph.centers[cell]
    target = graph.edge_angles[cell][slot]
    poly = graph.polygons[cell]
    best = None
    best_err = 1e9
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        ang = math.degrees(math.atan2(my - cxy[1], mx - cxy[0])) % 360.0
        err = abs((ang - target + 180.0) % 360.0 - 180.0)
        if err < best_err:
            best_err = err
            best = (mx, my)
    return best


def render_feature(feature: Feature, graph: BoardGraph) -> str:
    """One feature as a standalone SVG 1.1 document (deterministic bytes)."""
    inst = _central_instance(feature, graph)
    walk_of = mirror_walk if inst.reflected else (lambda w: w)

    # Cells to draw: pattern sites, action, last move, plus a one-ring halo.
    pattern_cells: dict[int, tuple[Constraint, ...]] = {}
    ghosts: list[tuple[float, float]] = []
    for (site, constraints), el in zip(inst.element_sites, feature.elements):
        if site == OFF_BOARD:
            for loc, last_cell, exit_slot in resolve_walk_exits(
                graph, inst.anchor, inst.start_dir, walk_of(el.walk)
            ):
                if loc == OFF_BOARD:
                    cx, cy = graph.centers[last_cell]
                    mx, my = _edge_midpoint(graph, last_cell, exit_slot)
                    ghosts.append((cx + 2 * (mx - cx), cy + 2 * (my - cy)))
        else:
            pattern_cells[site] = constraints

    core = set(pattern_cells) | {inst.anchor, inst.action_to}
    if inst.action_from is not None:
        core.add(inst.action_from)
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
            fill = ANCHOR_FILL if cell == inst.anchor else CELL_FILL
        ET.SubElement(
            svg,
            "polygon",
            {"points": poly_points(cell), "fill": fill, "stroke": EDGE, "stroke-width": "1"},
        )

    for gx, gy in sorted(ghosts):
        ET.SubElement(
            svg,
            "circle",
            {
                "cx": _fmt(tx(gx)),
                "cy": _fmt(ty(gy)),
                "r": _fmt(0.28 * SCALE),
                "fill": "none",
                "stroke": EDGE,
                "stroke-width": "1",
                "stroke-dasharray": "3,3",
            },
        )

    def disk(cell: int, fill: str, dotted: bool) -> None:
        x, y = graph.centers[cell]
        attrs = {
            "cx": _fmt(tx(x)),
            "cy": _fmt(ty(y)),
            "r": _fmt(0.30 * SCALE),
            "fill": fill,
            "stroke": "#000000",
            "stroke-width": "1.5",
        }
        if dotted:
            attrs["stroke-dasharray"] = "4,3"
        ET.SubElement(svg, "circle", attrs)

    def small_dot(cell: int) -> None:
        x, y = graph.centers[cell]
        ET.SubElement(
            svg,
            "circle",
            {
                "cx": _fmt(tx(x)),
                "cy": _fmt(ty(y)),
                "r": _fmt(0.07 * SCALE),
                "fill": "#ffffff",
                "stroke": "#000000",
                "stroke-width": "1",
            },
        )

    def label(cell: int, text: str, dy: float = -0.45) -> None:
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
                "fill": "#333333",
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
                disk(cell, "#ffffff" if c.index == 1 else "#000000", dotted)
                label(cell, f"P{c.index}", dy=0.0)
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
    ET.SubElement(
        svg,
        "line",
        {
            "x1": _fmt(tx(ax) - arm), "y1": _fmt(ty(ay)),
            "x2": _fmt(tx(ax) + arm), "y2": _fmt(ty(ay)),
            "stroke": color, "stroke-width": w, "stroke-linecap": "round",
        },
    )
    if feature.weight >= 0:
        ET.SubElement(
            svg,
            "line",
            {
                "x1": _fmt(tx(ax)), "y1": _fmt(ty(ay) - arm),
                "x2": _fmt(tx(ax)), "y2": _fmt(ty(ay) + arm),
                "stroke": color, "stroke-width": w, "stroke-linecap": "round",
            },
        )
    if inst.action_from is not None:
        fx, fy = graph.centers[inst.action_from]
        ET.SubElement(
            svg,
            "line",
            {
                "x1": _fmt(tx(fx)), "y1": _fmt(ty(fy)),
                "x2": _fmt(tx(ax)), "y2": _fmt(ty(ay)),
                "stroke": color, "stroke-width": "2", "stroke-dasharray": "5,4",
            },
        )

    return ET.tostring(svg, encoding="unicode") + "\n"
