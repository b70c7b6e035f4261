"""Walks: sequences of fractional clockwise turns resolved over a board graph.

Each step of a walk turns the current facing by a signed fraction of a full
revolution (rounded to the nearest whole number of edge slots for the cell
being turned in, half away from zero) and then moves one cell forwards.
Entering a cell with an odd number of sides has no exact "forwards", so the
branch splits into the two nearest facings; every branch is tracked and the
resolver reports all terminal locations with their branch multiplicities.

Stepping off the board terminates a branch at ``OFF_BOARD`` no matter how
many steps remain: the walk has located a board edge, which is exactly what
off-board pattern elements test for.  Turns are exact rationals throughout;
no floating point is involved in resolution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .board import OFF_BOARD, BoardGraph


class WalkError(ValueError):
    pass


def normalize_turn(turn: Fraction) -> Fraction:
    """Reduce a turn into (-1, 1), preserving direction of rotation.

    The sign matters even for equivalent slot counts because the
    half-away-from-zero rounding rule breaks ties by direction: +1/2 and
    -1/2 of a revolution round to opposite slot offsets in odd-sided cells.
    """
    turn = Fraction(turn)
    whole = turn.numerator // turn.denominator if turn >= 0 else -((-turn.numerator) // turn.denominator)
    return turn - whole


@functools.lru_cache(maxsize=None)
def round_turn(turn: Fraction, sides: int) -> int:
    """Whole number of clockwise slots for ``turn`` in a cell with ``sides``
    edges, rounding half away from zero.  Callers interpret the result mod
    ``sides``.  Cached: features use few distinct turns and side counts.
    """
    if sides < 3:
        raise WalkError(f"cell must have at least 3 sides, got {sides}")
    scaled = Fraction(turn) * sides
    if scaled >= 0:
        return (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
    return -((-scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator))


Walk = tuple[Fraction, ...]


def make_walk(turns) -> Walk:
    return tuple(normalize_turn(Fraction(t)) for t in turns)


@dataclass(frozen=True)
class ResolvedSite:
    location: int  # cell id, or OFF_BOARD
    multiplicity: int


def resolve_walk_exits(
    graph: BoardGraph, anchor: int, start_dir: int, walk: Walk
) -> list[tuple[int, int, int]]:
    """Every ambiguity branch as ``(location, last_cell, exit_slot)``.

    Branch order is deterministic: at each odd-sided entry the
    counterclockwise-nearest facing is explored first.  For off-board
    terminals ``last_cell``/``exit_slot`` name the cell and edge slot the
    branch stepped out through (the renderer places ghost markers there);
    on-board terminals carry ``exit_slot == -1``.
    """
    if not 0 <= anchor < graph.cell_count:
        raise WalkError(f"anchor {anchor} out of range")
    if not 0 <= start_dir < graph.sides[anchor]:
        raise WalkError(
            f"start direction {start_dir} out of range for cell {anchor} "
            f"with {graph.sides[anchor]} sides"
        )
    out: list[tuple[int, int, int]] = []
    # Stack of (cell, facing, step index); pushing the clockwise-nearer
    # facing last makes the pop order counterclockwise-first.
    stack: list[tuple[int, int, int]] = [(anchor, start_dir, 0)]
    while stack:
        cell, facing, step = stack.pop()
        if step == len(walk):
            out.append((cell, cell, -1))
            continue
        sides = graph.sides[cell]
        facing = (facing + round_turn(walk[step], sides)) % sides
        nxt = graph.neighbors[cell][facing]
        if nxt == OFF_BOARD:
            out.append((OFF_BOARD, cell, facing))
            continue
        back = graph.back_indexes[cell][facing]
        nsides = graph.sides[nxt]
        if nsides % 2 == 0:
            stack.append((nxt, (back + nsides // 2) % nsides, step + 1))
        else:
            low = (back + (nsides - 1) // 2) % nsides
            high = (back + (nsides + 1) // 2) % nsides
            stack.append((nxt, high, step + 1))
            stack.append((nxt, low, step + 1))
    return out


def resolve_walk_branches(
    graph: BoardGraph, anchor: int, start_dir: int, walk: Walk, memo: dict | None = None
) -> tuple[int, ...]:
    """Terminal location of every ambiguity branch, one entry per branch,
    as a tuple.

    ``memo`` is an optional dict owned by the caller: the table of this
    one walk on this one graph, which turns a repeated ``(anchor,
    start_dir)`` into two int-keyed lookups, ``memo[anchor][start_dir]``,
    that return the tuple the first call made.  Give each walk value its
    own table.  A bad start is in no table, so it still raises.
    """
    if memo is not None:
        try:
            return memo[anchor][start_dir]
        except KeyError:
            pass
    branches = tuple(loc for loc, _, _ in resolve_walk_exits(graph, anchor, start_dir, walk))
    if memo is not None:
        memo.setdefault(anchor, {})[start_dir] = branches
    return branches


def resolve_walk(
    graph: BoardGraph, anchor: int, start_dir: int, walk: Walk
) -> list[ResolvedSite]:
    """Aggregate branch terminals into (location, multiplicity) sites,
    ordered by first branch arrival."""
    counts: dict[int, int] = {}
    for loc in resolve_walk_branches(graph, anchor, start_dir, walk):
        counts[loc] = counts.get(loc, 0) + 1
    return [ResolvedSite(loc, n) for loc, n in counts.items()]


# --- textual walk syntax (shared with the feature DSL) ---------------------


def parse_walk(text: str) -> Walk:
    """Parse ``{0,1/4,-1/6}`` style walk text."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise WalkError(f"walk must be brace-delimited: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    turns = []
    for part in body.split(","):
        part = part.strip()
        if not part:
            raise WalkError(f"empty turn in walk {text!r}")
        try:
            turns.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise WalkError(f"bad turn {part!r} in walk {text!r}: {exc}") from None
    return make_walk(turns)


def format_turn(turn: Fraction) -> str:
    if turn.denominator == 1:
        return str(turn.numerator)
    return f"{turn.numerator}/{turn.denominator}"


def format_walk(walk: Walk) -> str:
    return "{" + ",".join(format_turn(t) for t in walk) + "}"


def mirror_walk(walk: Walk) -> Walk:
    """Reflected version of a walk: every turn reversed."""
    return tuple(normalize_turn(-t) for t in walk)
