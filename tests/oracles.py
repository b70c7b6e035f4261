"""Independent oracles the tests check the engine against.

Each oracle deliberately uses a different mechanism from the code under
test: coordinate arithmetic instead of graph walking, per-cell decoded
values instead of packed words, whole-board searches and scans instead
of checks around the placed stone, exhaustive minimax instead of
sampling.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from geoweave.board import OFF_BOARD
from geoweave.features import Constraint, ElementKind
from geoweave.games import HexRules

# --- closed-form walk oracle on the square grid -----------------------------

COMPASS = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_COMPASS_ORDER = ["N", "E", "S", "W"]


def round_half_away(x: Fraction) -> int:
    scaled = x * 2
    if x >= 0:
        return (scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return -((-scaled.numerator + scaled.denominator) // (2 * scaled.denominator))


def square_walk_oracle(width, height, start_xy, start_compass, turns):
    """Walk by pure (x, y) arithmetic: facing is a compass point, a turn is
    a quarter-turn count, stepping off the grid terminates at OFF_BOARD."""
    x, y = start_xy
    facing = _COMPASS_ORDER.index(start_compass)
    for turn in turns:
        facing = (facing + round_half_away(Fraction(turn) * 4)) % 4
        dx, dy = COMPASS[_COMPASS_ORDER[facing]]
        x, y = x + dx, y + dy
        if not (0 <= x < width and 0 <= y < height):
            return OFF_BOARD
    return y * width + x


# --- per-element interpretive matcher ---------------------------------------


def constraint_holds(constraint: Constraint, value: int | None, mover: int, player_count: int) -> bool:
    """One element constraint against a decoded cell value (None = off board)."""
    kind = constraint.kind
    if kind is ElementKind.OFF:
        holds = value is None
    elif value is None:
        holds = False
    elif kind is ElementKind.EMPTY:
        holds = value == 0
    elif kind is ElementKind.FRIEND:
        holds = value == mover
    elif kind is ElementKind.ENEMY:
        holds = value not in (0, mover)
    elif kind is ElementKind.PLAYER:
        holds = value == constraint.index
    else:  # ITEM: built-in games use item n == player n's piece
        holds = value == constraint.index
    return not holds if constraint.negated else holds


def interpret_instance(inst, values, mover: int, player_count: int) -> bool:
    """Naive matcher: walk the instance's element sites one by one and test
    the decoded per-cell values against each constraint."""
    for site, constraints in inst.element_sites:
        value = None if site == OFF_BOARD else values[site]
        for c in constraints:
            if not constraint_holds(c, value, mover, player_count):
                return False
    return True


def interpret_instances_batch(instances, value_matrix: np.ndarray, mover: int, player_count: int) -> np.ndarray:
    """Vectorised-over-states version of :func:`interpret_instance`.

    ``value_matrix`` is (n_states, n_cells) of decoded chunk values; the
    result is (n_states, n_instances) of booleans.  Still a per-element
    interpreter: element semantics are applied one constraint at a time on
    decoded values, never on packed words.
    """
    n_states = value_matrix.shape[0]
    out = np.empty((n_states, len(instances)), dtype=bool)
    for j, inst in enumerate(instances):
        acc = np.ones(n_states, dtype=bool)
        for site, constraints in inst.element_sites:
            for c in constraints:
                if site == OFF_BOARD:
                    holds = np.full(n_states, c.kind is ElementKind.OFF, dtype=bool)
                else:
                    col = value_matrix[:, site]
                    if c.kind is ElementKind.OFF:
                        holds = np.zeros(n_states, dtype=bool)
                    elif c.kind is ElementKind.EMPTY:
                        holds = col == 0
                    elif c.kind is ElementKind.FRIEND:
                        holds = col == mover
                    elif c.kind is ElementKind.ENEMY:
                        holds = (col != 0) & (col != mover)
                    else:
                        holds = col == c.index
                if c.negated:
                    holds = ~holds
                acc &= holds
        out[:, j] = acc
    return out


# --- connectivity and minimax oracles ---------------------------------------


def hex_win_bfs(rules, values, player: int) -> bool:
    """Breadth-first connectivity between a player's two edges."""
    n = rules.size
    graph = rules.graph
    if player == 1:
        starts = [q for q in range(n) if values[q] == player]  # r == 0 row
        goal = {c for c in range((n - 1) * n, n * n)}
    else:
        starts = [r * n for r in range(n) if values[r * n] == player]
        goal = {r * n + (n - 1) for r in range(n)}
    seen = set(starts)
    queue = deque(starts)
    while queue:
        c = queue.popleft()
        if c in goal:
            return True
        for nb in graph.neighbors[c]:
            if nb >= 0 and nb not in seen and values[nb] == player:
                seen.add(nb)
                queue.append(nb)
    return False


def line4_winner_scan(rules, values, move_number: int) -> int | None:
    """Full-board Line4 result: the first stone, in cell order, that starts
    a line of four in one of the four directions; else a draw once the
    board is full, else None."""
    width, height = rules.width, rules.height

    def at(x, y):
        return values[y * width + x] if 0 <= x < width and 0 <= y < height else 0

    for y in range(height):
        for x in range(width):
            v = at(x, y)
            if v == 0:
                continue
            for dx, dy in ((1, 0), (0, 1), (1, 1), (-1, 1)):
                if all(at(x + k * dx, y + k * dy) == v for k in range(1, 4)):
                    return v
    return 0 if move_number >= width * height else None


def status_oracle(rules, state) -> int | None:
    """The game result recomputed from the whole board, as ``status`` should
    report it."""
    values = state.board.values()
    if isinstance(rules, HexRules):
        winners = [p for p in (1, 2) if hex_win_bfs(rules, values, p)]
        assert len(winners) <= 1, "both hex players connected"
        return winners[0] if winners else None
    return line4_winner_scan(rules, values, state.move_number)


def minimax_winner(rules, state) -> int:
    """Exhaustive game value: the winner under perfect play (0 = draw)."""
    result = rules.status(state)
    if result is not None:
        return result
    mover = state.mover
    best = None
    for move in rules.legal_moves(state):
        value = minimax_winner(rules, rules.apply(state, move))
        if value == mover:
            return mover
        if best is None or (value == 0 and best != 0):
            best = value
    return best if best is not None else 0


def one_ply_winning_moves(rules, state) -> list:
    """Moves that win immediately for the mover."""
    wins = []
    for move in rules.legal_moves(state):
        if rules.status(rules.apply(state, move)) == state.mover:
            wins.append(move)
    return wins
