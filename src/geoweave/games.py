"""Built-in games: Hex on the rhombus board and Line4 on the square board.

Both are placement games for two players.  The tests exercise the
reactive and proactive features, rotations and off-board elements against
these rules.  A move is the cell it places on, an int.

``apply`` decides the result once, from the stone it places (its Hex
group, or the Line4 lines of four through it): it refuses every move
after the game ends, so a new win must pass through that stone.  Each
move fills one empty cell, and the base ``apply`` calls a full board
without a win a draw, so every game, built-in or subclassed, ends within
cell-count plies and every position in play has a legal move.
``status`` reads the recorded result back: None while the game is
ongoing, 0 for a draw and the winning player id otherwise.

The position also carries its empty cells in cell order, the one record
of which cells are free: ``apply`` finds the placed cell in them by
bisection, which refuses an occupied or off-board cell, and hands the
child that tuple minus the cell, so ``legal_moves`` copies it.

A Hex position carries each player's groups as well: ``groups[p - 1]`` is
a tuple of bitmasks, one per connected group of player ``p``, with bit c
set for each cell c of the group.  ``apply`` ORs the placed cell into the
mover's groups that touch the cell's neighbour mask, keeps the others,
and wins iff the merged group meets both of the mover's edge masks; the
other player's tuple is handed on as it is.  Line4 carries no groups.

A position's board is one int in the chunk-set layout (``chunkset``):
cell c's value sits in the 2-bit chunk at bit 2c, and the rules own that
shape.  A position is never changed: ``apply`` returns a new one.  The
other way to make one is ``GameRules.position``, from one value per
cell: it replays ``_placed`` over the stones in cell order, and since
every line or chain runs through a stone, the replay finds the groups
and any win.  ``initial_state`` is the empty position, built once.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .board import BoardGraph, HexRhombus, Square, build_board
from .chunkset import CHUNK_BITS, CHUNK_MASK


class IllegalMove(ValueError):
    pass


# Per player, the bitmask of each of its connected groups (Hex only).
Groups = tuple[tuple[int, ...], tuple[int, ...]]


class GameState(NamedTuple):
    """A position; ``board`` is its chunk set, ``last_move`` the cell last
    placed on, ``result`` what ``apply`` decided on reaching it, ``empty``
    its empty cells in cell order and ``groups`` each player's groups
    (None for a game that keeps none).  Made by ``GameRules.position`` and
    ``apply``."""

    board: int
    mover: int
    last_move: int | None
    result: int | None
    empty: tuple[int, ...]
    groups: Groups | None


class GameRules:
    """Shared plumbing for two-player placement games: a subclass finds
    wins in ``_placed``, for ``apply`` and ``position`` alike, and both
    draw a full board without one."""

    name: str
    # The groups of the empty board, which ``position`` replays from: None
    # for a game that keeps none.
    _empty_groups: Groups | None = None

    def __init__(self, graph: BoardGraph):
        self.graph = graph
        self._initial: GameState | None = None

    def position(self, values, mover: int, last_move: int | None = None) -> GameState:
        """The position that holds ``values``, one per cell in cell order
        (0 for empty, p for a stone of player p), with ``mover`` to move
        after a placement on the cell ``last_move``.  Its result is decided
        as ``apply`` decides it: ``3 - mover`` when that player has won, a
        draw on a full board without a win, and None otherwise.  Raises
        ``ValueError`` on a wrong count or value, and on a board or last
        move that no play reaches: ``mover`` has already won, or the last
        move is off the board or on a cell without a stone of the player
        who made it, ``3 - mover``."""
        values = list(values)
        cells = self.graph.cell_count
        if len(values) != cells:
            raise ValueError(f"{self.name} has {cells} cells, got {len(values)} values")
        for cell, v in enumerate(values):
            if v not in (0, 1, 2):
                raise ValueError(f"cell {cell} holds {v!r}; a cell holds 0..2")
        if mover not in (1, 2):
            raise ValueError(f"mover {mover!r} is not a player 1..2")
        if last_move is not None and not (
            0 <= last_move < cells and values[last_move] == 3 - mover
        ):
            raise ValueError(f"last move {last_move!r} is not a placement of player {3 - mover}")
        board = sum(v << cell * CHUNK_BITS for cell, v in enumerate(values))
        groups, result = self._empty_groups, None
        for cell, v in enumerate(values):
            if v:
                won, groups = self._placed(board, groups, v, cell)
                if won == mover:
                    raise ValueError(f"player {mover} is to move but has already won")
                if won is not None:
                    result = won
        empty = tuple(cell for cell, v in enumerate(values) if not v)
        if not empty and result is None:
            result = 0
        return GameState(board, mover, last_move, result, empty, groups)

    def initial_state(self) -> GameState:
        """The empty board, player 1 to move: one position, built on first
        use and shared by every game of these rules."""
        if self._initial is None:
            self._initial = self.position([0] * self.graph.cell_count, 1)
        return self._initial

    def legal_moves(self, state: GameState) -> list[int]:
        if self.status(state) is not None:
            return []
        return list(state.empty)

    def apply(self, state: GameState, cell: int) -> GameState:
        """The position after a placement on ``cell``; ``IllegalMove`` unless
        the bisection finds ``cell`` among the empty cells and the game is on."""
        bits, mover, _, _, empty, groups = state
        i = bisect_left(empty, cell)
        if i == len(empty) or empty[i] != cell:
            raise IllegalMove(f"cell {cell} is not an empty cell of the board")
        if self.status(state) is not None:
            raise IllegalMove("game is over")
        child = bits | mover << cell * CHUNK_BITS
        rest = empty[:i] + empty[i + 1:]
        result, groups = self._placed(child, groups, mover, cell)
        if not rest and result is None:
            result = 0
        # Every field is given, so NamedTuple's argument handling is skipped.
        return tuple.__new__(GameState, (child, 3 - mover, cell, result, rest, groups))

    def status(self, state: GameState) -> int | None:
        return state.result

    def _placed(self, bits: int, groups: Groups | None, mover: int,
                cell: int) -> tuple[int | None, Groups | None]:
        """The winner (None for no win) and the groups once ``mover`` has
        placed on ``cell``, leaving the board ``bits``, where ``groups`` were
        the groups before.  ``position`` asks it of each stone on its whole
        board; ``apply`` draws a full board without a win."""
        raise NotImplementedError


class HexRules(GameRules):
    """Hex: player 1 connects the r=0 and r=n-1 edges, player 2 the q=0 and
    q=n-1 edges.  No swap rule; drawless by the usual Hex argument."""

    _empty_groups = ((), ())

    def __init__(self, size: int):
        if size < 2:
            raise ValueError("hex board needs size >= 2")
        super().__init__(build_board(HexRhombus(size)))
        self.size = size
        self.name = f"hex{size}"
        rings = self.graph.neighbors
        # Per cell: the bitmask of its on-board neighbours.
        self._adjacent = [sum(1 << c for c in ring if c >= 0) for ring in rings]
        # Per player (index p - 1): the bitmasks of its two edges, each the
        # cells with no neighbour through one slot of the ring [NE, E, SE,
        # SW, W, NW]: SW (r = 0) and NE (r = n-1) for player 1, W (q = 0)
        # and E (q = n-1) for player 2.
        sw, ne, w, e = (sum(1 << c for c, ring in enumerate(rings) if ring[slot] < 0)
                        for slot in (3, 0, 4, 1))
        self._edges = ((sw, ne), (w, e))

    def _placed(self, bits, groups, mover, cell):
        adjacent = self._adjacent[cell]
        merged = 1 << cell
        kept = []
        for g in groups[mover - 1]:
            if g & adjacent:
                merged |= g
            else:
                kept.append(g)
        kept.append(merged)
        first, second = self._edges[mover - 1]
        result = mover if merged & first and merged & second else None
        mine = tuple(kept)
        return result, ((mine, groups[1]) if mover == 1 else (groups[0], mine))


# Line directions: E, N, NE, NW as (dx, dy) on the square grid.  Wins may
# be diagonal even though the board graph itself only has orthogonal edges.
_LINE4_DIRS = ((1, 0), (0, 1), (1, 1), (-1, 1))


class Line4Rules(GameRules):
    """Place-to-make-4-in-a-row on a square board; a full board without a
    line of four is a draw, which the base ``apply`` decides.  A win is a
    mask test, as a feature instance's match is: the board's chunks under
    some line of four through the placed stone all hold the mover's."""

    def __init__(self, width: int, height: int):
        if width < 4 or height < 4:
            raise ValueError("line4 board needs width and height >= 4")
        super().__init__(build_board(Square(width, height)))
        self.width = width
        self.height = height
        self.name = f"line4-{width}x{height}"

        # Each line of four as the range of its cells from the lowest: one
        # per cell and direction where the line fits on the board.
        lines = [range(y * width + x, (y + 4 * dy) * width + x + 4 * dx, dy * width + dx)
                 for y in range(height) for x in range(width) for dx, dy in _LINE4_DIRS
                 if 0 <= x + 3 * dx < width and y + 3 * dy < height]
        # Per player (index p - 1), per cell: one (shift, mask, filled) test
        # for each line through the cell.  ``shift`` is the chunk shift of
        # the line's lowest cell, ``mask`` covers the line's chunks from
        # there and ``filled`` is that mask full of the player's stones.
        self._windows = ([[] for _ in range(width * height)], [[] for _ in range(width * height)])
        for line in lines:
            shift = line[0] * CHUNK_BITS
            mask = sum(CHUNK_MASK << c * CHUNK_BITS - shift for c in line)
            for player, tests in enumerate(self._windows, 1):
                test = (shift, mask, mask // CHUNK_MASK * player)
                for c in line:
                    tests[c].append(test)

    def _placed(self, bits, groups, player, cell):
        # A new line of four must run through the placed cell, and a longer
        # run holds such a line.
        for shift, mask, filled in self._windows[player - 1][cell]:
            if bits >> shift & mask == filled:
                return player, None
        return None, None


def hex_rules(size: int) -> HexRules:
    return HexRules(size)


def line4_rules(width: int, height: int) -> Line4Rules:
    return Line4Rules(width, height)


def game_from_name(name: str) -> GameRules:
    """Registry lookup: ``hexN`` or ``line4-WxH`` (``line4`` = 7x7)."""
    name = name.strip().lower()
    # Only the name's parse is guarded, so a size the rules refuse reports
    # the rules' own reason.
    if name.startswith("hex"):
        try:
            size = int(name[3:])
        except ValueError:
            raise ValueError(f"bad hex board name {name!r}; use e.g. hex7") from None
        return hex_rules(size)
    if name == "line4":
        return line4_rules(7, 7)
    if name.startswith("line4-"):
        try:
            width, height = map(int, name[6:].split("x"))
        except ValueError:
            raise ValueError(f"bad line4 board name {name!r}; use e.g. line4-7x7") from None
        return line4_rules(width, height)
    raise ValueError(f"unknown game {name!r}; known: hexN, line4 (7x7), line4-WxH")
