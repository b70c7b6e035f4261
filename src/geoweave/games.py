"""Built-in games: Hex on the rhombus board and Line4 on the square board.

Both are placement games for two players.  The tests exercise the
reactive and proactive features, rotations and off-board elements against
these rules.  Neither game has moves with a from-cell, so a move-from
feature compiles and is tested but never boosts a move: its instances'
``(action_to, action_from)`` has a from-cell, and every legal ``Move(c)``
has ``from_`` None.

``apply`` decides the result once, from the stone it places (its Hex
group or its Line4 runs): it refuses every move after the game ends, so
a new win must pass through that stone.  ``status`` reads the recorded
result back: None while the game is ongoing, 0 for a draw and the
winning player id otherwise.

The position also carries its empty cells: ``position`` lists each empty
cell's shared ``Move`` in cell order, and ``apply`` hands the child that
tuple minus the placed cell, so ``legal_moves`` copies it instead of
scanning the board.  Since the tuple holds exactly the empty cells in
cell order, the placed cell's slot in it is the cell minus the number of
occupied cells below it: ``apply`` ORs each 2-bit chunk of the parent's
board onto its low bit, keeps the low bits of the chunks below the cell
and counts them with ``int.bit_count``.

A Hex position carries each player's groups as well: ``groups[p - 1]`` is
a tuple of bitmasks, one per connected group of player ``p``, with bit c
set for each cell c of the group.  ``apply`` ORs the placed cell into the
mover's groups that touch the cell's neighbour mask, keeps the others,
and wins iff the merged group meets both of the mover's edge masks; the
other player's tuple is handed on as it is.  Line4 carries no groups.

A position's board is one int in the chunk-set layout (``chunkset``):
cell c's value sits in the 2-bit chunk at bit 2c, and the rules own that
shape.  A position is never changed: ``apply`` returns a new one.  The
other way to make one is ``GameRules.position``, which derives the move
number (the stone count), the empty cells and the groups from one value
per cell; ``initial_state`` is the empty position it builds once and
shares.  Hex finds the groups by replaying ``_placed`` over the stones in
cell order, so the group join exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .board import BoardGraph, HexRhombus, Square, build_board, hex_cell
from .chunkset import CHUNK_BITS


class IllegalMove(ValueError):
    pass


@dataclass(frozen=True)
class Move:
    to: int
    from_: int | None = None


# Per player, the bitmask of each of its connected groups (Hex only).
Groups = tuple[tuple[int, ...], tuple[int, ...]]


class GameState(NamedTuple):
    """A position; ``board`` is its chunk set, ``result`` what ``apply``
    decided on reaching it, ``empty`` the ``Move``s of its empty cells in
    cell order and ``groups`` each player's groups (None for a game that
    keeps none).  Made by ``GameRules.position`` and ``apply``."""

    board: int
    mover: int
    last_move: Move | None
    move_number: int
    result: int | None
    empty: tuple[Move, ...]
    groups: Groups | None


class GameRules:
    """Shared plumbing for two-player placement games."""

    name: str

    def __init__(self, graph: BoardGraph):
        self.graph = graph
        self._chunk_mask = (1 << CHUNK_BITS) - 1
        cells = graph.cell_count
        self._cell_count = cells
        # Per cell: its one shared Move and the shift of its chunk in the board.
        self._cells = [(Move(c), c * CHUNK_BITS) for c in range(cells)]
        # Per cell: the low bit of every chunk below its own (0b01 repeated).
        low = ((1 << 2 * cells) - 1) // 3
        self._below = [low & ((1 << s) - 1) for _, s in self._cells]
        self._initial: GameState | None = None

    def position(self, values, mover: int, last_move: Move | None = None) -> GameState:
        """The position in play that holds ``values``, one per cell in cell
        order (0 for empty, p for a stone of player p), with ``mover`` to
        move after ``last_move``.  Raises ``ValueError`` on a wrong count or
        value, or on a last move that no play could have made: one off the
        board, with a from-cell, or on a cell without a stone of the
        player who made it, ``3 - mover``."""
        values = list(values)
        if len(values) != self._cell_count:
            raise ValueError(f"{self.name} has {self._cell_count} cells, got {len(values)} values")
        for cell, v in enumerate(values):
            if v not in (0, 1, 2):
                raise ValueError(f"cell {cell} holds {v!r}; a cell holds 0..2")
        if mover not in (1, 2):
            raise ValueError(f"mover {mover!r} is not a player 1..2")
        if last_move is not None and not (
            last_move.from_ is None
            and 0 <= last_move.to < self._cell_count
            and values[last_move.to] == 3 - mover
        ):
            raise ValueError(f"last move {last_move!r} is not a placement of player {3 - mover}")
        board = 0
        for (_, s), v in zip(self._cells, values):
            board |= v << s
        empty = tuple(m for (m, _), v in zip(self._cells, values) if not v)
        return GameState(board, mover, last_move, self._cell_count - len(empty), None, empty,
                         self._scan_groups(board))

    def initial_state(self) -> GameState:
        """The empty board, player 1 to move: one position, built on first
        use and shared by every game of these rules."""
        if self._initial is None:
            self._initial = self.position([0] * self._cell_count, 1)
        return self._initial

    def legal_moves(self, state: GameState) -> list[Move]:
        if self.status(state) is not None:
            return []
        return list(state.empty)

    def apply(self, state: GameState, move: Move) -> GameState:
        bits, mover, _, move_number, _, empty, groups = state
        if move.from_ is not None:
            raise IllegalMove("placement games take no move-from location")
        cell = move.to
        if not 0 <= cell < self._cell_count:
            raise IllegalMove(f"cell {cell} outside board")
        s = self._cells[cell][1]
        if (bits >> s) & self._chunk_mask:
            raise IllegalMove(f"cell {cell} is occupied")
        if self.status(state) is not None:
            raise IllegalMove("game is over")
        child = bits | mover << s  # the chunk was checked to be zero
        i = cell - ((bits | bits >> 1) & self._below[cell]).bit_count()
        move_number += 1
        result, groups = self._placed(child, groups, mover, cell, move_number)
        # Every field is given, so NamedTuple's argument handling is skipped.
        return tuple.__new__(GameState, (child, 3 - mover, move, move_number,
                                         result, empty[:i] + empty[i + 1:], groups))

    def status(self, state: GameState) -> int | None:
        return state.result

    def _scan_groups(self, bits: int) -> Groups | None:
        """The groups of the stones on the board ``bits``: None for a game
        that keeps none."""
        return None

    def _placed(self, bits: int, groups: Groups | None, mover: int, cell: int,
                move_number: int) -> tuple[int | None, Groups | None]:
        """The result and the groups once ``mover`` has placed on ``cell``,
        leaving the board ``bits`` after ``move_number`` moves, where
        ``groups`` were the groups before; the game was on before."""
        raise NotImplementedError


class HexRules(GameRules):
    """Hex: player 1 connects the r=0 and r=n-1 edges, player 2 the q=0 and
    q=n-1 edges.  No swap rule; drawless by the usual Hex argument."""

    def __init__(self, size: int):
        if size < 2:
            raise ValueError("hex board needs size >= 2")
        super().__init__(build_board(HexRhombus(size)))
        self.size = size
        self.name = f"hex{size}"
        n = size
        cells = self.graph.cell_count

        def mask(qr_pairs) -> int:
            return sum(1 << hex_cell(self.graph, q, r) for q, r in qr_pairs)

        # Per player (index p - 1): the bitmasks of its two edges.
        self._edges = (
            (mask((q, 0) for q in range(n)), mask((q, n - 1) for q in range(n))),
            (mask((0, r) for r in range(n)), mask((n - 1, r) for r in range(n))),
        )
        # Per cell: the bitmask of its on-board neighbours.
        self._adjacent = [
            sum(1 << c2 for c2 in self.graph.neighbors[c] if c2 >= 0) for c in range(cells)
        ]

    def _scan_groups(self, bits):
        groups = ((), ())
        for c, (_, s) in enumerate(self._cells):
            player = (bits >> s) & self._chunk_mask
            if player:
                groups = self._placed(bits, groups, player, c, 0)[1]
        return groups

    def _placed(self, bits, groups, mover, cell, move_number):
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
    """Place-to-make-4-in-a-row on a square board; full board is a draw."""

    def __init__(self, width: int, height: int):
        if width < 4 or height < 4:
            raise ValueError("line4 board needs width and height >= 4")
        super().__init__(build_board(Square(width, height)))
        self.width = width
        self.height = height
        self.name = f"line4-{width}x{height}"

        # Per cell, in cell order: for each line direction, the chunk shifts
        # of the up to three on-board cells forward and backward from it.
        self._rays = []
        for y in range(height):
            for x in range(width):
                pairs = []
                for dx, dy in _LINE4_DIRS:
                    pair = []
                    for sx, sy in ((dx, dy), (-dx, -dy)):
                        shifts = []
                        x2, y2 = x + sx, y + sy
                        while len(shifts) < 3 and 0 <= x2 < width and 0 <= y2 < height:
                            shifts.append(self._cells[y2 * width + x2][1])
                            x2, y2 = x2 + sx, y2 + sy
                        pair.append(tuple(shifts))
                    pairs.append(tuple(pair))
                self._rays.append(tuple(pairs))

    def _placed(self, bits, groups, player, cell, move_number):
        # A new line of four must run through the placed cell; three stones
        # on either side of it are as many as such a line can use.
        mask = self._chunk_mask
        for forward, backward in self._rays[cell]:
            run = 1
            for s in forward:
                if (bits >> s) & mask != player:
                    break
                run += 1
            for s in backward:
                if (bits >> s) & mask != player:
                    break
                run += 1
            if run >= 4:
                return player, None
        return (0 if move_number >= self._cell_count else None), None


def hex_rules(size: int) -> HexRules:
    return HexRules(size)


def line4_rules(width: int, height: int) -> Line4Rules:
    return Line4Rules(width, height)


def game_from_name(name: str) -> GameRules:
    """Registry lookup: ``hexN`` or ``line4-WxH`` (``line4`` = 7x7)."""
    name = name.strip().lower()
    if name.startswith("hex"):
        try:
            return hex_rules(int(name[3:]))
        except ValueError:
            raise ValueError(f"bad hex board name {name!r}; use e.g. hex7") from None
    if name == "line4":
        return line4_rules(7, 7)
    if name.startswith("line4-"):
        dims = name[6:].split("x")
        if len(dims) == 2:
            try:
                return line4_rules(int(dims[0]), int(dims[1]))
            except ValueError:
                pass
        raise ValueError(f"bad line4 board name {name!r}; use e.g. line4-7x7")
    raise ValueError(f"unknown game {name!r}; known: hexN, line4-WxH")
