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

The position also carries its empty cells: ``initial_state`` lists every
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

A ``GameState`` built by hand is taken to be in play unless its
``result`` is given, and its empty cells and groups are scanned from its
board unless ``empty`` and ``groups`` are given; change a board by hand
only before the state that holds it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .board import BoardGraph, HexRhombus, Square, build_board, hex_cell
from .chunkset import ChunkSet, required_bits


class IllegalMove(ValueError):
    pass


@dataclass(frozen=True)
class Move:
    to: int
    from_: int | None = None


# Per player, the bitmask of each of its connected groups (Hex only).
Groups = tuple[tuple[int, ...], tuple[int, ...]]


class GameState(NamedTuple):
    """A position; ``result`` is what ``apply`` decided on reaching it,
    ``empty`` the ``Move``s of its empty cells in cell order and ``groups``
    each player's groups (None: scan the board)."""

    board: ChunkSet
    mover: int
    last_move: Move | None
    move_number: int
    result: int | None = None
    empty: tuple[Move, ...] | None = None
    groups: Groups | None = None


class GameRules:
    """Shared plumbing for two-player placement games."""

    name: str
    player_count = 2
    _initial_groups: Groups | None = None

    def __init__(self, graph: BoardGraph):
        self.graph = graph
        self.state_count = self.player_count + 1
        self.chunk_bits = required_bits(self.state_count)
        assert self.chunk_bits == 2, "apply folds each 2-bit chunk onto its low bit"
        self._chunk_mask = (1 << self.chunk_bits) - 1
        cells = graph.cell_count
        self._cell_count = cells
        # Per cell: its one shared Move and the shift of its chunk in the board.
        self._cells = [(Move(c), c * self.chunk_bits) for c in range(cells)]
        # Per cell: the low bit of every chunk below its own (0b01 repeated).
        low = ((1 << 2 * cells) - 1) // 3
        self._below = [low & ((1 << s) - 1) for _, s in self._cells]

    def initial_state(self) -> GameState:
        board = ChunkSet(self.chunk_bits, self.graph.cell_count)
        return GameState(board, 1, None, 0, None, self._empty_moves(board), self._initial_groups)

    def _empty_moves(self, board: ChunkSet) -> tuple[Move, ...]:
        bits, mask = board.bits, self._chunk_mask
        return tuple(m for m, s in self._cells if not (bits >> s) & mask)

    def legal_moves(self, state: GameState) -> list[Move]:
        if self.status(state) is not None:
            return []
        empty = state.empty
        return list(empty if empty is not None else self._empty_moves(state.board))

    def apply(self, state: GameState, move: Move) -> GameState:
        parent, mover, _, move_number, _, empty, _ = state
        if move.from_ is not None:
            raise IllegalMove("placement games take no move-from location")
        cell = move.to
        if not 0 <= cell < self._cell_count:
            raise IllegalMove(f"cell {cell} outside board")
        bits = parent.bits
        s = self._cells[cell][1]
        if (bits >> s) & self._chunk_mask:
            raise IllegalMove(f"cell {cell} is occupied")
        if self.status(state) is not None:
            raise IllegalMove("game is over")
        board = parent.with_bits(bits | mover << s)  # the chunk was checked to be zero
        if empty is None:
            empty = self._empty_moves(board)
        else:
            i = cell - ((bits | bits >> 1) & self._below[cell]).bit_count()
            empty = empty[:i] + empty[i + 1:]
        move_number += 1
        result, groups = self._placed(state, board, cell, move_number)
        # Every field is given, so NamedTuple's argument handling is skipped.
        return tuple.__new__(GameState, (board, 3 - mover, move, move_number, result, empty, groups))

    def status(self, state: GameState) -> int | None:
        return state.result

    def _placed(self, state: GameState, board: ChunkSet, cell: int,
                move_number: int) -> tuple[int | None, Groups | None]:
        """The result and the child's groups once ``state.mover`` has placed
        on ``cell``, leaving ``board`` after ``move_number`` moves, given
        that the game was on before."""
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

    _initial_groups = ((), ())

    def _join(self, groups: tuple[int, ...], cell: int) -> tuple[int, tuple[int, ...]]:
        """``cell`` added to one player's ``groups``: the merged group and
        the new tuple (the untouched groups, then the merged one)."""
        adjacent = self._adjacent[cell]
        merged = 1 << cell
        kept = []
        for g in groups:
            if g & adjacent:
                merged |= g
            else:
                kept.append(g)
        kept.append(merged)
        return merged, tuple(kept)

    def _scan_groups(self, board: ChunkSet) -> Groups:
        groups = [(), ()]
        bits, mask = board.bits, self._chunk_mask
        for c, (_, s) in enumerate(self._cells):
            player = (bits >> s) & mask
            if player:
                groups[player - 1] = self._join(groups[player - 1], c)[1]
        return tuple(groups)

    def _placed(self, state, board, cell, move_number):
        groups = state.groups
        if groups is None:
            groups = self._scan_groups(state.board)
        mover = state.mover
        # ``_join(groups[mover - 1], cell)``, inlined for the playout ply.
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

    def _placed(self, state, board, cell, move_number):
        # A new line of four must run through the placed cell; three stones
        # on either side of it are as many as such a line can use.
        player = state.mover
        bits = board.bits
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
