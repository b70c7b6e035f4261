"""Built-in games: Hex on the rhombus board and Line4 on the square board.

Both are placement games for two players; every feature mechanism the
engine supports (reactive/proactive, rotations, off-board elements, the
move-from action channel) is exercised against these rules in the tests.

``apply`` decides the result once, from the stone it places (its Hex
group or its Line4 runs): it refuses every move after the game ends, so
a new win must pass through that stone.  ``status`` reads the recorded
result back: None while the game is ongoing, 0 for a draw and the
winning player id otherwise.

The position also carries its empty cells: ``initial_state`` lists every
cell's shared ``Move`` in cell order, and ``apply`` hands the child that
tuple minus the placed cell, so ``legal_moves`` copies it instead of
scanning the board.  A ``GameState`` built by hand is taken to be in play
unless its ``result`` is given, and its empty cells are scanned from its
board unless ``empty`` is given; change a board by hand only before the
state that holds it is built.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .board import BoardGraph, HexRhombus, Square, build_board, hex_cell
from .chunkset import ChunkSet, required_bits


class IllegalMove(ValueError):
    pass


@dataclass(frozen=True)
class Move:
    to: int
    from_: int | None = None


_TO = attrgetter("to")


class GameState(NamedTuple):
    """A position; ``result`` is what ``apply`` decided on reaching it and
    ``empty`` the ``Move``s of its empty cells in cell order (None: scan
    the board)."""

    board: ChunkSet
    mover: int
    last_move: Move | None
    move_number: int
    result: int | None = None
    empty: tuple[Move, ...] | None = None


class GameRules:
    """Shared plumbing for two-player placement games."""

    name: str
    player_count = 2

    def __init__(self, graph: BoardGraph):
        self.graph = graph
        self.state_count = self.player_count + 1
        self.chunk_bits = required_bits(self.state_count)
        self._chunk_mask = (1 << self.chunk_bits) - 1
        # Per cell: its one shared Move and where its chunk sits in the words.
        layout = ChunkSet(self.chunk_bits, graph.cell_count)
        self._cells = [(Move(c), *layout.locate(c)) for c in range(graph.cell_count)]

    def initial_state(self) -> GameState:
        board = ChunkSet(self.chunk_bits, self.graph.cell_count)
        return GameState(board, 1, None, 0, None, self._empty_moves(board))

    def _empty_moves(self, board: ChunkSet) -> tuple[Move, ...]:
        words, mask = board.words, self._chunk_mask
        return tuple(m for m, w, s in self._cells if not (words[w] >> s) & mask)

    def legal_moves(self, state: GameState) -> list[Move]:
        if self.status(state) is not None:
            return []
        empty = state.empty
        return list(empty if empty is not None else self._empty_moves(state.board))

    def apply(self, state: GameState, move: Move) -> GameState:
        if move.from_ is not None:
            raise IllegalMove("placement games take no move-from location")
        cell = move.to
        if not 0 <= cell < self.graph.cell_count:
            raise IllegalMove(f"cell {cell} outside board")
        _, w, s = self._cells[cell]
        if (state.board.words[w] >> s) & self._chunk_mask:
            raise IllegalMove(f"cell {cell} is occupied")
        if self.status(state) is not None:
            raise IllegalMove("game is over")
        board = state.board.copy()
        board.words[w] |= state.mover << s  # the chunk was checked to be zero
        empty = state.empty
        if empty is None:
            empty = self._empty_moves(board)
        else:
            i = bisect_left(empty, cell, key=_TO)
            empty = empty[:i] + empty[i + 1:]
        move_number = state.move_number + 1
        result = self._result_after(board, cell, state.mover, move_number)
        return GameState(board, 3 - state.mover, move, move_number, result, empty)

    def status(self, state: GameState) -> int | None:
        return state.result

    def _result_after(self, board: ChunkSet, cell: int, player: int, move_number: int) -> int | None:
        """The result once ``player`` has placed on ``cell``, leaving ``board``
        after ``move_number`` moves, given that the game was on before."""
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
        self._edges = {
            1: ({hex_cell(self.graph, q, 0) for q in range(n)},
                {hex_cell(self.graph, q, n - 1) for q in range(n)}),
            2: ({hex_cell(self.graph, 0, r) for r in range(n)},
                {hex_cell(self.graph, n - 1, r) for r in range(n)}),
        }
        # Per cell: (neighbour, word, shift) for each on-board neighbour.
        self._near = [
            tuple((n, *self._cells[n][1:]) for n in self.graph.neighbors[c] if n >= 0)
            for c in range(self.graph.cell_count)
        ]

    def _result_after(self, board: ChunkSet, cell: int, player: int, move_number: int) -> int | None:
        # Flood-fill the placed stone's group; it wins if it spans both edges.
        near, words, mask = self._near, board.words, self._chunk_mask
        group = {cell}
        stack = [cell]
        while stack:
            for n, w, s in near[stack.pop()]:
                if n not in group and (words[w] >> s) & mask == player:
                    group.add(n)
                    stack.append(n)
        first, second = self._edges[player]
        if group.isdisjoint(first) or group.isdisjoint(second):
            return None
        return player


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

    def _value(self, board: ChunkSet, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            return 0
        _, w, s = self._cells[y * self.width + x]
        return (board.words[w] >> s) & self._chunk_mask

    def _result_after(self, board: ChunkSet, cell: int, player: int, move_number: int) -> int | None:
        # A new line of four must run through the placed cell.
        x, y = cell % self.width, cell // self.width
        for dx, dy in _LINE4_DIRS:
            run = 1
            for sx, sy in ((dx, dy), (-dx, -dy)):
                k = 1
                while self._value(board, x + k * sx, y + k * sy) == player:
                    run += 1
                    k += 1
            if run >= 4:
                return player
        return 0 if move_number >= self.graph.cell_count else None


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
