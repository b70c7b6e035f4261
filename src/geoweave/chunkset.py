"""Bit-packed per-cell state with power-of-2 chunk widths.

Every cell's state value occupies one B-bit chunk, B being the lowest power
of 2 wide enough for the game's per-cell state count.  A position is one
Python int, ``bits``: the chunk of cell c sits at bits ``[c*B, (c+1)*B)``,
so a whole-board pattern test is one AND + compare whatever the board size.

The 64-bit ``words`` view is for display and for the word-level oracle
(``matches``).  Chunk widths stay powers of 2 so that no chunk straddles a
word of that view, as no chunk would straddle a machine word in an engine
that stores the words.

A board is never changed in place: a new position gets a new ``ChunkSet``
(``from_values``, ``with_bits``), so a board can be shared by every
position, game and caller that holds it.
"""

from __future__ import annotations

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


class ChunkSetError(ValueError):
    pass


def required_bits(state_count: int) -> int:
    """Smallest power-of-2 chunk width whose 2^B values cover state_count."""
    if state_count < 1:
        raise ChunkSetError("state_count must be >= 1")
    needed = max(1, (state_count - 1).bit_length())
    width = 1
    while width < needed:
        width *= 2
    return width


class ChunkSet:
    __slots__ = ("chunk_bits", "cell_count", "bits")

    def __init__(self, chunk_bits: int, cell_count: int, words: list[int] | None = None):
        if chunk_bits < 1 or chunk_bits & (chunk_bits - 1):
            raise ChunkSetError(f"chunk_bits must be a power of 2, got {chunk_bits}")
        if chunk_bits > WORD_BITS:
            raise ChunkSetError(f"chunk_bits {chunk_bits} exceeds word width")
        if cell_count < 1:
            raise ChunkSetError("cell_count must be >= 1")
        self.chunk_bits = chunk_bits
        self.cell_count = cell_count
        self.bits = 0
        if words is not None:
            if len(words) != self.word_count:
                raise ChunkSetError(f"expected {self.word_count} words, got {len(words)}")
            bits = 0
            for i, word in enumerate(words):
                if not 0 <= word <= _WORD_MASK:
                    raise ChunkSetError(f"word {i} is {word}, outside [0, 2**{WORD_BITS})")
                bits |= word << i * WORD_BITS
            if bits >> cell_count * chunk_bits:
                raise ChunkSetError(f"words set bits beyond the {cell_count} cells")
            self.bits = bits

    @classmethod
    def from_values(cls, values, chunk_bits: int) -> "ChunkSet":
        out = cls(chunk_bits, len(values))
        bits = 0
        for cell, v in enumerate(values):
            if not 0 <= v < (1 << chunk_bits):
                raise ChunkSetError(f"value {v} does not fit in {chunk_bits} bits")
            bits |= v << cell * chunk_bits
        out.bits = bits
        return out

    @property
    def word_count(self) -> int:
        return -(-self.cell_count * self.chunk_bits // WORD_BITS)

    @property
    def words(self) -> list[int]:
        """The position as 64-bit words, lowest first: a new list on each
        read, so writing to it leaves the position unchanged."""
        bits = self.bits
        return [(bits >> i * WORD_BITS) & _WORD_MASK for i in range(self.word_count)]

    def get(self, cell: int) -> int:
        if not 0 <= cell < self.cell_count:
            raise ChunkSetError(f"cell {cell} out of range")
        return (self.bits >> cell * self.chunk_bits) & ((1 << self.chunk_bits) - 1)

    def values(self) -> list[int]:
        return [self.get(c) for c in range(self.cell_count)]

    def with_bits(self, bits: int) -> "ChunkSet":
        """A chunk set of this shape holding ``bits``, which the caller
        keeps within the cells: the checks in __init__ are skipped."""
        out = ChunkSet.__new__(ChunkSet)
        out.chunk_bits = self.chunk_bits
        out.cell_count = self.cell_count
        out.bits = bits
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChunkSet)
            and self.chunk_bits == other.chunk_bits
            and self.cell_count == other.cell_count
            and self.bits == other.bits
        )

    def __repr__(self) -> str:
        return f"ChunkSet(B={self.chunk_bits}, cells={self.cell_count})"


def _check_shapes(a: ChunkSet, b: ChunkSet, c: ChunkSet | None = None) -> None:
    sets = (a, b) if c is None else (a, b, c)
    if len({(s.chunk_bits, s.cell_count) for s in sets}) != 1:
        raise ChunkSetError("chunk sets differ in shape")


def matches(state: ChunkSet, mask: ChunkSet, target: ChunkSet, counter: list[int] | None = None) -> bool:
    """Word-level pattern test: (state & mask) == target on every 64-bit
    word of the ``words`` view.

    The engine tests the whole-board int at once (``match_instance``); this
    word loop is the slow reference the tests check it against.
    ``counter``, when given, accumulates the number of AND+compare pairs
    executed: one per word regardless of how many cells the mask covers.
    """
    _check_shapes(state, mask, target)
    sw, mw, tw = state.words, mask.words, target.words
    for i in range(len(sw)):
        if counter is not None:
            counter[0] += 1
        if sw[i] & mw[i] != tw[i]:
            return False
    return True


def violates(state: ChunkSet, cell: int, forbidden: int) -> bool:
    """True when the cell holds exactly the forbidden chunk value."""
    if not 0 <= forbidden < (1 << state.chunk_bits):
        raise ChunkSetError(f"forbidden value {forbidden} out of chunk range")
    return state.get(cell) == forbidden
