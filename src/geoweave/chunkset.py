"""Bit-packed per-cell state with power-of-2 chunk widths.

Every cell's state value occupies one B-bit chunk, B being the lowest power
of 2 wide enough for the game's per-cell state count.  Because both B and
the word width are powers of 2, chunks never straddle word boundaries and a
whole position can be pattern-tested with one AND + compare per word.
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
    __slots__ = ("chunk_bits", "cell_count", "words")

    def __init__(self, chunk_bits: int, cell_count: int, words: list[int] | None = None):
        if chunk_bits < 1 or chunk_bits & (chunk_bits - 1):
            raise ChunkSetError(f"chunk_bits must be a power of 2, got {chunk_bits}")
        if chunk_bits > WORD_BITS:
            raise ChunkSetError(f"chunk_bits {chunk_bits} exceeds word width")
        if cell_count < 1:
            raise ChunkSetError("cell_count must be >= 1")
        self.chunk_bits = chunk_bits
        self.cell_count = cell_count
        n_words = -(-cell_count * chunk_bits // WORD_BITS)
        if words is None:
            self.words = [0] * n_words
        else:
            if len(words) != n_words:
                raise ChunkSetError(f"expected {n_words} words, got {len(words)}")
            self.words = list(words)

    @classmethod
    def from_values(cls, values, chunk_bits: int) -> "ChunkSet":
        out = cls(chunk_bits, len(values))
        for cell, v in enumerate(values):
            out.set(cell, v)
        return out

    @property
    def word_count(self) -> int:
        return len(self.words)

    def locate(self, cell: int) -> tuple[int, int]:
        """Word index and bit shift of the cell's chunk."""
        if not 0 <= cell < self.cell_count:
            raise ChunkSetError(f"cell {cell} out of range")
        bit = cell * self.chunk_bits
        return bit // WORD_BITS, bit % WORD_BITS

    def get(self, cell: int) -> int:
        if not 0 <= cell < self.cell_count:
            raise ChunkSetError(f"cell {cell} out of range")
        bit = cell * self.chunk_bits
        return (self.words[bit // WORD_BITS] >> bit % WORD_BITS) & ((1 << self.chunk_bits) - 1)

    def set(self, cell: int, value: int) -> "ChunkSet":
        if not 0 <= value < (1 << self.chunk_bits):
            raise ChunkSetError(f"value {value} does not fit in {self.chunk_bits} bits")
        w, shift = self.locate(cell)
        chunk_mask = ((1 << self.chunk_bits) - 1) << shift
        self.words[w] = (self.words[w] & ~chunk_mask & _WORD_MASK) | (value << shift)
        return self

    def values(self) -> list[int]:
        return [self.get(c) for c in range(self.cell_count)]

    def copy(self) -> "ChunkSet":
        # The source is valid already, so skip the checks in __init__.
        out = ChunkSet.__new__(ChunkSet)
        out.chunk_bits = self.chunk_bits
        out.cell_count = self.cell_count
        out.words = self.words.copy()
        return out

    def key(self) -> tuple:
        return (self.chunk_bits, self.cell_count, tuple(self.words))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChunkSet)
            and self.chunk_bits == other.chunk_bits
            and self.cell_count == other.cell_count
            and self.words == other.words
        )

    def __repr__(self) -> str:
        return f"ChunkSet(B={self.chunk_bits}, cells={self.cell_count})"


def _check_shapes(a: ChunkSet, b: ChunkSet, c: ChunkSet | None = None) -> None:
    sets = (a, b) if c is None else (a, b, c)
    if len({(s.chunk_bits, s.cell_count) for s in sets}) != 1:
        raise ChunkSetError("chunk sets differ in shape")


def matches(state: ChunkSet, mask: ChunkSet, target: ChunkSet, counter: list[int] | None = None) -> bool:
    """Word-parallel pattern test: (state & mask) == target on every word.

    Cost is one AND + compare per word regardless of how many cells the
    mask covers.  ``counter``, when given, accumulates the number of
    AND+compare pairs executed (instrumentation for the fast-path tests).
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
