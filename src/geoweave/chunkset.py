"""The chunk set: the bit layout of a position's board.

Every cell's state value occupies one B-bit chunk, B being the lowest power
of 2 wide enough for the game's per-cell state count.  A position's board
is one Python int, its chunk set: the chunk of cell c sits at bits
``[c*B, (c+1)*B)``, so a whole-board pattern test is one AND + compare
whatever the board size.

Chunk widths stay powers of 2 so that no chunk straddles a 64-bit word,
as no chunk would straddle a machine word in an engine that stores the
words; the tests' word-level reference reads boards through that view.

An int is never changed in place, so a board can be shared by every
position, game and caller that holds it.
"""

from __future__ import annotations


def required_bits(state_count: int) -> int:
    """Smallest power-of-2 chunk width whose 2^B values cover state_count."""
    if state_count < 1:
        raise ValueError("state_count must be >= 1")
    needed = max(1, (state_count - 1).bit_length())
    width = 1
    while width < needed:
        width *= 2
    return width
