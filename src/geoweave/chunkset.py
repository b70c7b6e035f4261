"""The chunk set: the bit layout of a position's board.

Every cell's value occupies one ``CHUNK_BITS``-bit chunk.  A cell is empty
(0) or holds a stone of one of the two players (1 or 2), so three values
need two bits.  A position's board is one Python int, its chunk set: the
chunk of cell c sits at bits ``[2c, 2c + 2)``, so a whole-board pattern
test is one AND + compare whatever the board size.

The width is a power of 2, so no chunk straddles a 64-bit word, as no
chunk would straddle a machine word in an engine that stores the words;
the tests' word-level reference reads boards through that view.

An int is never changed in place, so a board can be shared by every
position, game and caller that holds it.
"""

CHUNK_BITS = 2
# One cell's chunk at bit 0: shifted to cell c, it selects that cell's value.
CHUNK_MASK = (1 << CHUNK_BITS) - 1
