import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoweave.chunkset import ChunkSet, ChunkSetError, matches, required_bits, violates
from geoweave.instancer import FeatureInstance, _negative_probes, match_instance


def test_required_bits():
    assert required_bits(3) == 2  # empty + two colours
    assert required_bits(2) == 1
    assert required_bits(5) == 4  # 3 bits rounded up to a power of 2
    assert required_bits(1) == 1
    assert required_bits(16) == 4
    assert required_bits(17) == 8
    with pytest.raises(ChunkSetError):
        required_bits(0)


def test_chunk_bits_validation():
    with pytest.raises(ChunkSetError):
        ChunkSet(3, 10)
    with pytest.raises(ChunkSetError):
        ChunkSet(128, 10)
    ChunkSet(1, 1)


def test_set_get_round_trip_all_values():
    """Each value of each chunk width, set at each cell through
    ``from_values``, reads back through ``get`` and ``values``."""
    for bits in (1, 2, 4, 8):
        for cell in range(37):
            for v in range(1 << bits):
                values = [0] * 37
                values[cell] = v
                s = ChunkSet.from_values(values, bits)
                assert s.get(cell) == v
                assert s.values() == values


def test_set_leaves_other_cells_alone():
    s = ChunkSet.from_values([0] * 40 + [3, 1] + [0] * 58, 2)
    assert s.get(40) == 3
    assert s.get(41) == 1
    assert all(s.get(c) == 0 for c in range(100) if c not in (40, 41))


def test_all_zero_means_empty_everywhere():
    s = ChunkSet(2, 50)
    assert all(s.get(c) == 0 for c in range(50))


def test_value_out_of_range():
    for bits, bad in ((1, 2), (2, 4), (2, -1), (4, 16)):
        with pytest.raises(ChunkSetError, match="does not fit"):
            ChunkSet.from_values([0, bad, 0], bits)
    with pytest.raises(ChunkSetError):
        ChunkSet(2, 4).get(4)


def test_unused_trailing_bits_stay_zero():
    s = ChunkSet.from_values([3] * 33, 2)  # 66 bits -> 2 words, 62 unused in the last
    assert s.words[1] >> 2 == 0


def test_matches_trivial_cases():
    state = ChunkSet.from_values([0, 0, 0, 1, 0, 0, 0, 2] + [0] * 12, 2)
    zero_mask = ChunkSet(2, 20)
    assert matches(state, zero_mask, ChunkSet(2, 20))  # vacuous constraint
    full_mask = ChunkSet.from_values([3] * 20, 2)
    assert matches(state, full_mask, state)


def test_matches_shape_mismatch():
    with pytest.raises(ChunkSetError):
        matches(ChunkSet(2, 10), ChunkSet(2, 11), ChunkSet(2, 10))
    with pytest.raises(ChunkSetError):
        matches(ChunkSet(2, 10), ChunkSet(4, 10), ChunkSet(4, 10))


def test_matches_flipped_cell_detected():
    rng = random.Random(5)
    cells = 60
    values = [rng.randrange(4) for _ in range(cells)]
    picked = rng.sample(range(cells), 5)
    mask = ChunkSet.from_values([3 if c in picked else 0 for c in range(cells)], 2)
    target = ChunkSet.from_values([values[c] if c in picked else 0 for c in range(cells)], 2)
    assert matches(ChunkSet.from_values(values, 2), mask, target)
    victim = picked[2]
    values[victim] = (values[victim] + 1) % 4
    assert not matches(ChunkSet.from_values(values, 2), mask, target)


def naive_matches(state, mask, target):
    # Per-cell reference: selected bits of each cell equal the target bits.
    for c in range(state.cell_count):
        if state.get(c) & mask.get(c) != target.get(c):
            return False
    return True


def test_matches_agrees_with_naive_interpreter():
    rng = random.Random(99)
    agree = 0
    for _ in range(10_000):
        cells = rng.randrange(1, 70)
        bits = rng.choice((1, 2, 4))
        state = ChunkSet.from_values([rng.randrange(1 << bits) for _ in range(cells)], bits)
        mask_values = [0] * cells
        target_values = [0] * cells
        for c in rng.sample(range(cells), rng.randrange(cells + 1)):
            m = rng.randrange(1 << bits)
            mask_values[c] = m
            # Bias half the triples toward matching targets.
            t = state.get(c) & m if rng.random() < 0.5 else rng.randrange(1 << bits) & m
            target_values[c] = t
        mask = ChunkSet.from_values(mask_values, bits)
        target = ChunkSet.from_values(target_values, bits)
        assert matches(state, mask, target) == naive_matches(state, mask, target)
        agree += 1
    assert agree == 10_000


def test_matching_cost_is_one_op_per_word():
    state = ChunkSet(2, 200)  # 400 bits -> 7 words
    mask = ChunkSet(2, 200).with_bits(3 << 123 * 2)  # mask support size is irrelevant to the cost
    target = ChunkSet(2, 200)
    counter = [0]
    assert matches(state, mask, target, counter)
    assert counter[0] == state.word_count == 7


def test_violates():
    s = ChunkSet.from_values([0, 0, 0, 0, 2, 0, 0, 0, 0, 0], 2)
    assert violates(s, 4, 2)
    assert not violates(s, 4, 3)
    assert violates(s, 5, 0)  # empty cell, forbidden empty
    with pytest.raises(ChunkSetError):
        violates(s, 4, 4)


def test_with_bits_leaves_the_board_alone():
    """A board is never changed in place: ``with_bits`` makes a new one,
    and no method sets a cell."""
    a = ChunkSet(2, 8)
    b = a.with_bits(3)
    assert (a.get(0), b.get(0)) == (0, 3)
    assert a != b
    assert a == a.with_bits(a.bits) and a.with_bits(a.bits) is not a
    assert not hasattr(ChunkSet, "set") and not hasattr(ChunkSet, "copy")


def test_words_outside_a_64_bit_word_are_rejected():
    # Packed, bit 64 of word 0 would become cell 32.
    with pytest.raises(ChunkSetError, match="outside"):
        ChunkSet(2, 40, [1 << 64 | 3, 0])
    with pytest.raises(ChunkSetError, match="outside"):
        ChunkSet(2, 40, [-1, 0])
    assert ChunkSet(2, 40, [(1 << 64) - 1, 0]).get(31) == 3


def test_words_setting_bits_beyond_the_cells_are_rejected():
    # 40 cells of 2 bits: word 1 holds bits 64..79 only.
    with pytest.raises(ChunkSetError, match="beyond"):
        ChunkSet(2, 40, [0, 1 << 16])
    with pytest.raises(ChunkSetError, match="beyond"):
        ChunkSet(1, 3, [1 << 3])
    assert ChunkSet(2, 40, [0, (1 << 16) - 1]).get(39) == 3


# (chunk bits, cells) of boards of 1, 2, 3 and 7 words.
SHAPES = ((2, 20), (1, 64), (2, 49), (4, 20), (2, 81), (1, 130), (2, 200), (8, 50))


@st.composite
def packed_words(draw):
    """A board shape and words for it, the bits past the last cell clear."""
    chunk_bits, cells = draw(st.sampled_from(SHAPES))
    used = cells * chunk_bits
    words = [draw(st.integers(0, (1 << 64) - 1)) for _ in range(-(-used // 64))]
    words[-1] &= (1 << (used - 64 * (len(words) - 1))) - 1
    return chunk_bits, cells, words


@settings(max_examples=300, deadline=None)
@given(packed_words())
def test_words_and_values_round_trip(case):
    chunk_bits, cells, words = case
    board = ChunkSet(chunk_bits, cells, words)
    assert board.words == words and board.word_count == len(words)
    # Each cell decoded from its own word: no chunk straddles two.
    full = (1 << chunk_bits) - 1
    decoded = [(words[c * chunk_bits // 64] >> c * chunk_bits % 64) & full for c in range(cells)]
    assert board.values() == decoded
    assert ChunkSet.from_values(decoded, chunk_bits) == board


def packed_instance(mask, target, negative_tests):
    """An instance holding only the tests ``match_instance`` reads, packed
    as ``instantiate`` packs them."""
    return FeatureInstance(
        feature=None, anchor=0, start_dir=0, reflected=False,
        mask=mask.bits, target=target.bits, negative_tests=negative_tests,
        negative_probes=_negative_probes(mask.chunk_bits, negative_tests),
        element_sites=(), action_to=0, action_from=None, last_move_cell=None, weight=1.0,
    )


@st.composite
def packed_case(draw):
    """A random board, and positive and negated chunk tests on it that
    agree with the board about half the time."""
    chunk_bits, cells = draw(st.sampled_from(SHAPES))
    top = (1 << chunk_bits) - 1
    values = draw(st.lists(st.integers(0, top), min_size=cells, max_size=cells))
    # The cells on both sides of each word boundary (31 and 32 at B=2) are
    # drawn more often than the others.
    per_word = 64 // chunk_bits
    edges = [c for k in range(per_word, cells, per_word) for c in (k - 1, k)]
    cell = st.integers(0, cells - 1)
    if edges:
        cell = st.one_of(cell, st.sampled_from(edges))

    def test_value(c):
        return st.one_of(st.just(values[c]), st.integers(0, top))

    positives = {}
    for c in draw(st.lists(cell, max_size=6)):
        positives[c] = draw(test_value(c))
    negatives = set()
    for c in draw(st.lists(cell, max_size=4)):
        negatives.add((c, draw(test_value(c))))
    return ChunkSet.from_values(values, chunk_bits), positives, tuple(sorted(negatives))


# Cells 31 and 32 hold 1 and 2, on both sides of the first word boundary.
_EDGE = ChunkSet.from_values([0] * 31 + [1, 2] + [0] * 7, 2)


@settings(max_examples=600, deadline=None)
@given(packed_case())
@example((_EDGE, {31: 1, 32: 2}, ()))
@example((_EDGE, {31: 1, 32: 3}, ()))
@example((_EDGE, {31: 2, 32: 2}, ()))
@example((_EDGE, {}, ((31, 0), (32, 0))))
@example((_EDGE, {}, ((31, 1),)))
@example((_EDGE, {31: 1}, ((32, 2),)))
def test_packed_test_agrees_with_the_word_oracle(case):
    """``match_instance`` equals ``matches`` word by word plus ``violates``
    cell by cell."""
    board, positives, negatives = case
    full = (1 << board.chunk_bits) - 1
    cells = range(board.cell_count)
    mask = ChunkSet.from_values([full if c in positives else 0 for c in cells], board.chunk_bits)
    target = ChunkSet.from_values([positives.get(c, 0) for c in cells], board.chunk_bits)
    want = matches(board, mask, target) and not any(violates(board, c, v) for c, v in negatives)
    assert match_instance(packed_instance(mask, target, negatives), board.bits) == want
