"""The chunk-set layout (``geoweave.chunkset``) and the word-level
reference in ``oracles``, against which ``match_instance`` is checked."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoweave.instancer import FeatureInstance, match_instance
from oracles import matches, pack_values, unpack_values, violates, word_count, words


def get(bits, chunk_bits, cell):
    return (bits >> cell * chunk_bits) & ((1 << chunk_bits) - 1)


def test_set_get_round_trip_all_values():
    """Each value of each chunk width, packed at each cell, reads back
    from its chunk and through ``unpack_values``."""
    for bits in (1, 2, 4, 8):
        for cell in range(37):
            for v in range(1 << bits):
                values = [0] * 37
                values[cell] = v
                s = pack_values(values, bits)
                assert get(s, bits, cell) == v
                assert unpack_values(s, bits, 37) == values


def test_set_leaves_other_cells_alone():
    s = pack_values([0] * 40 + [3, 1] + [0] * 58, 2)
    assert get(s, 2, 40) == 3
    assert get(s, 2, 41) == 1
    assert all(get(s, 2, c) == 0 for c in range(100) if c not in (40, 41))


def test_all_zero_means_empty_everywhere():
    assert pack_values([0] * 50, 2) == 0
    assert unpack_values(0, 2, 50) == [0] * 50


def test_unused_trailing_bits_stay_zero():
    s = pack_values([3] * 33, 2)  # 66 bits -> 2 words, 62 unused in the last
    assert words(s, 2, 33)[1] >> 2 == 0


def test_matches_trivial_cases():
    state = pack_values([0, 0, 0, 1, 0, 0, 0, 2] + [0] * 12, 2)
    assert matches(state, 0, 0, 2, 20)  # vacuous constraint
    full_mask = pack_values([3] * 20, 2)
    assert matches(state, full_mask, state, 2, 20)


def test_matches_flipped_cell_detected():
    rng = random.Random(5)
    cells = 60
    values = [rng.randrange(4) for _ in range(cells)]
    picked = rng.sample(range(cells), 5)
    mask = pack_values([3 if c in picked else 0 for c in range(cells)], 2)
    target = pack_values([values[c] if c in picked else 0 for c in range(cells)], 2)
    assert matches(pack_values(values, 2), mask, target, 2, cells)
    victim = picked[2]
    values[victim] = (values[victim] + 1) % 4
    assert not matches(pack_values(values, 2), mask, target, 2, cells)


def naive_matches(state, mask, target, bits, cells):
    # Per-cell reference: selected bits of each cell equal the target bits.
    for c in range(cells):
        if get(state, bits, c) & get(mask, bits, c) != get(target, bits, c):
            return False
    return True


def test_matches_agrees_with_naive_interpreter():
    rng = random.Random(99)
    agree = 0
    for _ in range(10_000):
        cells = rng.randrange(1, 70)
        bits = rng.choice((1, 2, 4))
        values = [rng.randrange(1 << bits) for _ in range(cells)]
        state = pack_values(values, bits)
        mask_values = [0] * cells
        target_values = [0] * cells
        for c in rng.sample(range(cells), rng.randrange(cells + 1)):
            m = rng.randrange(1 << bits)
            mask_values[c] = m
            # Bias half the triples toward matching targets.
            t = values[c] & m if rng.random() < 0.5 else rng.randrange(1 << bits) & m
            target_values[c] = t
        mask = pack_values(mask_values, bits)
        target = pack_values(target_values, bits)
        shape = (bits, cells)
        assert matches(state, mask, target, *shape) == naive_matches(state, mask, target, *shape)
        agree += 1
    assert agree == 10_000


def test_matching_cost_is_one_op_per_word():
    mask = 3 << 123 * 2  # mask support size is irrelevant to the cost
    counter = [0]
    assert matches(0, mask, 0, 2, 200, counter)  # 400 bits -> 7 words
    assert counter[0] == word_count(2, 200) == 7


def test_violates():
    s = pack_values([0, 0, 0, 0, 2, 0, 0, 0, 0, 0], 2)
    assert violates(s, 2, 4, 2)
    assert not violates(s, 2, 4, 3)
    assert violates(s, 2, 5, 0)  # empty cell, forbidden empty
    with pytest.raises(ValueError):
        violates(s, 2, 4, 4)


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
    chunk_bits, cells, board_words = case
    board = sum(w << 64 * i for i, w in enumerate(board_words))
    assert words(board, chunk_bits, cells) == board_words
    assert word_count(chunk_bits, cells) == len(board_words)
    # Each cell decoded from its own word: no chunk straddles two.
    full = (1 << chunk_bits) - 1
    decoded = [(board_words[c * chunk_bits // 64] >> c * chunk_bits % 64) & full for c in range(cells)]
    assert unpack_values(board, chunk_bits, cells) == decoded
    assert pack_values(decoded, chunk_bits) == board


def packed_instance(chunk_bits, mask, target, negative_tests):
    """An instance holding only the tests ``match_instance`` reads, packed
    as ``instantiate`` packs them but with ``chunk_bits``-bit chunks."""
    full = (1 << chunk_bits) - 1
    return FeatureInstance(
        features=(), anchor=0, start_dir=0, reflected=False,
        mask=mask, target=target, negative_tests=negative_tests,
        negative_probes=tuple((full << c * chunk_bits, v << c * chunk_bits) for c, v in negative_tests),
        element_sites=(), action_to=0, last_move_cell=None, number=0,
    )


@st.composite
def packed_case(draw):
    """A board shape, a random board of it, and positive and negated chunk
    tests on it that agree with the board about half the time."""
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
    return chunk_bits, cells, pack_values(values, chunk_bits), positives, tuple(sorted(negatives))


# Cells 31 and 32 hold 1 and 2, on both sides of the first word boundary.
_EDGE = (2, 40, pack_values([0] * 31 + [1, 2] + [0] * 7, 2))


@settings(max_examples=600, deadline=None)
@given(packed_case())
@example((*_EDGE, {31: 1, 32: 2}, ()))
@example((*_EDGE, {31: 1, 32: 3}, ()))
@example((*_EDGE, {31: 2, 32: 2}, ()))
@example((*_EDGE, {}, ((31, 0), (32, 0))))
@example((*_EDGE, {}, ((31, 1),)))
@example((*_EDGE, {31: 1}, ((32, 2),)))
def test_packed_test_agrees_with_the_word_oracle(case):
    """``match_instance`` equals ``matches`` word by word plus ``violates``
    cell by cell."""
    chunk_bits, cell_count, board, positives, negatives = case
    full = (1 << chunk_bits) - 1
    cells = range(cell_count)
    mask = pack_values([full if c in positives else 0 for c in cells], chunk_bits)
    target = pack_values([positives.get(c, 0) for c in cells], chunk_bits)
    want = matches(board, mask, target, chunk_bits, cell_count) and not any(
        violates(board, chunk_bits, c, v) for c, v in negatives)
    assert match_instance(packed_instance(chunk_bits, mask, target, negatives), board) == want
