import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoweave as gw
from geoweave.games import GameState, IllegalMove, Move
from geoweave.rng import SplitMix64
from oracles import (
    board_values,
    empty_slot_oracle,
    hex_groups_oracle,
    hex_win_bfs,
    minimax_winner,
    pack_values,
    status_oracle,
    words,
)


def empty_cells(rules, state):
    return [c for c, v in enumerate(board_values(rules, state)) if v == 0]


def carried_groups(state):
    """The position's carried groups in the oracle's form (sorted lists)."""
    return tuple(sorted(g) for g in state.groups)


def play(rules, state, *cells):
    for c in cells:
        state = rules.apply(state, Move(c))
    return state


def test_legal_moves_on_empty_board():
    for rules in (gw.hex_rules(5), gw.line4_rules(5, 4)):
        state = rules.initial_state()
        legal = rules.legal_moves(state)
        assert len(legal) == rules.graph.cell_count
        assert legal == sorted(legal, key=lambda m: m.to)


def test_apply_basics():
    rules = gw.line4_rules(4, 4)
    s0 = rules.initial_state()
    s1 = rules.apply(s0, Move(5))
    assert s1.last_move == Move(5)
    assert s1.mover == 2 and s0.mover == 1
    assert s1.move_number == 1
    assert len(rules.legal_moves(s1)) == len(rules.legal_moves(s0)) - 1
    assert board_values(rules, s0)[5] == 0  # copy-on-apply: input state untouched
    with pytest.raises(IllegalMove):
        rules.apply(s1, Move(5))
    with pytest.raises(IllegalMove):
        rules.apply(s1, Move(99))
    with pytest.raises(IllegalMove):
        rules.apply(s1, Move(3, from_=2))


def test_line4_row_win():
    rules = gw.line4_rules(5, 5)
    state = rules.initial_state()
    # P1 fills (0..3, 0) while P2 plays on row 2.
    state = play(rules, state, 0, 10, 1, 11, 2, 12, 3)
    assert rules.status(state) == 1


def test_line4_diagonal_win():
    rules = gw.line4_rules(5, 5)
    state = rules.initial_state()
    state = play(rules, state, 0, 1, 6, 2, 12, 3, 18)
    assert rules.status(state) == 1  # (0,0),(1,1),(2,2),(3,3)


def test_line4_three_is_not_a_win():
    rules = gw.line4_rules(5, 5)
    state = play(rules, rules.initial_state(), 0, 10, 1, 11, 2)
    assert rules.status(state) is None


def test_line4_full_board_draw_exists():
    """Exhaustive search finds a filled 4x4 board with no line of four."""
    rules = gw.line4_rules(4, 4)

    def extend(state):
        if rules.status(state) == 0:
            return state
        if rules.status(state) is not None:
            return None
        for move in rules.legal_moves(state):
            found = extend(rules.apply(state, move))
            if found is not None:
                return found
        return None

    draw = extend(rules.initial_state())
    assert draw is not None
    assert draw.move_number == 16
    assert rules.status(draw) == 0


def test_hex_no_draws_when_full():
    rules = gw.hex_rules(3)
    rng = SplitMix64(31)
    for _ in range(50):
        state = rules.initial_state()
        while rules.status(state) is None:
            legal = rules.legal_moves(state)
            state = rules.apply(state, legal[rng.next_u64() % len(legal)])
        assert rules.status(state) in (1, 2)


def test_hex_2x2_first_player_wins_by_exhaustion():
    rules = gw.hex_rules(2)
    assert minimax_winner(rules, rules.initial_state()) == 1


def test_hex_occupied_cell_not_legal():
    rules = gw.hex_rules(3)
    state = rules.apply(rules.initial_state(), Move(4))
    assert Move(4) not in rules.legal_moves(state)


def test_hex_win_matches_bfs_oracle():
    """After every ply of seeded random hex7 games, ``status`` names the
    player that breadth-first search finds connected, and only then."""
    rules = gw.hex_rules(7)
    rng = SplitMix64(123)
    for _ in range(300):
        state = rules.initial_state()
        while True:
            values = board_values(rules, state)
            status = rules.status(state)
            assert (status == 1, status == 2) == (
                hex_win_bfs(rules, values, 1),
                hex_win_bfs(rules, values, 2),
            )
            if status is not None:
                break
            legal = rules.legal_moves(state)
            state = rules.apply(state, legal[rng.next_u64() % len(legal)])


PROPERTY_GAMES = [f"hex{n}" for n in range(2, 10)] + [
    "line4-4x4", "line4-5x4", "line4-7x7", "line4-8x5",
]
MOST_CELLS = 81  # hex9: enough picks to fill any of the boards above


@settings(max_examples=1000, deadline=None)
@given(
    name=st.sampled_from(PROPERTY_GAMES),
    picks=st.lists(st.integers(0, MOST_CELLS - 1), min_size=MOST_CELLS, max_size=MOST_CELLS),
)
def test_status_matches_whole_board_oracle_after_every_apply(name, picks):
    """Random games (the i-th move is legal move ``picks[i] mod count``):
    after every ``apply``, the board is the oracle's packing of the values
    played so far, ``status`` equals the whole-board oracle, the carried
    empty cells and the legal moves are the board's empty cells, the
    carried Hex groups are the board's connected components, and the
    parent position is intact."""
    rules = gw.game_from_name(name)
    hex_game = isinstance(rules, gw.HexRules)
    shape = (gw.CHUNK_BITS, rules.graph.cell_count)
    state = rules.initial_state()
    values = [0] * rules.graph.cell_count
    for pick in picks:
        if rules.status(state) is not None:
            break
        legal = rules.legal_moves(state)
        parent, parent_words, parent_empty = state, words(state.board, *shape), list(state.empty)
        parent_groups = carried_groups(state) if hex_game else None
        move = legal[pick % len(legal)]
        state = rules.apply(state, move)
        values[move.to] = parent.mover
        assert state.board == pack_values(values, gw.CHUNK_BITS)
        assert rules.status(state) == status_oracle(rules, state)
        assert words(parent.board, *shape) == parent_words
        assert list(parent.empty) == parent_empty
        if hex_game:
            assert carried_groups(state) == hex_groups_oracle(rules, values)
            assert carried_groups(parent) == parent_groups
        else:
            assert state.groups is None
        scan = empty_cells(rules, state)
        assert [m.to for m in state.empty] == scan
        if rules.status(state) is not None:
            scan = []
        assert [m.to for m in rules.legal_moves(state)] == scan
    assert rules.status(state) is not None


def assert_empty_slot_removed(rules, values, cell, mover):
    """``apply`` on ``cell`` hands the child its parent's empty cells minus
    the one at the oracle's slot."""
    state = rules.position(values, mover)
    empty = state.empty
    i = empty_slot_oracle(empty, cell)
    assert empty[i].to == cell
    assert rules.apply(state, Move(cell)).empty == empty[:i] + empty[i + 1:]


SLOT_GAMES = ["hex5", "hex9", "line4-4x4", "line4-5x7"]


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(SLOT_GAMES), data=st.data())
def test_apply_removes_the_placed_cell_at_the_bisect_slot(name, data):
    """Random boards built by ``position``: the slot ``apply`` counts from
    the board's occupied chunks is the one a bisection of the empty cells
    finds, the first and last cells included."""
    rules = gw.game_from_name(name)
    n = rules.graph.cell_count
    values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    cell = data.draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))
    values[cell] = 0
    assert_empty_slot_removed(rules, values, cell, data.draw(st.sampled_from([1, 2])))


@pytest.mark.parametrize("name", SLOT_GAMES)
def test_apply_slot_at_the_first_and_last_cells(name):
    """Cells 0 and n-1 on the empty board, on a board full but for them and
    on a board whose only stones are at the other end."""
    rules = gw.game_from_name(name)
    n = rules.graph.cell_count
    for cell in (0, n - 1):
        other = n - 1 - cell
        boards = ([0] * n, [1 + c % 2 for c in range(n)], [2 if c == other else 0 for c in range(n)])
        for values in boards:
            values = list(values)
            values[cell] = 0
            assert_empty_slot_removed(rules, values, cell, 1)


def line4_runs(width, height):
    """Every run of 3-7 cells on the board, along each line direction: the
    cells in order and the cells just beyond its two ends, when on board."""
    on = lambda x, y: 0 <= x < width and 0 <= y < height
    for dx, dy in ((1, 0), (0, 1), (1, 1), (-1, 1)):
        for length in range(3, 8):
            for y in range(height):
                for x in range(width):
                    run = [(x + k * dx, y + k * dy) for k in range(length)]
                    if not all(on(*xy) for xy in run):
                        continue
                    beyond = [xy for xy in ((x - dx, y - dy), (x + length * dx, y + length * dy)) if on(*xy)]
                    yield [yy * width + xx for xx, yy in run], [yy * width + xx for xx, yy in beyond]


@pytest.mark.parametrize("size", [(4, 4), (5, 7), (7, 7)])
def test_line4_runs_through_the_placed_stone_match_the_oracle(size):
    """Each run of 3-7 stones in every direction and position, edges and
    corners included, completed by its middle stone or by either end stone,
    with the cells beyond its ends empty or held by the other player: the
    result ``apply`` records is the whole-board oracle's."""
    rules = gw.line4_rules(*size)
    n = rules.graph.cell_count
    checked = wins = 0
    for run, beyond in line4_runs(*size):
        for player in (1, 2):
            for blocked in (False, True):
                for placed in {run[0], run[len(run) // 2], run[-1]}:
                    values = [0] * n
                    for c in run:
                        values[c] = player
                    for c in beyond if blocked else ():
                        values[c] = 3 - player
                    values[placed] = 0
                    state = rules.position(values, player)
                    child = rules.apply(state, Move(placed))
                    assert rules.status(child) == status_oracle(rules, child)
                    assert rules.status(child) == (player if len(run) >= 4 else None)
                    checked += 1
                    wins += len(run) >= 4
    assert wins and checked > wins


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(PROPERTY_GAMES), data=st.data())
def test_position_derives_its_move_number_empty_cells_and_groups(name, data):
    """Random boards: ``position`` holds the values, is in play, counts its
    stones as its move number, carries the board's empty cells as its legal
    moves and, on Hex, the board's connected components as its groups."""
    rules = gw.game_from_name(name)
    n = rules.graph.cell_count
    values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    mover = data.draw(st.sampled_from([1, 2]))
    state = rules.position(values, mover)
    assert state.board == pack_values(values, gw.CHUNK_BITS)
    assert board_values(rules, state) == values
    assert (state.mover, state.last_move, state.result) == (mover, None, None)
    assert state.move_number == sum(v != 0 for v in values)
    assert [m.to for m in state.empty] == [c for c, v in enumerate(values) if v == 0]
    assert rules.legal_moves(state) == list(state.empty)
    if isinstance(rules, gw.HexRules):
        assert carried_groups(state) == hex_groups_oracle(rules, values)
    else:
        assert state.groups is None


def test_position_gives_the_empty_cells_as_legal_moves():
    """The hex7 bridge position of demo 03: ``legal_moves`` offers exactly
    the empty cells, none of the stones at 8, 15 and 16, and every child of
    a random game from it carries the board's empty cells and groups."""
    rules = gw.hex_rules(7)
    intrusion = gw.hex_cell(rules.graph, 1, 2)
    values = [0] * rules.graph.cell_count
    for q, r, player in ((1, 1, 2), (2, 2, 2), (1, 2, 1)):
        values[gw.hex_cell(rules.graph, q, r)] = player
    state = rules.position(values, 2, Move(intrusion))
    assert state.last_move == Move(intrusion) and state.move_number == 3
    legal = [m.to for m in rules.legal_moves(state)]
    assert legal == empty_cells(rules, state)
    assert not {8, 15, 16} & set(legal)
    rng = SplitMix64(31)
    for _ in range(8):
        legal = rules.legal_moves(state)
        state = rules.apply(state, legal[rng.next_u64() % len(legal)])
        assert [m.to for m in state.empty] == empty_cells(rules, state)
        assert [m.to for m in rules.legal_moves(state)] == empty_cells(rules, state)
        assert carried_groups(state) == hex_groups_oracle(rules, board_values(rules, state))
        assert rules.status(state) == status_oracle(rules, state)


def test_position_wins_through_its_scanned_groups():
    """A hex3 position one stone short of player 1's connection: the
    scanned groups are the oracle's, and merge with the placed stone into
    a winning group."""
    rules = gw.hex_rules(3)
    values = [0] * 9
    for q, r, player in ((1, 0, 1), (1, 2, 1), (0, 0, 2), (2, 1, 2)):
        values[gw.hex_cell(rules.graph, q, r)] = player
    state = rules.position(values, 1)
    assert carried_groups(state) == hex_groups_oracle(rules, values)
    won = rules.apply(state, Move(gw.hex_cell(rules.graph, 1, 1)))
    assert won.result == 1 == status_oracle(rules, won)
    assert carried_groups(won) == hex_groups_oracle(rules, board_values(rules, won))
    assert len(won.groups[0]) == 1


def test_position_rejects_a_wrong_count_or_value():
    for rules in (gw.hex_rules(3), gw.line4_rules(4, 4)):
        n = rules.graph.cell_count
        for values in ([0] * (n - 1), [0] * (n + 1), [3] + [0] * (n - 1), [0] * (n - 1) + [-1]):
            with pytest.raises(ValueError):
                rules.position(values, 1)
        for mover in (0, 3):
            with pytest.raises(ValueError):
                rules.position([0] * n, mover)
        # Player 2 has just placed on cell 1; player 1 holds cell 0.
        values = [1, 2] + [0] * (n - 2)
        assert rules.position(values, 1, Move(1)).last_move == Move(1)
        # Off the board, with a from-cell, on an empty cell, on the mover's
        # own stone: no placement of player 2 leaves these.
        for last in (Move(100), Move(-3), Move(n), Move(1, 0), Move(2), Move(0)):
            with pytest.raises(ValueError, match="last move"):
                rules.position(values, 1, last)


def test_initial_state_is_shared_and_unchanged_by_play():
    """Every game starts from one shared position, which neither games,
    searches nor ``position`` calls change."""
    for rules in (gw.hex_rules(4), gw.line4_rules(4, 4)):
        n = rules.graph.cell_count
        initial = rules.initial_state()
        assert rules.initial_state() is initial
        gw.play_match(rules, gw.AgentSpec(playouts=3), gw.AgentSpec(), 2, 7)
        rules.position([1] + [0] * (n - 1), 2)
        assert rules.initial_state() is initial
        assert initial == rules.position([0] * n, 1)
        assert initial.board == 0 and initial.move_number == 0 and initial.mover == 1


def test_game_state_is_immutable_and_apply_keeps_the_parent():
    rules = gw.hex_rules(4)
    state = rules.initial_state()
    for name, value in (("board", None), ("mover", 2), ("result", 1), ("empty", ()),
                        ("groups", ((), ()))):
        with pytest.raises(AttributeError):
            setattr(state, name, value)
    with pytest.raises(TypeError):  # no field of a position is left to a default
        GameState(state.board, 1, None, 0)
    empty, board = state.empty, state.board
    legal = rules.legal_moves(state)
    legal.clear()  # a fresh list: the position's tuple is untouched
    child = rules.apply(state, Move(5))
    assert state.empty is empty and [m.to for m in empty] == list(range(16))
    assert state.board == board == 0
    assert state.groups == ((), ())
    assert [m.to for m in child.empty] == [c for c in range(16) if c != 5]
    assert child.groups == ((1 << 5,), ())
    grandchild = rules.apply(child, Move(6))
    assert child.groups == ((1 << 5,), ()) and grandchild.groups[0] is child.groups[0]
    assert grandchild.groups == ((1 << 5,), (1 << 6,))
    assert len(rules.legal_moves(state)) == 16


def test_registry_names():
    assert gw.game_from_name("hex7").name == "hex7"
    assert gw.game_from_name("line4-5x6").name == "line4-5x6"
    assert gw.game_from_name("line4").name == "line4-7x7"
    for bad in ("hexx", "line4-9", "chess", "hex1"):
        with pytest.raises(ValueError):
            gw.game_from_name(bad)


def test_board_size_preconditions():
    with pytest.raises(ValueError):
        gw.hex_rules(1)
    with pytest.raises(ValueError):
        gw.line4_rules(3, 5)
