import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geoweave as gw
from geoweave.games import GameState, IllegalMove
from geoweave.rng import SplitMix64
from oracles import (
    board_values,
    empty_slot_oracle,
    hex_groups_oracle,
    hex_win_bfs,
    minimax_winner,
    pack_values,
    status_oracle,
    winners_oracle,
    words,
)


def empty_cells(rules, state):
    return [c for c, v in enumerate(board_values(rules, state)) if v == 0]


def carried_groups(state):
    """The position's carried groups in the oracle's form (sorted lists)."""
    return tuple(sorted(g) for g in state.groups)


def play(rules, state, *cells):
    for c in cells:
        state = rules.apply(state, c)
    return state


def test_legal_moves_on_empty_board():
    for rules in (gw.hex_rules(5), gw.line4_rules(5, 4)):
        state = rules.initial_state()
        legal = rules.legal_moves(state)
        assert len(legal) == rules.graph.cell_count
        assert legal == sorted(legal)


def test_apply_basics():
    rules = gw.line4_rules(4, 4)
    s0 = rules.initial_state()
    s1 = rules.apply(s0, 5)
    assert s1.last_move == 5
    assert s1.mover == 2 and s0.mover == 1
    assert list(s1.empty) == [c for c in range(16) if c != 5]
    assert len(rules.legal_moves(s1)) == len(rules.legal_moves(s0)) - 1
    assert board_values(rules, s0)[5] == 0  # copy-on-apply: input state untouched
    with pytest.raises(IllegalMove):
        rules.apply(s1, 5)
    with pytest.raises(IllegalMove):
        rules.apply(s1, 99)


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
    assert draw.empty == ()
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
    state = rules.apply(rules.initial_state(), 4)
    assert 4 not in rules.legal_moves(state)


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
        values[move] = parent.mover
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
        assert list(state.empty) == scan
        if rules.status(state) is not None:
            scan = []
        assert rules.legal_moves(state) == scan
    assert rules.status(state) is not None


@pytest.mark.parametrize("name, games", [
    ("line4-4x9", 10), ("line4-9x4", 10), ("line4-9x9", 10), ("line4-15x15", 10),
    ("hex13", 3), ("hex19", 3),
])
def test_status_matches_the_oracle_on_the_larger_boards(name, games):
    """Seeded random full games on boards that ``PROPERTY_GAMES`` does not
    reach, those of acceptance criterion 11 and ROADMAP item 6: after every
    ``apply``, ``status`` equals the whole-board oracle."""
    rules = gw.game_from_name(name)
    rng = SplitMix64(11)
    wins = 0
    for _ in range(games):
        state = rules.initial_state()
        while rules.status(state) is None:
            legal = rules.legal_moves(state)
            state = rules.apply(state, legal[rng.next_u64() % len(legal)])
            assert rules.status(state) == status_oracle(rules, state)
        wins += rules.status(state) != 0
    assert wins


def decided_position(rules, values, mover):
    """``position`` checked against the whole-board oracles: None when it
    refuses ``values`` because ``mover`` already holds a win; otherwise the
    position, whose result is the oracle's, and which offers no move and
    refuses a placement once finished."""
    if mover in winners_oracle(rules, values):
        with pytest.raises(ValueError, match="already won"):
            rules.position(values, mover)
        return None
    state = rules.position(values, mover)
    assert rules.status(state) == status_oracle(rules, state)
    if rules.status(state) is not None:
        assert rules.legal_moves(state) == []
        if state.empty:
            with pytest.raises(IllegalMove, match="game is over"):
                rules.apply(state, state.empty[0])
    return state


def assert_empty_slot_removed(rules, values, cell, mover) -> bool:
    """``apply`` on ``cell`` hands the child its parent's empty cells minus
    the one at the oracle's slot, when ``position`` puts ``values`` in
    play; whether it did."""
    state = decided_position(rules, values, mover)
    if state is None or rules.status(state) is not None:
        return False
    empty = state.empty
    i = empty_slot_oracle(empty, cell)
    assert empty[i] == cell
    assert rules.apply(state, cell).empty == empty[:i] + empty[i + 1:]
    return True


def without_wins(rules, values):
    """``values`` with each stone, in cell order, left off when it would
    complete a win: a board that holds none."""
    kept = [0] * len(values)
    for c, v in enumerate(values):
        kept[c] = v
        if v and v in winners_oracle(rules, kept):
            kept[c] = 0
    return kept


def no_line_values(rules):
    """A full board with no line of four: rows of pairs 1 1 2 2 ..., each
    row the one below with its values swapped, so that no row, column or
    diagonal holds three equal stones in a row."""
    return [1 + (x // 2 + y) % 2 for y in range(rules.height) for x in range(rules.width)]


def no_connection_values(rules, cell):
    """A Hex board full but for the r=0 corner ``cell``, with player 1 on
    the rest of its column and player 2 everywhere else: player 1 reaches
    the r=0 edge, and player 2 the cell's q edge, only through ``cell``."""
    n = rules.size
    return [0 if c == cell else 1 if c % n == cell % n else 2 for c in range(n * n)]


SLOT_GAMES = ["hex5", "hex9", "line4-4x4", "line4-5x7"]


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(SLOT_GAMES), data=st.data())
def test_apply_removes_the_placed_cell_at_the_bisect_slot(name, data):
    """Random boards built by ``position``, each as drawn and with every
    stone that completes a win left off: on a board in play, the slot
    ``apply`` bisects from the empty cells is the one a count of the cells
    below finds, the first and last cells included; a board that holds a
    win is finished or refused, as the oracles decide."""
    rules = gw.game_from_name(name)
    n = rules.graph.cell_count
    values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    cell = data.draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))
    values[cell] = 0
    mover = data.draw(st.sampled_from([1, 2]))
    assert_empty_slot_removed(rules, values, cell, mover)
    assert assert_empty_slot_removed(rules, without_wins(rules, values), cell, mover)


@pytest.mark.parametrize("name", SLOT_GAMES)
def test_apply_slot_at_the_first_and_last_cells(name):
    """Cells 0 and n-1 on the empty board, on a board full but for them
    and without a win and on a board whose only stones are at the other
    end, all in play; and on a board of alternating stones full but for
    them, which holds a win and is finished or refused."""
    rules = gw.game_from_name(name)
    n = rules.graph.cell_count
    for cell in (0, n - 1):
        other = n - 1 - cell
        full = no_connection_values(rules, cell) if isinstance(rules, gw.HexRules) else no_line_values(rules)
        boards = ([0] * n, full, [2 if c == other else 0 for c in range(n)])
        for values in boards:
            values = list(values)
            values[cell] = 0
            assert assert_empty_slot_removed(rules, values, cell, 1)
        alternating = [1 + c % 2 for c in range(n)]
        alternating[cell] = 0
        assert winners_oracle(rules, alternating)
        for mover in (1, 2):
            assert not assert_empty_slot_removed(rules, alternating, cell, mover)


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
    result ``apply`` records is the whole-board oracle's.  A run of five or
    more that lacks an end stone already holds a line of four, so
    ``position`` finishes that board, or refuses it with its owner to
    move."""
    rules = gw.line4_rules(*size)
    n = rules.graph.cell_count
    checked = wins = finished = 0
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
                    if len(run) > 4 and placed != run[len(run) // 2]:
                        # The stones left already make a line of four: the
                        # game ended before this placement.
                        assert winners_oracle(rules, values) == {player}
                        assert decided_position(rules, values, player) is None
                        assert decided_position(rules, values, 3 - player).result == player
                        finished += 1
                        continue
                    state = rules.position(values, player)
                    child = rules.apply(state, placed)
                    assert rules.status(child) == status_oracle(rules, child)
                    assert rules.status(child) == (player if len(run) >= 4 else None)
                    checked += 1
                    wins += len(run) >= 4
    assert wins and checked > wins
    assert finished or size == (4, 4)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(PROPERTY_GAMES), data=st.data())
def test_position_derives_its_empty_cells_and_groups(name, data):
    """Random boards: ``position`` refuses one that the mover has won; any
    other it holds with the oracle's result, carries the board's empty
    cells, offers them as its legal moves while the game is on and, on
    Hex, carries the board's connected components as its groups."""
    rules = gw.game_from_name(name)
    n = rules.graph.cell_count
    values = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    mover = data.draw(st.sampled_from([1, 2]))
    state = decided_position(rules, values, mover)
    if state is None:
        return
    assert state.board == pack_values(values, gw.CHUNK_BITS)
    assert board_values(rules, state) == values
    assert (state.mover, state.last_move) == (mover, None)
    assert list(state.empty) == [c for c, v in enumerate(values) if v == 0]
    if state.result is None:
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
    state = rules.position(values, 2, intrusion)
    assert state.last_move == intrusion and len(state.empty) == rules.graph.cell_count - 3
    legal = rules.legal_moves(state)
    assert legal == empty_cells(rules, state)
    assert not {8, 15, 16} & set(legal)
    rng = SplitMix64(31)
    for _ in range(8):
        legal = rules.legal_moves(state)
        state = rules.apply(state, legal[rng.next_u64() % len(legal)])
        assert list(state.empty) == empty_cells(rules, state)
        assert rules.legal_moves(state) == empty_cells(rules, state)
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
    won = rules.apply(state, gw.hex_cell(rules.graph, 1, 1))
    assert won.result == 1 == status_oracle(rules, won)
    assert carried_groups(won) == hex_groups_oracle(rules, board_values(rules, won))
    assert len(won.groups[0]) == 1


def player_1_won_board(name):
    """A board that holds a win of player 1 placed by no ``apply``: on hex3
    player 1's stones at (1,0), (1,1) and (1,2), on line4-4x4 player 1's
    full bottom row."""
    rules = gw.game_from_name(name)
    values = [0] * rules.graph.cell_count
    if name == "hex3":
        for q, r in ((1, 0), (1, 1), (1, 2)):
            values[gw.hex_cell(rules.graph, q, r)] = 1
    else:
        values[:4] = [1] * 4
    return rules, values


@pytest.mark.parametrize("name", ["hex3", "line4-4x4"])
def test_position_finishes_a_board_already_won(name):
    """``position`` decides a won board as ``apply`` would have: player 1
    has won, no move is legal, and no placement, playout or search goes on
    past the win."""
    rules, values = player_1_won_board(name)
    state = rules.position(values, 2)
    assert rules.status(state) == 1 == status_oracle(rules, state)
    assert rules.legal_moves(state) == []
    with pytest.raises(IllegalMove, match="game is over"):
        rules.apply(state, state.empty[0])
    with pytest.raises(ValueError, match="non-terminal"):
        gw.run_playout(state, rules, None, SplitMix64(1))
    with pytest.raises(ValueError, match="non-terminal"):
        gw.mcts_best_move(state, rules, None, 4, 1)


@pytest.mark.parametrize("name", ["hex3", "line4-4x4"])
def test_position_refuses_a_board_the_mover_has_won(name):
    """No play leaves the winner to move, so ``position`` refuses it."""
    rules, values = player_1_won_board(name)
    with pytest.raises(ValueError, match="player 1 is to move but has already won"):
        rules.position(values, 1)


@pytest.mark.parametrize("size", [(4, 4), (5, 7), (7, 7)])
def test_position_draws_a_full_line4_board_without_a_line(size):
    """A full Line4 board without a line of four is a draw, as ``apply``
    records it on the last placement."""
    rules = gw.line4_rules(*size)
    values = no_line_values(rules)
    assert not winners_oracle(rules, values)
    for mover in (1, 2):
        state = rules.position(values, mover)
        assert state.empty == () and rules.legal_moves(state) == []
        assert rules.status(state) == 0 == status_oracle(rules, state)


def test_position_rejects_a_wrong_count_or_value():
    for rules in (gw.hex_rules(3), gw.line4_rules(4, 4)):
        n = rules.graph.cell_count
        for values in ([0] * (n - 1), [0] * (n + 1), [3] + [0] * (n - 1), [0] * (n - 1) + [-1]):
            with pytest.raises(ValueError):
                rules.position(values, 1)
        for mover in (0, 3):
            with pytest.raises(ValueError):
                rules.position([0] * n, mover)
        # Full boards that player 1 has won: no play leaves player 1 to move.
        for values in ([1] * n, [1 + c % 2 for c in range(n)]):
            assert 1 in winners_oracle(rules, values)
            with pytest.raises(ValueError, match="player 1 is to move but has already won"):
                rules.position(values, 1)
        # Player 2 has just placed on cell 1; player 1 holds cell 0.
        values = [1, 2] + [0] * (n - 2)
        assert rules.position(values, 1, 1).last_move == 1
        # Off the board, on an empty cell, on the mover's own stone: no
        # placement of player 2 leaves these.
        for last in (100, -3, n, 2, 0):
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
        assert initial.board == 0 and len(initial.empty) == n and initial.mover == 1


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
    child = rules.apply(state, 5)
    assert state.empty is empty and list(empty) == list(range(16))
    assert state.board == board == 0
    assert state.groups == ((), ())
    assert list(child.empty) == [c for c in range(16) if c != 5]
    assert child.groups == ((1 << 5,), ())
    grandchild = rules.apply(child, 6)
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


@pytest.mark.parametrize("name,message", [
    ("hex1", "hex board needs size >= 2"),
    ("hex-3", "hex board needs size >= 2"),
    ("line4-3x3", "line4 board needs width and height >= 4"),
    ("line4-9x3", "line4 board needs width and height >= 4"),
    ("hexx", "bad hex board name 'hexx'; use e.g. hex7"),
    ("line4-9", "bad line4 board name 'line4-9'; use e.g. line4-7x7"),
    ("line4-5x5x5", "bad line4 board name 'line4-5x5x5'; use e.g. line4-7x7"),
    ("line4-ax5", "bad line4 board name 'line4-ax5'; use e.g. line4-7x7"),
    ("chess", "unknown game 'chess'; known: hexN, line4 (7x7), line4-WxH"),
])
def test_registry_names_the_reason_a_name_is_refused(name, message):
    """A size the rules refuse reports the rules' bound, not a bad name."""
    with pytest.raises(ValueError) as err:
        gw.game_from_name(name)
    assert str(err.value) == message


def test_board_size_preconditions():
    with pytest.raises(ValueError):
        gw.hex_rules(1)
    with pytest.raises(ValueError):
        gw.line4_rules(3, 5)
