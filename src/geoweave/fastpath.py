"""Compiled match engine: the playout/search inner loops lowered to numba.

This module mirrors :mod:`geoweave.search` operation for operation — same
RNG (SplitMix64), same accumulation order, same tie-breaking — so a match
played here is bit-identical to one played by the reference engine with
the same seed.  The parity tests in tests/test_fastpath.py enforce that.

Only the built-in placement games are supported; anything else (move-from
actions, selection-phase biasing) falls back to the reference engine.
"""

from __future__ import annotations

import numpy as np

from .games import GameRules, HexRules, Line4Rules
from .instancer import InstanceIndex
from .search import AgentSpec, MatchResult, compile_feature_set

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap if not (args and callable(args[0])) else args[0]


class FastpathUnsupported(RuntimeError):
    pass


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM = np.uint64(0xA0761D6478BD642F)
_INV53 = 1.0 / 9007199254740992.0
_U = np.uint64


@njit(cache=True, inline="always")
def _mix(state):
    state = state + _GAMMA
    z = state
    z = (z ^ (z >> _U(30))) * _MIX1
    z = (z ^ (z >> _U(27))) * _MIX2
    return state, z ^ (z >> _U(31))


@njit(cache=True, inline="always")
def _derive(seed, index):
    _, z = _mix(seed ^ (_STREAM * _U(index + 1)))
    return z


@njit(cache=True, inline="always")
def _rand(state):
    state, z = _mix(state)
    return state, np.float64(z >> _U(11)) * _INV53


@njit(cache=True)
def _place(values, words, cell, player, bbits):
    values[cell] = player
    bitpos = cell * bbits
    words[bitpos >> 6] |= _U(player) << _U(bitpos & 63)


@njit(cache=True)
def _uf_find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


@njit(cache=True)
def _hex_win_after(parent, values, nbrs, cell, player, size, ncells):
    # Virtual nodes: ncells..ncells+3 = p1 north/south, p2 west/east edges.
    for k in range(6):
        n = nbrs[cell, k]
        if n >= 0 and values[n] == player:
            ra, rb = _uf_find(parent, cell), _uf_find(parent, n)
            if ra != rb:
                parent[ra] = rb
    q = cell % size
    r = cell // size
    if player == 1:
        if r == 0:
            ra, rb = _uf_find(parent, cell), _uf_find(parent, ncells)
            if ra != rb:
                parent[ra] = rb
        if r == size - 1:
            ra, rb = _uf_find(parent, cell), _uf_find(parent, ncells + 1)
            if ra != rb:
                parent[ra] = rb
        return _uf_find(parent, ncells) == _uf_find(parent, ncells + 1)
    if q == 0:
        ra, rb = _uf_find(parent, cell), _uf_find(parent, ncells + 2)
        if ra != rb:
            parent[ra] = rb
    if q == size - 1:
        ra, rb = _uf_find(parent, cell), _uf_find(parent, ncells + 3)
        if ra != rb:
            parent[ra] = rb
    return _uf_find(parent, ncells + 2) == _uf_find(parent, ncells + 3)


@njit(cache=True)
def _line4_win_after(values, cell, player, width, height):
    x = cell % width
    y = cell // width
    for d in range(4):
        if d == 0:
            dx, dy = 1, 0
        elif d == 1:
            dx, dy = 0, 1
        elif d == 2:
            dx, dy = 1, 1
        else:
            dx, dy = -1, 1
        run = 1
        for s in (1, -1):
            k = 1
            while True:
                nx = x + s * k * dx
                ny = y + s * k * dy
                if nx < 0 or nx >= width or ny < 0 or ny >= height:
                    break
                if values[ny * width + nx] != player:
                    break
                run += 1
                k += 1
        if run >= 4:
            return True
    return False


@njit(cache=True)
def _apply_move(values, words, parent, nbrs, cell, player, game_code, gw, gh, ncells, bbits):
    """Place and report whether the placement wins the game."""
    _place(values, words, cell, player, bbits)
    if game_code == 0:
        return _hex_win_after(parent, values, nbrs, cell, player, gw, ncells)
    return _line4_win_after(values, cell, player, gw, gh)


@njit(cache=True)
def _score_moves(
    scores, values, words, mover, last_move,
    masks, targets, neg_start, neg_cell, neg_val, action, weight,
    pro_start, pro_ids, react_start, react_ids,
    base, floor, ncells, nwords,
):
    for c in range(ncells):
        if values[c] == 0:
            scores[c] = base
    p = mover - 1
    if last_move >= 0:
        for t in range(react_start[p, last_move], react_start[p, last_move + 1]):
            i = react_ids[t]
            ok = True
            for k in range(nwords):
                if words[k] & masks[i, k] != targets[i, k]:
                    ok = False
                    break
            if ok:
                for t2 in range(neg_start[i], neg_start[i + 1]):
                    if values[neg_cell[t2]] == neg_val[t2]:
                        ok = False
                        break
            if ok and values[action[i]] == 0:
                scores[action[i]] += weight[i]
    for t in range(pro_start[p], pro_start[p + 1]):
        i = pro_ids[t]
        ok = True
        for k in range(nwords):
            if words[k] & masks[i, k] != targets[i, k]:
                ok = False
                break
        if ok:
            for t2 in range(neg_start[i], neg_start[i + 1]):
                if values[neg_cell[t2]] == neg_val[t2]:
                    ok = False
                    break
        if ok and values[action[i]] == 0:
            scores[action[i]] += weight[i]
    for c in range(ncells):
        if values[c] == 0 and scores[c] < floor:
            scores[c] = floor


@njit(cache=True)
def _sample_cell(scores, values, rng, ncells):
    total = 0.0
    for c in range(ncells):
        if values[c] == 0:
            total += scores[c]
    rng, u = _rand(rng)
    r = u * total
    acc = 0.0
    last = -1
    for c in range(ncells):
        if values[c] == 0:
            acc += scores[c]
            last = c
            if r < acc:
                return rng, c
    return rng, last


@njit(cache=True)
def _playout(
    values, words, parent, nbrs, mover, last_move, n_empty, rng,
    masks, targets, neg_start, neg_cell, neg_val, action, weight,
    pro_start, pro_ids, react_start, react_ids,
    base, floor, max_len, game_code, gw, gh, ncells, nwords, bbits, scores,
):
    plies = 0
    while True:
        if n_empty == 0:
            return rng, 0
        if plies >= max_len:
            return rng, 0
        _score_moves(
            scores, values, words, mover, last_move,
            masks, targets, neg_start, neg_cell, neg_val, action, weight,
            pro_start, pro_ids, react_start, react_ids,
            base, floor, ncells, nwords,
        )
        rng, cell = _sample_cell(scores, values, rng, ncells)
        won = _apply_move(values, words, parent, nbrs, cell, mover, game_code, gw, gh, ncells, bbits)
        if won:
            return rng, mover
        n_empty -= 1
        last_move = cell
        mover = 3 - mover
        plies += 1


@njit(cache=True)
def _uct_search(
    root_values, root_words, root_parent, nbrs, root_mover, root_last, root_empty,
    rng,
    masks, targets, neg_start, neg_cell, neg_val, action, weight,
    pro_start, pro_ids, react_start, react_ids,
    base, floor, uct_c, playouts, max_len, game_code, gw, gh, ncells, nwords, bbits,
    visits_out,
):
    """One UCT tree; adds root visit counts per move cell into visits_out."""
    max_nodes = playouts + 2
    node_move = np.full(max_nodes, -1, dtype=np.int32)
    node_parent = np.full(max_nodes, -1, dtype=np.int32)
    node_visits = np.zeros(max_nodes, dtype=np.int64)
    node_value = np.zeros(max_nodes, dtype=np.float64)
    node_mover = np.zeros(max_nodes, dtype=np.int8)  # player who moved into node
    node_terminal = np.full(max_nodes, -1, dtype=np.int8)
    node_nlegal = np.full(max_nodes, -1, dtype=np.int32)
    node_nchild = np.zeros(max_nodes, dtype=np.int32)
    node_child_base = np.full(max_nodes, -1, dtype=np.int32)
    child_pool = np.full(max_nodes * ncells, -1, dtype=np.int32)
    pool_used = 0
    n_nodes = 1
    node_nlegal[0] = root_empty
    node_mover[0] = 3 - root_mover

    values = np.empty(ncells, dtype=np.int8)
    words = np.empty(nwords, dtype=np.uint64)
    parent = np.empty(ncells + 4, dtype=np.int32)
    scores = np.zeros(ncells, dtype=np.float64)

    for _ in range(playouts):
        values[:] = root_values
        words[:] = root_words
        parent[:] = root_parent
        mover = root_mover
        last_move = root_last
        n_empty = root_empty
        node = 0

        # Selection.
        while node_terminal[node] < 0 and node_nlegal[node] >= 0 and node_nchild[node] == node_nlegal[node]:
            if node_nchild[node] == 0:
                break
            log_n = np.log(np.float64(node_visits[node]))
            best = -1
            best_score = -1.0e300
            cb = node_child_base[node]
            for k in range(node_nchild[node]):
                ch = child_pool[cb + k]
                score = node_value[ch] / node_visits[ch] + uct_c * np.sqrt(log_n / node_visits[ch])
                if score > best_score:
                    best_score = score
                    best = ch
            node = best
            cell = node_move[node]
            _apply_move(values, words, parent, nbrs, cell, mover, game_code, gw, gh, ncells, bbits)
            n_empty -= 1
            last_move = cell
            mover = 3 - mover
            if node_nlegal[node] < 0 and node_terminal[node] < 0:
                node_nlegal[node] = n_empty

        if node_terminal[node] >= 0:
            winner = node_terminal[node]
        elif node_nlegal[node] == 0:
            winner = 0
        else:
            # Expansion: the untried move is the nth empty cell ascending.
            nth = node_nchild[node]
            cell = -1
            count = 0
            for c in range(ncells):
                if values[c] == 0:
                    if count == nth:
                        cell = c
                        break
                    count += 1
            if node_child_base[node] < 0:
                node_child_base[node] = pool_used
                pool_used += node_nlegal[node]
            child = n_nodes
            n_nodes += 1
            node_move[child] = cell
            node_parent[child] = node
            node_mover[child] = mover
            child_pool[node_child_base[node] + nth] = child
            node_nchild[node] += 1

            won = _apply_move(values, words, parent, nbrs, cell, mover, game_code, gw, gh, ncells, bbits)
            n_empty -= 1
            last_move = cell
            prev_mover = mover
            mover = 3 - mover
            node = child
            if won:
                node_terminal[child] = prev_mover
                node_nlegal[child] = 0
                winner = prev_mover
            elif n_empty == 0:
                node_terminal[child] = 0
                node_nlegal[child] = 0
                winner = 0
            else:
                rng, winner = _playout(
                    values, words, parent, nbrs, mover, last_move, n_empty, rng,
                    masks, targets, neg_start, neg_cell, neg_val, action, weight,
                    pro_start, pro_ids, react_start, react_ids,
                    base, floor, max_len, game_code, gw, gh, ncells, nwords, bbits, scores,
                )

        # Backup.
        while node >= 0:
            node_visits[node] += 1
            if winner == 0:
                node_value[node] += 0.5
            elif winner == node_mover[node]:
                node_value[node] += 1.0
            node = node_parent[node]

    cb = node_child_base[0]
    if cb >= 0:
        for k in range(node_nchild[0]):
            ch = child_pool[cb + k]
            visits_out[node_move[ch]] += node_visits[ch]
    return rng


@njit(cache=True)
def _play_game(
    game_seed, nbrs,
    a_masks, a_targets, a_neg_start, a_neg_cell, a_neg_val, a_action, a_weight,
    a_pro_start, a_pro_ids, a_react_start, a_react_ids, a_playouts, a_base, a_floor, a_uct,
    b_masks, b_targets, b_neg_start, b_neg_cell, b_neg_val, b_action, b_weight,
    b_pro_start, b_pro_ids, b_react_start, b_react_ids, b_playouts, b_base, b_floor, b_uct,
    a_is_first, workers, game_code, gw, gh, ncells, nwords, bbits,
):
    values = np.zeros(ncells, dtype=np.int8)
    words = np.zeros(nwords, dtype=np.uint64)
    parent = np.empty(ncells + 4, dtype=np.int32)
    for i in range(ncells + 4):
        parent[i] = i
    scores = np.zeros(ncells, dtype=np.float64)
    visits = np.zeros(ncells, dtype=np.int64)

    mover = 1
    last_move = -1
    n_empty = ncells
    max_len = 4 * ncells
    ply = 0
    while True:
        if n_empty == 0 or ply >= max_len:
            return 0
        a_to_move = (mover == 1) == a_is_first
        ply_seed = _derive(game_seed, ply)
        playouts = a_playouts if a_to_move else b_playouts
        if playouts == 0:
            if a_to_move:
                _score_moves(scores, values, words, mover, last_move,
                             a_masks, a_targets, a_neg_start, a_neg_cell, a_neg_val, a_action, a_weight,
                             a_pro_start, a_pro_ids, a_react_start, a_react_ids,
                             a_base, a_floor, ncells, nwords)
            else:
                _score_moves(scores, values, words, mover, last_move,
                             b_masks, b_targets, b_neg_start, b_neg_cell, b_neg_val, b_action, b_weight,
                             b_pro_start, b_pro_ids, b_react_start, b_react_ids,
                             b_base, b_floor, ncells, nwords)
            _, cell = _sample_cell(scores, values, ply_seed, ncells)
        else:
            visits[:] = 0
            for wk in range(workers):
                rng = _derive(ply_seed, wk)
                if a_to_move:
                    _uct_search(values, words, parent, nbrs, mover, last_move, n_empty, rng,
                                a_masks, a_targets, a_neg_start, a_neg_cell, a_neg_val, a_action, a_weight,
                                a_pro_start, a_pro_ids, a_react_start, a_react_ids,
                                a_base, a_floor, a_uct, playouts, max_len,
                                game_code, gw, gh, ncells, nwords, bbits, visits)
                else:
                    _uct_search(values, words, parent, nbrs, mover, last_move, n_empty, rng,
                                b_masks, b_targets, b_neg_start, b_neg_cell, b_neg_val, b_action, b_weight,
                                b_pro_start, b_pro_ids, b_react_start, b_react_ids,
                                b_base, b_floor, b_uct, playouts, max_len,
                                game_code, gw, gh, ncells, nwords, bbits, visits)
            cell = -1
            best_v = np.int64(-1)
            for c in range(ncells):
                if values[c] == 0 and visits[c] > best_v:
                    best_v = visits[c]
                    cell = c
        won = _apply_move(values, words, parent, nbrs, cell, mover, game_code, gw, gh, ncells, bbits)
        if won:
            return mover
        n_empty -= 1
        last_move = cell
        mover = 3 - mover
        ply += 1


@njit(cache=True)
def _match(
    games, seed, nbrs,
    a_masks, a_targets, a_neg_start, a_neg_cell, a_neg_val, a_action, a_weight,
    a_pro_start, a_pro_ids, a_react_start, a_react_ids, a_playouts, a_base, a_floor, a_uct,
    b_masks, b_targets, b_neg_start, b_neg_cell, b_neg_val, b_action, b_weight,
    b_pro_start, b_pro_ids, b_react_start, b_react_ids, b_playouts, b_base, b_floor, b_uct,
    workers, game_code, gw, gh, ncells, nwords, bbits,
):
    tallies = np.zeros(5, dtype=np.int64)  # wins_a, wins_b, draws, a_first, a_second
    for g in range(games):
        game_seed = _derive(seed, g // 2)
        a_is_first = g % 2 == 0
        winner = _play_game(
            game_seed, nbrs,
            a_masks, a_targets, a_neg_start, a_neg_cell, a_neg_val, a_action, a_weight,
            a_pro_start, a_pro_ids, a_react_start, a_react_ids, a_playouts, a_base, a_floor, a_uct,
            b_masks, b_targets, b_neg_start, b_neg_cell, b_neg_val, b_action, b_weight,
            b_pro_start, b_pro_ids, b_react_start, b_react_ids, b_playouts, b_base, b_floor, b_uct,
            a_is_first, workers, game_code, gw, gh, ncells, nwords, bbits,
        )
        if winner == 0:
            tallies[2] += 1
        elif (winner == 1) == a_is_first:
            tallies[0] += 1
            if a_is_first:
                tallies[3] += 1
            else:
                tallies[4] += 1
        else:
            tallies[1] += 1
    return tallies


# --- lowering ---------------------------------------------------------------


def lower_indexes(indexes: dict[int, InstanceIndex] | None, ncells: int, nwords: int, chunk_bits: int):
    """Flatten both perspectives of an agent's instance index into the
    array bundle the kernels consume (perspective 1 rows first)."""
    rows = []
    pro_start = [0]
    pro_ids = []
    react_start = np.zeros((2, ncells + 1), dtype=np.int32)
    react_ids = []
    if indexes is not None:
        for p in (1, 2):
            idx = indexes[p]
            offset = len(rows)
            row_of = {}
            for inst in idx.instances:
                if inst.action_from is not None:
                    raise FastpathUnsupported("move-from actions are not lowered")
                row_of[id(inst)] = offset + len(row_of)
            rows.extend(idx.instances)
            pro_ids.extend(row_of[id(inst)] for inst in idx.proactive)
            pro_start.append(len(pro_ids))
            counts = np.zeros(ncells + 1, dtype=np.int64)
            for cell, bucket in idx.reactive_by_last_move.items():
                counts[cell + 1] = len(bucket)
            starts = np.cumsum(counts)
            base = len(react_ids)
            react_ids.extend([0] * int(starts[-1]))
            cursor = starts[:-1].copy()
            for cell in sorted(idx.reactive_by_last_move):
                for inst in idx.reactive_by_last_move[cell]:
                    react_ids[base + int(cursor[cell])] = row_of[id(inst)]
                    cursor[cell] += 1
            react_start[p - 1, :] = base + starts
    else:
        pro_start = [0, 0, 0]

    n = len(rows)
    masks = np.zeros((max(n, 1), nwords), dtype=np.uint64)
    targets = np.zeros((max(n, 1), nwords), dtype=np.uint64)
    neg_start = np.zeros(n + 1, dtype=np.int32)
    neg_cell = []
    neg_val = []
    action = np.zeros(max(n, 1), dtype=np.int32)
    weight = np.zeros(max(n, 1), dtype=np.float64)
    for i, inst in enumerate(rows):
        masks[i, :] = [w % (1 << 64) for w in inst.mask.words]
        targets[i, :] = [w % (1 << 64) for w in inst.target.words]
        for cell, v in inst.negative_tests:
            neg_cell.append(cell)
            neg_val.append(v)
        neg_start[i + 1] = len(neg_cell)
        action[i] = inst.action_to
        weight[i] = inst.weight
    return (
        masks,
        targets,
        neg_start,
        np.array(neg_cell or [0], dtype=np.int32),
        np.array(neg_val or [0], dtype=np.int64),
        action,
        weight,
        np.array(pro_start, dtype=np.int32),
        np.array(pro_ids or [0], dtype=np.int32)[: max(len(pro_ids), 1)],
        react_start,
        np.array(react_ids or [0], dtype=np.int32)[: max(len(react_ids), 1)],
    )


def _game_params(rules: GameRules):
    if isinstance(rules, HexRules):
        return 0, rules.size, rules.size
    if isinstance(rules, Line4Rules):
        return 1, rules.width, rules.height
    raise FastpathUnsupported(f"game {type(rules).__name__} has no compiled kernel")


def _neighbor_array(rules: GameRules) -> np.ndarray:
    g = rules.graph
    width = max(g.sides)
    nbrs = np.full((g.cell_count, max(width, 6)), -1, dtype=np.int32)
    for c in range(g.cell_count):
        for d, n in enumerate(g.neighbors[c]):
            nbrs[c, d] = n
    return nbrs


def supports(rules: GameRules, agent_a: AgentSpec, agent_b: AgentSpec) -> tuple[bool, str]:
    if not NUMBA_AVAILABLE:
        return False, "numba is not installed"
    try:
        _game_params(rules)
    except FastpathUnsupported as exc:
        return False, str(exc)
    for spec in (agent_a, agent_b):
        if spec.bias.use_in_selection:
            return False, "selection-phase biasing runs on the reference engine only"
        # lower_indexes would refuse their instances after the engine is chosen.
        if spec.feature_set is not None and any(
            f.action.from_ is not None for f in spec.feature_set.features
        ):
            return False, "move-from actions run on the reference engine only"
    return True, ""


def play_match(
    rules: GameRules,
    agent_a: AgentSpec,
    agent_b: AgentSpec,
    games: int,
    seed: int,
    workers: int = 1,
) -> MatchResult:
    """Compiled twin of :func:`geoweave.search.play_match`."""
    ok, why = supports(rules, agent_a, agent_b)
    if not ok:
        raise FastpathUnsupported(why)
    game_code, gw, gh = _game_params(rules)
    ncells = rules.graph.cell_count
    nwords = (ncells * rules.chunk_bits + 63) // 64
    nbrs = _neighbor_array(rules)
    packed = []
    for spec in (agent_a, agent_b):
        indexes = compile_feature_set(spec.feature_set, rules)
        packed.append(lower_indexes(indexes, ncells, nwords, rules.chunk_bits))

    tallies = _match(
        games,
        np.uint64(seed & ((1 << 64) - 1)),
        nbrs,
        *packed[0],
        agent_a.playouts,
        agent_a.bias.base_score,
        agent_a.bias.floor,
        agent_a.uct_exploration,
        *packed[1],
        agent_b.playouts,
        agent_b.bias.base_score,
        agent_b.bias.floor,
        agent_b.uct_exploration,
        workers,
        game_code,
        gw,
        gh,
        ncells,
        nwords,
        rules.chunk_bits,
    )
    result = MatchResult(
        games=games,
        wins_a=int(tallies[0]),
        wins_b=int(tallies[1]),
        draws=int(tallies[2]),
        wins_a_as_first=int(tallies[3]),
        wins_a_as_second=int(tallies[4]),
        seed=seed,
    )
    return result.finalize()
