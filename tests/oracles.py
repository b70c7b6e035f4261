"""Independent oracles the tests check the engine against.

Each oracle deliberately uses a different mechanism from the code under
test: coordinate arithmetic instead of graph walking, per-cell decoded
values instead of packed words, whole-board searches and scans instead
of checks around the placed stone, exhaustive minimax instead of
sampling, an instance compiler that repeats every walk resolution and
constraint compilation instead of sharing them within a call, pattern
tests word by word over the 64-bit ``words`` view and cell by cell
instead of the one AND + compare on the board's int, a linear scan
over the scores instead of a bisection of their running sums, and a
count over the empty cells instead of their bisection.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from geoweave.board import OFF_BOARD, BoardGraph
from geoweave.chunkset import CHUNK_BITS
from geoweave.features import Constraint, ElementKind, FeatureSet
from geoweave.games import HexRules
from geoweave.instancer import InstancerError, _absolute_placements, _orientations
from geoweave.walks import mirror_walk, resolve_walk_branches

_INV53 = 1.0 / 9007199254740992.0  # 2**-53

# --- word-level chunk-set reference -----------------------------------------

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


def pack_values(values, chunk_bits: int) -> int:
    """The board holding ``values``, one ``chunk_bits`` chunk per cell in
    cell order."""
    bits = 0
    for cell, v in enumerate(values):
        assert 0 <= v < 1 << chunk_bits, f"value {v} does not fit in {chunk_bits} bits"
        bits |= v << cell * chunk_bits
    return bits


def unpack_values(bits: int, chunk_bits: int, cell_count: int) -> list[int]:
    """Each cell's value on the board ``bits``, in cell order."""
    full = (1 << chunk_bits) - 1
    return [(bits >> cell * chunk_bits) & full for cell in range(cell_count)]


def word_count(chunk_bits: int, cell_count: int) -> int:
    return -(-cell_count * chunk_bits // WORD_BITS)


def words(bits: int, chunk_bits: int, cell_count: int) -> list[int]:
    """The board as 64-bit words, lowest first."""
    return [(bits >> i * WORD_BITS) & _WORD_MASK for i in range(word_count(chunk_bits, cell_count))]


def matches(state: int, mask: int, target: int, chunk_bits: int, cell_count: int,
            counter: list[int] | None = None) -> bool:
    """Word-level pattern test: (state & mask) == target on every 64-bit
    word of three boards of ``cell_count`` chunks of ``chunk_bits``.

    ``counter``, when given, accumulates the number of AND+compare pairs
    executed: one per word regardless of how many cells the mask covers.
    """
    shape = (chunk_bits, cell_count)
    for s, m, t in zip(words(state, *shape), words(mask, *shape), words(target, *shape)):
        if counter is not None:
            counter[0] += 1
        if s & m != t:
            return False
    return True


def violates(bits: int, chunk_bits: int, cell: int, forbidden: int) -> bool:
    """True when the cell holds exactly the forbidden chunk value."""
    if not 0 <= forbidden < (1 << chunk_bits):
        raise ValueError(f"forbidden value {forbidden} out of chunk range")
    return (bits >> cell * chunk_bits) & ((1 << chunk_bits) - 1) == forbidden


def probe_cell_value(probe: tuple[int, int]) -> tuple[int, int]:
    """The (cell, forbidden value) that a compiled instance's negative
    probe, a (chunk mask, forbidden chunk) pair, tests: the cell whose
    chunk holds the mask's highest bit."""
    mask, forbidden = probe
    shift = mask.bit_length() - CHUNK_BITS
    return shift // CHUNK_BITS, forbidden >> shift


def board_values(rules, state) -> list[int]:
    """The values of a position's cells, in cell order."""
    return unpack_values(state.board, CHUNK_BITS, rules.graph.cell_count)

# --- closed-form walk oracle on the square grid -----------------------------

COMPASS = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}
_COMPASS_ORDER = ["N", "E", "S", "W"]


def round_half_away(x: Fraction) -> int:
    scaled = x * 2
    if x >= 0:
        return (scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return -((-scaled.numerator + scaled.denominator) // (2 * scaled.denominator))


def square_walk_oracle(width, height, start_xy, start_compass, turns):
    """Walk by pure (x, y) arithmetic: facing is a compass point, a turn is
    a quarter-turn count, stepping off the grid terminates at OFF_BOARD."""
    x, y = start_xy
    facing = _COMPASS_ORDER.index(start_compass)
    for turn in turns:
        facing = (facing + round_half_away(Fraction(turn) * 4)) % 4
        dx, dy = COMPASS[_COMPASS_ORDER[facing]]
        x, y = x + dx, y + dy
        if not (0 <= x < width and 0 <= y < height):
            return OFF_BOARD
    return y * width + x


# --- per-element interpretive matcher ---------------------------------------


def constraint_holds(constraint: Constraint, value: int | None, mover: int) -> bool:
    """One element constraint against a decoded cell value (None = off board)."""
    kind = constraint.kind
    if kind is ElementKind.OFF:
        holds = value is None
    elif value is None:
        holds = False
    elif kind is ElementKind.EMPTY:
        holds = value == 0
    elif kind is ElementKind.FRIEND:
        holds = value == mover
    elif kind is ElementKind.ENEMY:
        holds = value not in (0, mover)
    elif kind is ElementKind.PLAYER:
        holds = value == constraint.index
    else:  # ITEM: built-in games use item n == player n's piece
        holds = value == constraint.index
    return not holds if constraint.negated else holds


def interpret_instance(element_sites, values, mover: int) -> bool:
    """Naive matcher: walk an instance's element sites, its ``(site,
    constraints)`` pairs as ``instancer.instance_placements`` gives them,
    one by one and test the decoded per-cell values against each
    constraint."""
    for site, constraints in element_sites:
        value = None if site == OFF_BOARD else values[site]
        for c in constraints:
            if not constraint_holds(c, value, mover):
                return False
    return True


def interpret_instances_batch(sites_per_instance, value_matrix: np.ndarray, mover: int) -> np.ndarray:
    """Vectorised-over-states version of :func:`interpret_instance`.

    ``sites_per_instance`` holds each instance's element sites;
    ``value_matrix`` is (n_states, n_cells) of decoded chunk values; the
    result is (n_states, n_instances) of booleans.  Still a per-element
    interpreter: element semantics are applied one constraint at a time on
    decoded values, never on packed words.
    """
    n_states = value_matrix.shape[0]
    out = np.empty((n_states, len(sites_per_instance)), dtype=bool)
    for j, element_sites in enumerate(sites_per_instance):
        acc = np.ones(n_states, dtype=bool)
        for site, constraints in element_sites:
            for c in constraints:
                if site == OFF_BOARD:
                    holds = np.full(n_states, c.kind is ElementKind.OFF, dtype=bool)
                else:
                    col = value_matrix[:, site]
                    if c.kind is ElementKind.OFF:
                        holds = np.zeros(n_states, dtype=bool)
                    elif c.kind is ElementKind.EMPTY:
                        holds = col == 0
                    elif c.kind is ElementKind.FRIEND:
                        holds = col == mover
                    elif c.kind is ElementKind.ENEMY:
                        holds = (col != 0) & (col != mover)
                    else:
                        holds = col == c.index
                if c.negated:
                    holds = ~holds
                acc &= holds
        out[:, j] = acc
    return out


# --- connectivity and minimax oracles ---------------------------------------


def hex_win_bfs(rules, values, player: int) -> bool:
    """Breadth-first connectivity between a player's two edges."""
    n = rules.size
    graph = rules.graph
    if player == 1:
        starts = [q for q in range(n) if values[q] == player]  # r == 0 row
        goal = {c for c in range((n - 1) * n, n * n)}
    else:
        starts = [r * n for r in range(n) if values[r * n] == player]
        goal = {r * n + (n - 1) for r in range(n)}
    seen = set(starts)
    queue = deque(starts)
    while queue:
        c = queue.popleft()
        if c in goal:
            return True
        for nb in graph.neighbors[c]:
            if nb >= 0 and nb not in seen and values[nb] == player:
                seen.add(nb)
                queue.append(nb)
    return False


def hex_groups_oracle(rules, values) -> tuple[list[int], list[int]]:
    """Each player's connected groups, found by a flood fill from every
    stone not yet grouped, as sorted bitmasks with bit c set for cell c."""
    groups = ([], [])
    seen = set()
    for start, player in enumerate(values):
        if player == 0 or start in seen:
            continue
        seen.add(start)
        stack, group = [start], 0
        while stack:
            c = stack.pop()
            group |= 1 << c
            for nb in rules.graph.neighbors[c]:
                if nb >= 0 and nb not in seen and values[nb] == player:
                    seen.add(nb)
                    stack.append(nb)
        groups[player - 1].append(group)
    return sorted(groups[0]), sorted(groups[1])


def line4_winner_scan(rules, values) -> int | None:
    """Full-board Line4 result: the first stone, in cell order, that starts
    a line of four in one of the four directions; else a draw when no cell
    is empty, else None."""
    width, height = rules.width, rules.height

    def at(x, y):
        return values[y * width + x] if 0 <= x < width and 0 <= y < height else 0

    for y in range(height):
        for x in range(width):
            v = at(x, y)
            if v == 0:
                continue
            for dx, dy in ((1, 0), (0, 1), (1, 1), (-1, 1)):
                if all(at(x + k * dx, y + k * dy) == v for k in range(1, 4)):
                    return v
    return None if 0 in values else 0


def status_oracle(rules, state) -> int | None:
    """The game result recomputed from the whole board, as ``status`` should
    report it."""
    values = board_values(rules, state)
    if isinstance(rules, HexRules):
        winners = [p for p in (1, 2) if hex_win_bfs(rules, values, p)]
        assert len(winners) <= 1, "both hex players connected"
        return winners[0] if winners else None
    return line4_winner_scan(rules, values)


def winners_oracle(rules, values) -> set[int]:
    """Every player who holds a win on the board ``values``, each found on
    a board that keeps only that player's stones."""
    if isinstance(rules, HexRules):
        return {p for p in (1, 2) if hex_win_bfs(rules, values, p)}
    return {p for p in (1, 2)
            if line4_winner_scan(rules, [v if v == p else 0 for v in values]) == p}


def empty_slot_oracle(empty, cell: int) -> int:
    """Where ``cell`` sits in a position's cell-ordered empty cells: the
    index ``bisect_left`` finds, as a count of the cells below it."""
    return sum(1 for c in empty if c < cell)


def minimax_winner(rules, state) -> int:
    """Exhaustive game value: the winner under perfect play (0 = draw)."""
    result = rules.status(state)
    if result is not None:
        return result
    mover = state.mover
    best = None
    for move in rules.legal_moves(state):
        value = minimax_winner(rules, rules.apply(state, move))
        if value == mover:
            return mover
        if best is None or (value == 0 and best != 0):
            best = value
    return best if best is not None else 0


def one_ply_winning_moves(rules, state) -> list:
    """Moves that win immediately for the mover."""
    wins = []
    for move in rules.legal_moves(state):
        if rules.status(rules.apply(state, move)) == state.mover:
            wins.append(move)
    return wins


# --- instance compiler oracle ----------------------------------------------


def constraint_value(constraint: Constraint, mover: int) -> int:
    """The cell value a constraint names for ``mover``: empty 0, a player's
    stone its player number, item n the value n."""
    kind = constraint.kind
    if kind is ElementKind.PLAYER and constraint.index not in (1, 2):
        raise InstancerError(f"player index {constraint.index} out of range 1..2")
    if kind is ElementKind.ITEM and constraint.index not in (0, 1, 2):
        raise InstancerError(f"item index {constraint.index} out of range 0..2")
    named = {ElementKind.EMPTY: 0, ElementKind.FRIEND: mover, ElementKind.ENEMY: 3 - mover}
    return named[kind] if kind in named else constraint.index


def element_tests(constraints, site: int, mover: int):
    """The (cell, value) pairs that one element requires and forbids at
    ``site``, as two lists, or None when it can never hold there.  An
    element with a plain ``-`` holds exactly off the board, where it tests
    nothing; any other element holds only on the board, where ``!-`` tests
    nothing."""
    off = Constraint(ElementKind.OFF) in constraints
    if off or site == OFF_BOARD:
        return ([], []) if off and site == OFF_BOARD else None
    required, forbidden = [], []
    for c in constraints:
        if c.kind is not ElementKind.OFF:
            (forbidden if c.negated else required).append((site, constraint_value(c, mover)))
    return required, forbidden


@dataclass
class OracleInstance:
    """An instance as the oracle compiles it: every ``FeatureInstance``
    field, in a mutable record that also holds the instance's summed
    weight, its per-cell negative tests, (cell, forbidden value) pairs in
    the order of its ``negative_probes``, and the placement and element
    sites that first produced it, as ``instancer.instance_placements``
    gives them."""

    features: tuple[int, ...]
    anchor: int
    start_dir: int
    reflected: bool
    mask: int
    target: int
    negative_tests: tuple[tuple[int, int], ...]
    negative_probes: tuple[tuple[int, int], ...]
    element_sites: tuple
    action_to: int
    last_move_cell: int | None
    number: int
    weight: float


@dataclass
class OracleIndex:
    """The oracle's instance index: its instances in compile order, the
    proactive ones, and the reactive ones by last-move cell."""

    graph: BoardGraph
    mover: int
    instances: list[OracleInstance] = field(default_factory=list)
    proactive: list[OracleInstance] = field(default_factory=list)
    reactive_by_last_move: dict[int, list[OracleInstance]] = field(default_factory=dict)

    def reactive_for(self, cell: int) -> list[OracleInstance]:
        return self.reactive_by_last_move.get(cell, [])


def instantiate_oracle(fs: FeatureSet, graph: BoardGraph, mover: int) -> OracleIndex:
    """The instance compiler as it was before its per-call memos: every
    placement resolves its walks and compiles its constraints afresh, and
    every combination builds its full-board mask/target before deduplication.

    Expand a feature set into its full per-board instance index.

    Duplicate instances (identical compiled tests and action) are merged
    with their weights summed, which preserves the additive application
    semantics when symmetry expansion or ambiguity branches overlap; a
    merge appends the feature's position to the instance's ``features``.
    """
    if not 1 <= mover <= 2:
        raise InstancerError(f"mover {mover} out of range 1..2")
    index = OracleIndex(graph, mover)
    dedup: dict[tuple, OracleInstance] = {}
    full = (1 << CHUNK_BITS) - 1

    def cell_int(cell: int, value: int) -> int:
        """A board holding ``value`` in ``cell`` and 0 elsewhere."""
        return pack_values([value if c == cell else 0 for c in range(graph.cell_count)], CHUNK_BITS)

    for position, feature in enumerate(fs):
        if feature.relative:
            placements = [
                (anchor, d, refl)
                for anchor in range(graph.cell_count)
                for d, refl in _orientations(feature, graph.sides[anchor])
            ]
        else:
            placements = _absolute_placements(feature, graph)

        for anchor, start_dir, reflected in placements:
            walk_of = (lambda w: mirror_walk(w)) if reflected else (lambda w: w)
            element_branches = [
                resolve_walk_branches(graph, anchor, start_dir, walk_of(el.walk))
                for el in feature.elements
            ]
            to_branches = resolve_walk_branches(graph, anchor, start_dir, walk_of(feature.action))
            last_branches = (
                resolve_walk_branches(graph, anchor, start_dir, walk_of(feature.last_move))
                if feature.last_move is not None
                else [None]
            )

            for combo in itertools.product(*element_branches, to_branches, last_branches):
                sites = combo[: len(feature.elements)]
                action_to, last_cell = combo[-2], combo[-1]
                if action_to == OFF_BOARD or last_cell == OFF_BOARD:
                    continue

                positives: dict[int, int] = {}
                negatives: set[tuple[int, int]] = set()
                ok = True
                for el, site in zip(feature.elements, sites):
                    tests = element_tests(el.constraints, site, mover)
                    if tests is None:
                        ok = False
                        break
                    required, forbidden = tests
                    for cell, value in required:
                        if positives.get(cell, value) != value:
                            ok = False
                            break
                        positives[cell] = value
                    if not ok:
                        break
                    negatives.update(forbidden)
                if not ok:
                    continue
                # A forbidden value equal to a required one can never match.
                if any(positives.get(cell) == v for cell, v in negatives):
                    continue
                # Required values subsume negative tests on the same cell.
                negatives = {(cell, v) for cell, v in negatives if cell not in positives}

                mask_values = [0] * graph.cell_count
                target_values = [0] * graph.cell_count
                for cell, value in positives.items():
                    mask_values[cell] = full
                    target_values[cell] = value
                mask = pack_values(mask_values, CHUNK_BITS)
                target = pack_values(target_values, CHUNK_BITS)

                neg_sorted = tuple(sorted(negatives))
                key = (
                    tuple(words(mask, CHUNK_BITS, graph.cell_count)),
                    tuple(words(target, CHUNK_BITS, graph.cell_count)),
                    neg_sorted,
                    action_to,
                    last_cell,
                )
                existing = dedup.get(key)
                if existing is not None:
                    existing.features += (position,)
                    existing.weight += feature.weight
                    continue
                inst = OracleInstance(
                    features=(position,),
                    anchor=anchor,
                    start_dir=start_dir,
                    reflected=reflected,
                    mask=mask,
                    target=target,
                    negative_tests=neg_sorted,
                    negative_probes=tuple((cell_int(cell, full), cell_int(cell, v)) for cell, v in neg_sorted),
                    element_sites=tuple(
                        (site, el.constraints) for el, site in zip(feature.elements, sites)
                    ),
                    action_to=action_to,
                    last_move_cell=last_cell,
                    number=len(index.instances),
                    weight=feature.weight,
                )
                dedup[key] = inst
                index.instances.append(inst)
                if last_cell is None:
                    index.proactive.append(inst)
                else:
                    index.reactive_by_last_move.setdefault(last_cell, []).append(inst)

    return index


# --- scoring and sampling oracles -------------------------------------------


def biased_scores_oracle(state, legal, idx: OracleIndex) -> list[float]:
    """Per-move scores from full-board tests over the oracle's own index
    (``instantiate_oracle``): ``matches`` on every word of each instance's
    mask/target, then ``violates`` for each negative test.
    Matching weights are added to their move's base score, reactive
    instances first, each group in index order, and the sums are floored
    at 0.01.  The base score 1.0 and the floor are written out here, not
    taken from the engine, so that a change to either shows."""
    bucket = idx.reactive_for(state.last_move) if state.last_move is not None else []
    scores = [1.0] * len(legal)
    board = state.board
    for inst in [*bucket, *idx.proactive]:
        if not matches(board, inst.mask, inst.target, CHUNK_BITS, idx.graph.cell_count):
            continue
        if any(violates(board, CHUNK_BITS, cell, v) for cell, v in inst.negative_tests):
            continue
        for i, move in enumerate(legal):
            if move == inst.action_to:
                scores[i] += inst.weight
    return [max(s, 0.01) for s in scores]


def random_oracle(rng) -> float:
    """``SplitMix64.random`` as the top 53 bits of ``next_u64``."""
    return (rng.next_u64() >> 11) * _INV53


def sample_oracle(scores, rng) -> int:
    """Linear-scan sampling: sum the scores, draw, and return the first
    index whose running sum exceeds the draw (the last index otherwise)."""
    total = 0.0
    for s in scores:
        total += s
    r = random_oracle(rng) * total
    acc = 0.0
    for i, s in enumerate(scores):
        acc += s
        if r < acc:
            return i
    return len(scores) - 1
