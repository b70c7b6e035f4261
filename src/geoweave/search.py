"""Feature-biased playouts and UCT search.

Playout biasing follows a four-step scheme per move: every legal move
starts at ``BASE_SCORE``; matching reactive instances indexed under the
previous move add their weights to their action's score; matching
proactive instances do the same; scores are clamped to the positive
``FLOOR`` (weights may be negative but can only discourage, never forbid)
and the move is sampled from the resulting distribution.

The benchmark's tracer (``perfbench/spans.py``) rebinds the module-level
names of the functions it traces, in this module too, and wraps the
rules' methods on their classes.  So no traced function is aliased at
import time here: ``run_playout`` looks ``biased_scores`` and ``_sample``
up as globals and binds the rules' methods per call.

Sampling bisects the running sums of the scores.  When every score is
exactly 1.0 the running sums are the exact integers 1..n (no rounding
below 2**53) and the total is n, so ``bisect_right`` would stop at index
floor(draw * n), which ``_sample`` computes directly from the same single
draw; a product that reaches n takes the last index, as the bisection
does.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .features import FeatureSet
from .games import GameRules, GameState
from .instancer import InstanceIndex, instantiate, match_instance
from .rng import SplitMix64, derive_seed
from .stats import wilson_interval


# Every legal move's score before instance weights are added, and the
# positive score every sum is clamped to.
BASE_SCORE = 1.0
FLOOR = 0.01

# UCB1's exploration constant for rewards in [0, 1].
UCT_EXPLORATION = math.sqrt(2.0)


@dataclass
class MatchCounters:
    """Instrumentation for the reactive fast-path guarantee."""

    calls: int = 0
    reactive_tests: int = 0
    proactive_tests: int = 0


PlayerIndexes = dict[int, InstanceIndex]


def compile_feature_set(fs: FeatureSet | None, rules: GameRules) -> PlayerIndexes | None:
    """One instance index per player, resolved against that player's view."""
    if fs is None:
        return None
    return {p: instantiate(fs, rules.graph, p) for p in (1, 2)}


def _check_indexes(rules: GameRules, indexes: PlayerIndexes | None) -> None:
    """Raise ``ValueError`` unless every index was compiled for the board
    of ``rules``: ``biased_scores`` tests the rules' boards against them
    unchecked."""
    if indexes is not None:
        for idx in indexes.values():
            if idx.graph != rules.graph:
                raise ValueError(f"an index compiled for another board cannot score positions of {rules.name}")


def biased_scores(
    state: GameState,
    legal: list[int],
    idx: InstanceIndex | None,
    counters: MatchCounters | None = None,
) -> list[float]:
    """Per-move selection scores after weight accumulation and flooring.

    The board is not checked: ``state`` must come from the rules ``idx``
    was compiled for.
    """
    if idx is None:
        return [BASE_SCORE] * len(legal)
    bits = state.board
    # No reactive instance is keyed by None, the last move of a new game.
    bucket = idx.reactive_by_last_move.get(state.last_move, ())
    proactive = idx.proactive
    if counters is not None:
        counters.calls += 1
        counters.reactive_tests += len(bucket)
        counters.proactive_tests += len(proactive)
    hits = [inst for inst in bucket if match_instance(inst, bits)] if bucket else []
    if proactive:
        hits += [inst for inst in proactive if match_instance(inst, bits)]
    if not hits:
        return [BASE_SCORE] * len(legal)
    # Few instances match, so the move slots are looked up only on a hit;
    # weights are added in test order, reactive first.
    scores = [BASE_SCORE] * len(legal)
    slot = {cell: i for i, cell in enumerate(legal)}
    weights = idx.weights
    for inst in hits:
        i = slot.get(inst.action_to)
        if i is not None:
            scores[i] += weights[inst.number]
    return [s if s > FLOOR else FLOOR for s in scores]


def biased_move_distribution(
    state: GameState,
    legal: list[int],
    idx: InstanceIndex | None,
    counters: MatchCounters | None = None,
) -> list[float]:
    """Probability of selecting each legal move, aligned with ``legal``."""
    if not legal:
        raise ValueError("no legal moves")
    scores = biased_scores(state, legal, idx, counters)
    total = 0.0
    for s in scores:
        total += s
    return [s / total for s in scores]


def _sample(scores: list[float], rng: SplitMix64) -> int:
    # The first index whose prefix sum exceeds the draw; a draw at the total
    # takes the last move.  Unit scores sum to the exact integers 1..n, so
    # that index is the scaled draw rounded down.
    n = len(scores)
    if scores.count(1.0) == n:
        i = int(rng.random() * n)
    else:
        cum = list(accumulate(scores))
        i = bisect_right(cum, rng.random() * cum[-1])
    return i if i < n else n - 1


def run_playout(
    state: GameState,
    rules: GameRules,
    indexes: PlayerIndexes | None,
    rng: SplitMix64,
    counters: MatchCounters | None = None,
) -> int:
    """Play to the end with the biased policy; returns winner id or 0 (draw).

    Raises ``ValueError`` on a finished game or an index of other rules.
    """
    # Bound here, per call, so that a tracer's wrappers on the rules class
    # are what runs; biased_scores and _sample stay module lookups.
    status, legal_moves, apply = rules.status, rules.legal_moves, rules.apply
    if status(state) is not None:
        raise ValueError("playout requires a non-terminal state")
    _check_indexes(rules, indexes)
    result = None
    while result is None:
        legal = legal_moves(state)
        idx = indexes[state.mover] if indexes is not None else None
        scores = biased_scores(state, legal, idx, counters)
        state = apply(state, legal[_sample(scores, rng)])
        result = status(state)
    return result


class _Node:
    __slots__ = ("move", "parent", "children", "legal", "visits", "value",
                 "mover_who_moved", "terminal_result")

    def __init__(self, move: int | None, parent: "_Node | None", mover_who_moved: int):
        self.move = move
        self.parent = parent
        self.children: list[_Node] = []
        self.legal: list[int] | None = None
        self.visits = 0
        self.value = 0.0
        self.mover_who_moved = mover_who_moved
        self.terminal_result: int | None = None


def _backup(node: _Node, winner: int) -> None:
    while node is not None:
        node.visits += 1
        if winner == 0:
            node.value += 0.5
        elif winner == node.mover_who_moved:
            node.value += 1.0
        node = node.parent


def mcts_best_move(
    state: GameState,
    rules: GameRules,
    indexes: PlayerIndexes | None,
    playouts: int,
    seed: int,
    counters: MatchCounters | None = None,
) -> int:
    """UCT with mean-value backup; playouts biased when indexes are given.

    Runs ``playouts`` playouts in one tree and returns the first root move
    with the most visits.  Deterministic for a given seed.

    With ``playouts`` at most the number of legal moves the move is fixed:
    expansion tries untried moves in legal order, so each root child gets
    at most one visit, and the first-index tie-break returns the first
    legal move whatever the seed or feature set.  On hex7 at 30 playouts
    per move the first 20 plies of a game from the empty board are
    therefore cells 0, 1, ..., 19.

    Raises ``ValueError`` on a finished game or an index of other rules.
    """
    if playouts < 1:
        raise ValueError("playouts must be >= 1")
    if rules.status(state) is not None:
        raise ValueError("search requires a non-terminal state")
    _check_indexes(rules, indexes)
    root_legal = rules.legal_moves(state)
    rng = SplitMix64(derive_seed(seed, 0))
    visits = _search_tree(state, rules, indexes, playouts, rng, counters)
    return root_legal[visits.index(max(visits))]


def _search_tree(
    state: GameState,
    rules: GameRules,
    indexes: PlayerIndexes | None,
    playouts: int,
    rng: SplitMix64,
    counters: MatchCounters | None,
) -> list[int]:
    """One UCT tree; returns per-root-move visit counts in legal order."""
    c = UCT_EXPLORATION
    root = _Node(None, None, 3 - state.mover)
    root.legal = rules.legal_moves(state)

    for _ in range(playouts):
        node = root
        cur = state
        # Selection: descend while fully expanded.
        while node.terminal_result is None and len(node.children) == len(node.legal):
            log_n = math.log(node.visits)
            best_child = None
            best_score = -math.inf
            for child in node.children:
                score = (
                    child.value / child.visits
                    + c * math.sqrt(log_n / child.visits)
                )
                if score > best_score:
                    best_score = score
                    best_child = child
            node = best_child
            cur = rules.apply(cur, node.move)
            if node.legal is None:
                # Expansion gave every terminal child ``legal = []``, so
                # this child is not terminal and the status call decides
                # nothing.  It stays only because perfbench/expected.json
                # freezes ``games.status.calls`` (ROADMAP item 12).
                rules.status(cur)
                node.legal = rules.legal_moves(cur)

        if node.terminal_result is not None:
            _backup(node, node.terminal_result)
            continue

        # Expansion: next untried move in legal order, then one playout.
        move = node.legal[len(node.children)]
        child = _Node(move, node, cur.mover)
        node.children.append(child)
        cur = rules.apply(cur, move)
        result = rules.status(cur)
        if result is not None:
            # A terminal node's empty legal list tells selection that its
            # status is known and need not be asked again.
            child.terminal_result = result
            child.legal = []
            winner = result
        else:
            winner = run_playout(cur, rules, indexes, rng, counters)
        _backup(child, winner)

    # Children are expanded in legal order, so the untried moves are the tail.
    visits = [child.visits for child in root.children]
    return visits + [0] * (len(root.legal) - len(visits))


# --- match play -------------------------------------------------------------


@dataclass
class AgentSpec:
    """A player: optional feature set, and search effort.

    ``playouts == 0`` plays directly from the biased policy (no tree),
    which is the random-player baseline; otherwise the agent runs UCT with
    that many playouts per move.
    """

    feature_set: FeatureSet | None = None
    playouts: int = 0

    def label(self) -> str:
        kind = f"mcts{self.playouts}" if self.playouts else "policy"
        feats = self.feature_set.name or "features" if self.feature_set is not None else "uniform"
        return f"{kind}:{feats}"


@dataclass
class MatchResult:
    games: int
    wins_a: int
    wins_b: int
    draws: int
    wins_a_as_first: int
    wins_a_as_second: int
    seed: int
    win_rate_a: float = 0.0
    ci_low: float = 0.0
    ci_high: float = 0.0

    def finalize(self) -> "MatchResult":
        successes = self.wins_a + 0.5 * self.draws
        self.win_rate_a = successes / self.games
        self.ci_low, self.ci_high = wilson_interval(successes, self.games)
        return self

    def to_dict(self) -> dict:
        return {
            "games": self.games,
            "wins_a": self.wins_a,
            "wins_b": self.wins_b,
            "draws": self.draws,
            "wins_a_as_first": self.wins_a_as_first,
            "wins_a_as_second": self.wins_a_as_second,
            "win_rate_a": self.win_rate_a,
            "ci95_low": self.ci_low,
            "ci95_high": self.ci_high,
            "seed": self.seed,
        }


def _play_one_game(
    rules: GameRules,
    agents: dict[int, tuple[AgentSpec, PlayerIndexes | None]],
    game_seed: int,
) -> int:
    state = rules.initial_state()
    ply = 0
    result = rules.status(state)
    while result is None:
        spec, indexes = agents[state.mover]
        ply_seed = derive_seed(game_seed, ply)
        if spec.playouts == 0:
            legal = rules.legal_moves(state)
            idx = indexes[state.mover] if indexes is not None else None
            scores = biased_scores(state, legal, idx)
            move = legal[_sample(scores, SplitMix64(ply_seed))]
        else:
            move = mcts_best_move(state, rules, indexes, spec.playouts, ply_seed)
        state = rules.apply(state, move)
        ply += 1
        result = rules.status(state)
    return result


def play_match(
    rules: GameRules,
    agent_a: AgentSpec,
    agent_b: AgentSpec,
    games: int,
    seed: int,
) -> MatchResult:
    """Seeded match with side swapping each game and paired opening seeds."""
    if games < 2 or games % 2 != 0:
        raise ValueError("games must be even (sides are swapped each game)")

    compiled_a = compile_feature_set(agent_a.feature_set, rules)
    compiled_b = compile_feature_set(agent_b.feature_set, rules)
    result = MatchResult(games, 0, 0, 0, 0, 0, seed)
    for g in range(games):
        game_seed = derive_seed(seed, g // 2)
        a_first = g % 2 == 0
        if a_first:
            agents = {1: (agent_a, compiled_a), 2: (agent_b, compiled_b)}
        else:
            agents = {1: (agent_b, compiled_b), 2: (agent_a, compiled_a)}
        winner = _play_one_game(rules, agents, game_seed)
        if winner == 0:
            result.draws += 1
        elif (winner == 1) == a_first:
            result.wins_a += 1
            if a_first:
                result.wins_a_as_first += 1
            else:
                result.wins_a_as_second += 1
        else:
            result.wins_b += 1
    return result.finalize()
