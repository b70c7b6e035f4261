"""Feature-biased playouts and UCT search.

Playout biasing follows a four-step scheme per move: every legal move
starts at a uniform base score; matching reactive instances indexed under
the previous move add their weights to their action's score; matching
proactive instances do the same; scores are clamped to a small positive
floor (weights may be negative but can only discourage, never forbid) and
the move is sampled from the resulting distribution.

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
from dataclasses import dataclass, field
from itertools import accumulate

from .features import FeatureSet
from .games import GameRules, GameState, Move
from .instancer import InstanceIndex, instantiate, match_instance
from .rng import SplitMix64, derive_seed
from .stats import wilson_interval


@dataclass
class BiasConfig:
    floor: float = 0.01
    base_score: float = 1.0

    def __post_init__(self):
        if self.floor <= 0 or self.base_score <= 0:
            raise ValueError("floor and base_score must be positive")


# UCB1's exploration constant for rewards in [0, 1].
UCT_EXPLORATION = math.sqrt(2.0)


@dataclass
class SearchConfig:
    playouts_per_move: int = 100
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.playouts_per_move < 1:
            raise ValueError("playouts_per_move must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class MatchCounters:
    """Instrumentation for the reactive fast-path guarantee."""

    calls: int = 0
    reactive_tests: int = 0
    proactive_tests: int = 0


PlayerIndexes = dict[int, InstanceIndex]


def _move_cap(rules: GameRules) -> int:
    """Plies after which a playout or a match game ends as a draw: a guard
    for custom rules, which no built-in game reaches."""
    return 4 * rules.graph.cell_count


def compile_feature_set(fs: FeatureSet | None, rules: GameRules) -> PlayerIndexes | None:
    """One instance index per player, resolved against that player's view."""
    if fs is None:
        return None
    return {
        p: instantiate(fs, rules.graph, rules.player_count, p)
        for p in range(1, rules.player_count + 1)
    }


def biased_scores(
    state: GameState,
    legal: list[Move],
    idx: InstanceIndex | None,
    bias: BiasConfig,
    counters: MatchCounters | None = None,
) -> list[float]:
    """Per-move selection scores after weight accumulation and flooring."""
    if idx is None:
        return [bias.base_score] * len(legal)
    if counters is not None:
        counters.calls += 1

    board = state.board
    hits = []
    if state.last_move is not None:
        bucket = idx.reactive_for(state.last_move.to)
        if counters is not None:
            counters.reactive_tests += len(bucket)
        hits = [inst for inst in bucket if match_instance(inst, board)]
    if counters is not None:
        counters.proactive_tests += len(idx.proactive)
    hits += [inst for inst in idx.proactive if match_instance(inst, board)]
    floor = bias.floor
    if not hits:
        base = bias.base_score
        return [base if base > floor else floor] * len(legal)
    # Few instances match, so the move slots are looked up only on a hit;
    # weights are added in test order, reactive first.
    scores = [bias.base_score] * len(legal)
    slot = {(m.to, m.from_): i for i, m in enumerate(legal)}
    for inst in hits:
        i = slot.get((inst.action_to, inst.action_from))
        if i is not None:
            scores[i] += inst.weight
    return [s if s > floor else floor for s in scores]


def biased_move_distribution(
    state: GameState,
    legal: list[Move],
    idx: InstanceIndex | None,
    bias: BiasConfig | None = None,
    counters: MatchCounters | None = None,
) -> list[float]:
    """Probability of selecting each legal move, aligned with ``legal``."""
    if not legal:
        raise ValueError("no legal moves")
    bias = bias or BiasConfig()
    scores = biased_scores(state, legal, idx, bias, counters)
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
    bias: BiasConfig | None = None,
    counters: MatchCounters | None = None,
) -> int:
    """Play to the end with the biased policy; returns winner id or 0 (draw).

    Exceeding the playout length cap counts as a draw.
    """
    bias = bias or BiasConfig()
    result = rules.status(state)
    if result is not None:
        raise ValueError("playout requires a non-terminal state")
    max_len = _move_cap(rules)
    plies = 0
    while result is None:
        if plies >= max_len:
            return 0
        legal = rules.legal_moves(state)
        idx = indexes[state.mover] if indexes is not None else None
        scores = biased_scores(state, legal, idx, bias, counters)
        state = rules.apply(state, legal[_sample(scores, rng)])
        plies += 1
        result = rules.status(state)
    return result


class _Node:
    __slots__ = ("move", "parent", "children", "legal", "visits", "value",
                 "mover_who_moved", "terminal_result")

    def __init__(self, move: Move | None, parent: "_Node | None", mover_who_moved: int):
        self.move = move
        self.parent = parent
        self.children: list[_Node] = []
        self.legal: list[Move] | None = None
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
    cfg: SearchConfig,
    bias: BiasConfig | None = None,
    counters: MatchCounters | None = None,
) -> Move:
    """UCT with mean-value backup; playouts biased when indexes are given.

    Runs ``cfg.workers`` independent trees (root parallel contract) and
    returns the move with the highest aggregated root visit count; with a
    single worker this is plain UCT.  Deterministic for a given seed.

    With ``playouts_per_move`` at most the number of legal moves the move
    is fixed: expansion tries untried moves in legal order, so each root
    child gets at most one visit, and the first-index tie-break returns
    the first legal move whatever the seed, bias or feature set.  On hex7
    at 30 playouts per move the first 20 plies of a game from the empty
    board are therefore cells 0, 1, ..., 19.
    """
    if rules.status(state) is not None:
        raise ValueError("search requires a non-terminal state")
    bias = bias or BiasConfig()
    root_legal = rules.legal_moves(state)
    tallies = [0] * len(root_legal)
    for worker in range(cfg.workers):
        rng = SplitMix64(derive_seed(cfg.seed, worker))
        visits = _search_tree(state, rules, indexes, cfg, bias, rng, counters)
        for i, v in enumerate(visits):
            tallies[i] += v
    best = 0
    for i in range(1, len(tallies)):
        if tallies[i] > tallies[best]:
            best = i
    return root_legal[best]


def _search_tree(
    state: GameState,
    rules: GameRules,
    indexes: PlayerIndexes | None,
    cfg: SearchConfig,
    bias: BiasConfig,
    rng: SplitMix64,
    counters: MatchCounters | None,
) -> list[int]:
    """One UCT tree; returns per-root-move visit counts in legal order."""
    c = UCT_EXPLORATION
    root = _Node(None, None, 3 - state.mover)
    root.legal = rules.legal_moves(state)

    for _ in range(cfg.playouts_per_move):
        node = root
        cur = state
        # Selection: descend while fully expanded.
        while node.terminal_result is None and node.legal is not None and len(node.children) == len(node.legal):
            if not node.children:
                break  # no-legal-move dead end, backed up as a draw below
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
                result = rules.status(cur)
                if result is not None:
                    node.terminal_result = result
                    node.legal = []
                else:
                    node.legal = rules.legal_moves(cur)

        if node.terminal_result is not None:
            _backup(node, node.terminal_result)
            continue
        if not node.legal:
            _backup(node, 0)
            continue

        # Expansion: next untried move in legal order, then one playout.
        move = node.legal[len(node.children)]
        child = _Node(move, node, cur.mover)
        node.children.append(child)
        cur = rules.apply(cur, move)
        result = rules.status(cur)
        if result is not None:
            child.terminal_result = result
            child.legal = []
            winner = result
        else:
            winner = run_playout(cur, rules, indexes, rng, bias, counters)
        _backup(child, winner)

    visits = [0] * len(root.legal)
    by_move = {child.move: child.visits for child in root.children}
    for i, m in enumerate(root.legal):
        visits[i] = by_move.get(m, 0)
    return visits


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
    bias: BiasConfig = field(default_factory=BiasConfig)

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
    workers: int,
) -> int:
    state = rules.initial_state()
    max_moves = _move_cap(rules)
    ply = 0
    result = rules.status(state)
    while result is None and ply < max_moves:
        spec, indexes = agents[state.mover]
        ply_seed = derive_seed(game_seed, ply)
        if spec.playouts == 0:
            legal = rules.legal_moves(state)
            idx = indexes[state.mover] if indexes is not None else None
            scores = biased_scores(state, legal, idx, spec.bias)
            move = legal[_sample(scores, SplitMix64(ply_seed))]
        else:
            cfg = SearchConfig(
                playouts_per_move=spec.playouts,
                seed=ply_seed,
                workers=workers,
            )
            move = mcts_best_move(state, rules, indexes, cfg, spec.bias)
        state = rules.apply(state, move)
        ply += 1
        result = rules.status(state)
    return result if result is not None else 0


def play_match(
    rules: GameRules,
    agent_a: AgentSpec,
    agent_b: AgentSpec,
    games: int,
    seed: int,
    workers: int = 1,
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
        winner = _play_one_game(rules, agents, game_seed, workers)
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
