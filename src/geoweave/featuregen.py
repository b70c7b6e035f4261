"""Candidate feature generation and weight tuning.

Candidates are built around each game's minimum pattern — for placement
games, an empty cell at the action's "to" site — and enumerate small
element combinations over short walks, whose turns come from the side
counts of the board's cells, so every rules class on every tiling gets
candidates from the same code.  Weight tuning is a deliberately
simple coordinate hill-climb scored by match play against the vanilla
MCTS baseline; pattern mining from random self-play is intentionally
absent (it is known not to work well enough to pay for itself).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .dsl import feature_set_hash
from .features import (
    EMPTY,
    ENEMY,
    FRIEND,
    OFF,
    Feature,
    FeatureSet,
    PatternElement,
)
from .games import GameRules
from .rng import derive_seed
from .search import AgentSpec, play_match
from .walks import Walk, make_walk


class GenError(ValueError):
    pass


@dataclass
class GenConfig:
    max_elements: int = 3
    max_walk_length: int = 2
    include_reactive: bool = False

    def __post_init__(self):
        if self.max_elements < 1 or self.max_walk_length < 1:
            raise GenError("bounds must be >= 1")


_EXTRA_KINDS = (EMPTY, FRIEND, ENEMY, OFF)


def default_vocabulary(rules: GameRules) -> tuple[Fraction, ...]:
    """Every turn ``k/s`` for each side count ``s`` of the board's cells
    and ``0 <= k <= s // 2``, ascending, each followed by its negation
    except 0 and 1/2: for hex ``(0, 1/6, -1/6, 1/3, -1/3, 1/2)``."""
    turns = sorted({Fraction(k, s) for s in set(rules.graph.sides) for k in range(s // 2 + 1)})
    half = Fraction(1, 2)
    return make_walk([t for turn in turns for t in ((turn,) if turn in (0, half) else (turn, -turn))])


def _walks_up_to(vocab: tuple[Fraction, ...], max_len: int) -> list[Walk]:
    return [
        make_walk(combo)
        for length in range(1, max_len + 1)
        for combo in itertools.product(vocab, repeat=length)
    ]


def generate_candidates(rules: GameRules, cfg: GenConfig | None = None) -> list[Feature]:
    """Enumerate candidate features for a game, minimum pattern included.

    Placement games force an EMPTY constraint at the anchor, which is also
    the action's "to" site; extra elements draw from empty/friend/enemy/
    off-board over all walks up to the configured length.  Output order is
    deterministic, and the candidates are distinct by construction: they
    take distinct combinations of distinct walks with distinct tuples of
    kinds, and the reactive variants of one differ in their last-move walk.
    """
    cfg = cfg or GenConfig()
    walks = _walks_up_to(default_vocabulary(rules), cfg.max_walk_length)
    minimum = PatternElement((), (EMPTY,))

    out: list[Feature] = []
    for extra_count in range(cfg.max_elements):
        for walk_combo in itertools.combinations(walks, extra_count):
            for kinds in itertools.product(_EXTRA_KINDS, repeat=extra_count):
                elements = (minimum,) + tuple(
                    PatternElement(w, (k,)) for w, k in zip(walk_combo, kinds)
                )
                feature = Feature(elements=elements, action=(), weight=1.0)
                out.append(feature)
                if cfg.include_reactive:
                    for w, k in zip(walk_combo, kinds):
                        if k is ENEMY:
                            out.append(replace(feature, last_move=w))
    return out


@dataclass
class EvalRecord:
    feature_set: FeatureSet
    games: int
    win_rate: float
    ci_low: float
    ci_high: float
    seed: int
    playouts: int

    def to_dict(self) -> dict:
        return {
            "featureSetHash": feature_set_hash(self.feature_set),
            "games": self.games,
            "winRate": self.win_rate,
            "ci": [self.ci_low, self.ci_high],
            "seed": self.seed,
            "playouts": self.playouts,
        }


def evaluate_feature_set(
    fs: FeatureSet,
    rules: GameRules,
    games: int,
    seed: int,
    playouts: int = 100,
) -> EvalRecord:
    """Feature-biased MCTS against uniform-playout MCTS at equal playouts."""
    biased = AgentSpec(feature_set=fs, playouts=playouts)
    vanilla = AgentSpec(playouts=playouts)
    result = play_match(rules, biased, vanilla, games, seed)
    return EvalRecord(
        feature_set=fs,
        games=games,
        win_rate=result.win_rate_a,
        ci_low=result.ci_low,
        ci_high=result.ci_high,
        seed=seed,
        playouts=playouts,
    )


@dataclass
class TuneResult:
    best: FeatureSet
    best_record: EvalRecord
    history: list[EvalRecord] = field(default_factory=list)


def hill_climb_weights(
    fs: FeatureSet,
    rules: GameRules,
    budget: int,
    step: float = 0.5,
    seed: int = 0,
    games: int = 50,
    playouts: int = 100,
) -> TuneResult:
    """Coordinate-wise +/-step hill climb on feature weights.

    ``budget`` counts evaluations (match runs).  Every evaluation reuses
    the same derived match seed, so candidate comparisons share their game
    seeds (common-random-numbers variance reduction) and the whole climb
    is deterministic.  A perturbation is kept only when its evaluated win
    rate strictly improves, so the returned set never scores below the
    input set.
    """
    if budget < 1:
        raise GenError("budget must be >= 1")
    if not math.isfinite(step):
        raise GenError("step must be finite")
    match_seed = derive_seed(seed, 0)

    def run(candidate: FeatureSet) -> EvalRecord:
        return evaluate_feature_set(candidate, rules, games, match_seed, playouts)

    history: list[EvalRecord] = []
    best = fs
    best_rec = run(fs)
    history.append(best_rec)
    spent = 1
    coord = 0
    n = len(fs.features)
    while spent < budget and n:
        deltas = (step, -step)
        for delta in deltas:
            if spent >= budget:
                break
            features = list(best.features)
            features[coord] = replace(features[coord], weight=features[coord].weight + delta)
            candidate = FeatureSet(tuple(features), best.name)
            rec = run(candidate)
            history.append(rec)
            spent += 1
            if rec.win_rate > best_rec.win_rate:
                best, best_rec = candidate, rec
                break
        coord = (coord + 1) % n
    return TuneResult(best=best, best_record=best_rec, history=history)


def eval_log(records) -> str:
    """JSON-lines evaluation log, one record per line."""
    return "".join(json.dumps(rec.to_dict(), sort_keys=True) + "\n" for rec in records)
