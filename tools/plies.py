"""Per-ply cost of the playout layers, untraced, on recorded plies.

Plays case ``--case`` of the benchmark's hex7-mcts-bridge workload (its
rules, feature set, match size and seed, taken from
``perfbench/workloads.py``) and records every playout ply of the bridge
agent: the position, its legal moves, the scores and the move that was
sampled; and every bridge playout: its start position, its RNG state and
its winner.  Then it times each layer on exactly those
plies, with the garbage collector off, and prints the best of ``--repeat``
passes in reference microseconds per call (``tools/timing.py``), so two
runs compare:

    legal_moves     GameRules.legal_moves(state)
    biased_scores   search.biased_scores(state, legal, idx)
    _sample         search._sample(scores, rng)
    apply           GameRules.apply(state, move)
    win_check       the per-game placement hook that ``apply`` calls
    playout_ply     whole search.run_playout calls replayed from each
                    recorded start and RNG state: their time over the plies

Every replayed playout must return its recorded winner, or the tool stops
with an error.

Usage: python3 tools/plies.py [--case 5] [--repeat 5] [--json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import geoweave as gw  # noqa: E402
from geoweave import search  # noqa: E402
from geoweave.rng import SplitMix64  # noqa: E402
from perfbench.workloads import REGRESSION_SEED, WORKLOADS  # noqa: E402
from timing import best_s, per_call_us, rebinding  # noqa: E402

BRIDGE = WORKLOADS["hex7-mcts-bridge"]


def record_plies(seed: int):
    """Every bridge-agent playout ply of one full-size match, in play order,
    and every bridge-agent playout as (start, indexes, RNG state, winner)."""
    size = BRIDGE.sizes["full"]
    rules, fs = BRIDGE.setup(size)
    plies = []
    playouts = []
    last = None
    biased_scores, sample, run_playout = search.biased_scores, search._sample, search.run_playout

    def recording_playout(state, rules, indexes, rng, counters=None):
        start = rng.state
        winner = run_playout(state, rules, indexes, rng, counters)
        if indexes is not None:
            playouts.append((state, indexes, start, winner))
        return winner

    def recording_scores(state, legal, idx, counters=None):
        nonlocal last
        scores = biased_scores(state, legal, idx, counters)
        last = (state, legal, idx, scores) if idx is not None else None
        return scores

    def recording_sample(scores, rng):
        i = sample(scores, rng)
        if last is not None and last[3] is scores:
            plies.append((*last, last[1][i]))
        return i

    with rebinding(search, biased_scores=recording_scores, _sample=recording_sample,
                   run_playout=recording_playout):
        gw.play_match(rules, gw.AgentSpec(feature_set=fs, playouts=size.playouts),
                      gw.AgentSpec(playouts=size.playouts), size.games, seed)
    return rules, plies, playouts


def replay_playouts(rules, playouts) -> None:
    """Play each recorded playout again from its start and RNG state."""
    run_playout = search.run_playout
    for state, indexes, start, winner in playouts:
        if run_playout(state, rules, indexes, SplitMix64(start)) != winner:
            raise SystemExit("plies: a replayed playout did not return its recorded winner")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=int, default=5,
                    help=f"benchmark case k, which plays seed {REGRESSION_SEED} + k")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    seed = REGRESSION_SEED + args.case
    rules, plies, playouts = record_plies(seed)
    states = [(p[0],) for p in plies]
    children = [rules.apply(p[0], p[4]) for p in plies]
    rng = SplitMix64(seed)
    timings = {
        "legal_moves": per_call_us(rules.legal_moves, states, args.repeat),
        "biased_scores": per_call_us(search.biased_scores, [p[:3] for p in plies], args.repeat),
        "_sample": per_call_us(search._sample, [(p[3], rng) for p in plies], args.repeat),
        "apply": per_call_us(rules.apply, [(p[0], p[4]) for p in plies], args.repeat),
        "win_check": per_call_us(
            rules._placed,
            [(c.board, p[0].groups, p[0].mover, p[4])
             for p, c in zip(plies, children)],
            args.repeat),
        "playout_ply": best_s(lambda: replay_playouts(rules, playouts), args.repeat) / len(plies) * 1e6,
    }
    unit = sum(all(s == 1.0 for s in p[3]) for p in plies)
    report = {
        "case": args.case,
        "seed": seed,
        "plies": len(plies),
        "playouts": len(playouts),
        "unit_score_share": round(unit / len(plies), 4),
        "repeat": args.repeat,
        "us_per_call": {k: round(v, 3) for k, v in timings.items()},
    }
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"hex7-mcts-bridge case {args.case} (seed {seed}): "
          f"{len(plies)} plies in {len(playouts)} bridge playouts, "
          f"{report['unit_score_share']:.1%} with every score 1.0; "
          f"best of {args.repeat}, GC off, untraced, reference microseconds")
    for name, us in timings.items():
        print(f"  {name:<14} {us:7.3f} us/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
