"""Per-ply cost of the playout layers, untraced, on recorded plies.

Plays case ``--case`` of the benchmark's hex7-mcts-bridge workload (its
rules, feature set, match size and seed, taken from
``perfbench/workloads.py``) and records every playout ply of the bridge
agent: the position, its legal moves, the scores and the move that was
sampled.  Then it times each layer on exactly those
plies, with the garbage collector off, and prints the best of ``--repeat``
passes in microseconds per call:

    legal_moves     GameRules.legal_moves(state)
    biased_scores   search.biased_scores(state, legal, idx, bias)
    _sample         search._sample(scores, rng)
    apply           GameRules.apply(state, move)
    win_check       the per-game placement hook that ``apply`` calls

Usage: python3 tools/plies.py [--case 5] [--repeat 5] [--json]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import geoweave as gw  # noqa: E402
from geoweave import search  # noqa: E402
from geoweave.rng import SplitMix64  # noqa: E402
from perfbench.workloads import REGRESSION_SEED, WORKLOADS  # noqa: E402

BRIDGE = WORKLOADS["hex7-mcts-bridge"]


def record_plies(seed: int):
    """Every bridge-agent playout ply of one full-size match, in play order."""
    size = BRIDGE.sizes["full"]
    rules, fs = BRIDGE.setup(size)
    plies = []
    last = None
    biased_scores, sample = search.biased_scores, search._sample

    def recording_scores(state, legal, idx, bias, counters=None):
        nonlocal last
        scores = biased_scores(state, legal, idx, bias, counters)
        last = (state, legal, idx, bias, scores) if idx is not None else None
        return scores

    def recording_sample(scores, rng):
        i = sample(scores, rng)
        if last is not None and last[4] is scores:
            plies.append((*last, last[1][i]))
        return i

    search.biased_scores, search._sample = recording_scores, recording_sample
    try:
        gw.play_match(rules, gw.AgentSpec(feature_set=fs, playouts=size.playouts),
                      gw.AgentSpec(playouts=size.playouts), size.games, seed)
    finally:
        search.biased_scores, search._sample = biased_scores, sample
    return rules, plies


def best_us(fn, args: list, repeat: int) -> float:
    """Best pass over ``args`` of ``fn(*a)``, in microseconds per call."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            for a in args:
                fn(*a)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best / len(args) * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=int, default=5,
                    help=f"benchmark case k, which plays seed {REGRESSION_SEED} + k")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    seed = REGRESSION_SEED + args.case
    rules, plies = record_plies(seed)
    states = [(p[0],) for p in plies]
    children = [rules.apply(p[0], p[5]) for p in plies]
    rng = SplitMix64(seed)
    timings = {
        "legal_moves": best_us(rules.legal_moves, states, args.repeat),
        "biased_scores": best_us(search.biased_scores, [p[:4] for p in plies], args.repeat),
        "_sample": best_us(search._sample, [(p[4], rng) for p in plies], args.repeat),
        "apply": best_us(rules.apply, [(p[0], p[5]) for p in plies], args.repeat),
        "win_check": best_us(
            rules._placed,
            [(p[0], c.board, p[5].to, c.move_number) for p, c in zip(plies, children)],
            args.repeat),
    }
    unit = sum(all(s == 1.0 for s in p[4]) for p in plies)
    report = {
        "case": args.case,
        "seed": seed,
        "plies": len(plies),
        "unit_score_share": round(unit / len(plies), 4),
        "repeat": args.repeat,
        "us_per_call": {k: round(v, 3) for k, v in timings.items()},
    }
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"hex7-mcts-bridge case {args.case} (seed {seed}): "
          f"{len(plies)} bridge playout plies, "
          f"{report['unit_score_share']:.1%} with every score 1.0; "
          f"best of {args.repeat}, GC off, untraced")
    for name, us in timings.items():
        print(f"  {name:<14} {us:7.3f} us/call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
