"""Per-call cost of the scoring layer, untraced, on recorded positions.

Plays case ``--case`` of the benchmark's line4-policy workload (its rules,
feature set, match size and seed, taken from ``perfbench/workloads.py``)
and records every position the biased agent scores.  Then it times, with
the garbage collector off, the best of ``--repeat`` passes over exactly
those positions:

    biased_scores   search.biased_scores(state, legal, idx), us/call
    match_instance  instancer.match_instance(inst, state.board) for each
                    instance that biased_scores tests there: the bare test
                    on the board's int, ns/test

and, as a guard for large boards, ``match_instance`` of every group3.fs
instance on ``--boards`` random hex19 positions (ns/test).

Usage: python3 tools/scores.py [--case 5] [--repeat 5] [--boards 20] [--json]
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
from geoweave.instancer import instantiate, match_instance  # noqa: E402
from geoweave.rng import SplitMix64  # noqa: E402
from perfbench.workloads import FIXTURES, REGRESSION_SEED, WORKLOADS  # noqa: E402
from timing import best_s, per_call_us, rebinding  # noqa: E402

POLICY = WORKLOADS["line4-policy"]


def record_positions(seed: int) -> list:
    """The arguments of every biased-agent ``biased_scores`` call of one
    full-size match, in play order."""
    size = POLICY.sizes["full"]
    rules, fs = POLICY.setup(size)
    calls = []
    biased_scores = search.biased_scores

    def recording(state, legal, idx, counters=None):
        if idx is not None:
            calls.append((state, legal, idx))
        return biased_scores(state, legal, idx, counters)

    with rebinding(search, biased_scores=recording):
        gw.play_match(rules, gw.AgentSpec(feature_set=fs), gw.AgentSpec(), size.games, seed)
    return calls


def tested(state, idx) -> list:
    """The instances ``biased_scores`` tests on ``state``, in its order."""
    bucket = idx.reactive_for(state.last_move.to) if state.last_move is not None else []
    return [*bucket, *idx.proactive]


def per_test_ns(pairs: list, repeat: int) -> float:
    """Best pass of ``match_instance`` over ``pairs`` of (board's int,
    instances), in nanoseconds per test."""

    def run():
        for bits, instances in pairs:
            for inst in instances:
                match_instance(inst, bits)

    return best_s(run, repeat) / sum(len(i) for _, i in pairs) * 1e9


def hex19_pairs(boards: int, seed: int) -> list:
    """``boards`` random hex19 positions, each with every group3.fs
    instance of player 1."""
    rules = gw.hex_rules(19)
    instances = instantiate(gw.load_feature_set(FIXTURES / "group3.fs"), rules.graph, 1).instances
    rng = SplitMix64(seed)
    cells = rules.graph.cell_count
    return [(rules.position([rng.next_u64() % 3 for _ in range(cells)], 1).board, instances)
            for _ in range(boards)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=int, default=5,
                    help=f"benchmark case k, which plays seed {REGRESSION_SEED} + k")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--boards", type=int, default=20, help="random hex19 positions")
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    seed = REGRESSION_SEED + args.case
    calls = record_positions(seed)
    pairs = [(state.board, tested(state, idx)) for state, _, idx in calls]
    tests = sum(len(i) for _, i in pairs)
    scores_us = per_call_us(search.biased_scores, calls, args.repeat)
    large = hex19_pairs(args.boards, seed)
    report = {
        "case": args.case,
        "seed": seed,
        "positions": len(calls),
        "tests_per_position": round(tests / len(calls), 2),
        "repeat": args.repeat,
        "biased_scores_us_per_call": round(scores_us, 3),
        "match_instance_ns_per_test": round(per_test_ns(pairs, args.repeat), 1),
        "hex19_group3": {
            "boards": args.boards,
            "instances": len(large[0][1]),
            "match_instance_ns_per_test": round(per_test_ns(large, args.repeat), 1),
        },
    }
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"line4-policy case {args.case} (seed {seed}): {len(calls)} scored positions, "
          f"{report['tests_per_position']} instance tests each; "
          f"best of {args.repeat}, GC off, untraced")
    print(f"  biased_scores   {report['biased_scores_us_per_call']:9.3f} us/call")
    print(f"  match_instance  {report['match_instance_ns_per_test']:9.1f} ns/test")
    h = report["hex19_group3"]
    print(f"hex19, group3.fs, {h['boards']} random positions x {h['instances']} instances:")
    print(f"  match_instance  {h['match_instance_ns_per_test']:9.1f} ns/test")
    return 0


if __name__ == "__main__":
    sys.exit(main())
