"""Per-call cost of the play loop's layers, untraced, on recorded plies.

Plays case ``CASE`` (``tools/timing.py``) of the benchmark's line4-policy
and hex7-mcts-bridge workloads at full size, each through its own set-up
and call in ``perfbench/workloads.py``, and records every ply that the
biased agent samples: the position, its legal moves, the scores and the
move that was sampled; and every biased playout: its start position, its
RNG state and its winner.  The policy agent's plies are its moves, the
bridge agent's the plies of its playouts.  Then it times each layer on
exactly those plies, with the garbage collector off, and reports the best
of ``--repeat`` passes in reference time (``tools/timing.py``), so two
runs compare.  Per workload:

    plies, playouts     what was recorded
    unit_score_share    share of the plies whose every score is 1.0
    tests_per_ply       instances that biased_scores tests per ply
    us_per_call
      legal_moves       GameRules.legal_moves(state)
      biased_scores     search.biased_scores(state, legal, idx)
      _sample           search._sample(scores, rng)
      apply             GameRules.apply(state, move)
      win_check         rules._placed(child.board, state.groups,
                        state.mover, move): the win check that
                        apply(state, move) makes
      playout_ply       whole search.run_playout calls replayed from each
                        recorded start and RNG state, their time over the
                        plies; only for a workload that ran playouts
    match_instance_ns_per_test
                        instancer.match_instance(inst, state.board) for
                        each instance that biased_scores tests on each
                        ply: the reactive bucket, then the proactive list

and, as a guard for large boards, ``hex19_group3``: ``match_instance`` of
every group3.fs instance on ``BOARDS`` random hex19 boards, in ns/test.

Every replayed playout must return its recorded winner, or the tool stops
with an error.  It prints one JSON object.

Usage: python3 tools/plies.py [--repeat 5]
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
from timing import CASE, best_s, per_call_us, rebinding  # noqa: E402

SEED = REGRESSION_SEED + CASE
PLAYED = ("line4-policy", "hex7-mcts-bridge")
BOARDS = 20  # random hex19 boards of the large-board guard


def record_plies(workload):
    """The rules, every biased-agent ply of one full-size match of
    ``workload`` in play order, and every biased playout as (start,
    indexes, RNG state, winner)."""
    size = workload.sizes["full"]
    prepared = workload.setup(size)
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
        workload.call(prepared, size, SEED)
    return prepared[0], plies, playouts


def replay_playouts(rules, playouts) -> None:
    """Play each recorded playout again from its start and RNG state."""
    run_playout = search.run_playout
    for state, indexes, start, winner in playouts:
        if run_playout(state, rules, indexes, SplitMix64(start)) != winner:
            raise SystemExit("plies: a replayed playout did not return its recorded winner")


def per_test_ns(pairs: list, repeat: int) -> float:
    """Best pass of ``match_instance`` over ``pairs`` of (board's int,
    instances), in nanoseconds per test."""

    def run():
        for bits, instances in pairs:
            for inst in instances:
                match_instance(inst, bits)

    return best_s(run, repeat) / sum(len(i) for _, i in pairs) * 1e9


def workload_report(name: str, repeat: int) -> dict:
    rules, plies, playouts = record_plies(WORKLOADS[name])
    rng = SplitMix64(SEED)
    us = {
        "legal_moves": per_call_us(rules.legal_moves, [(p[0],) for p in plies], repeat),
        "biased_scores": per_call_us(search.biased_scores, [p[:3] for p in plies], repeat),
        "_sample": per_call_us(search._sample, [(p[3], rng) for p in plies], repeat),
        "apply": per_call_us(rules.apply, [(p[0], p[4]) for p in plies], repeat),
        "win_check": per_call_us(
            rules._placed,
            [(rules.apply(p[0], p[4]).board, p[0].groups, p[0].mover, p[4]) for p in plies],
            repeat),
    }
    if playouts:
        us["playout_ply"] = best_s(lambda: replay_playouts(rules, playouts), repeat) / len(plies) * 1e6
    pairs = [(state.board, [*idx.reactive_for(state.last_move), *idx.proactive])
             for state, _, idx, _, _ in plies]
    return {
        "plies": len(plies),
        "playouts": len(playouts),
        "unit_score_share": round(sum(all(s == 1.0 for s in p[3]) for p in plies) / len(plies), 4),
        "tests_per_ply": round(sum(len(i) for _, i in pairs) / len(plies), 2),
        "us_per_call": {k: round(v, 3) for k, v in us.items()},
        "match_instance_ns_per_test": round(per_test_ns(pairs, repeat), 1),
    }


def hex19_pairs() -> list:
    """``BOARDS`` random hex19 boards, as their ints, each with every
    group3.fs instance of player 1.  A random board may hold a win, which
    ``position`` would refuse or finish, so the boards are packed here."""
    graph = gw.hex_rules(19).graph
    instances = instantiate(gw.load_feature_set(FIXTURES / "group3.fs"), graph, 1).instances
    rng = SplitMix64(SEED)
    return [(sum(rng.next_u64() % 3 << c * gw.CHUNK_BITS for c in range(graph.cell_count)), instances)
            for _ in range(BOARDS)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)

    report = {"case": CASE, "seed": SEED, "repeat": args.repeat}
    for name in PLAYED:
        report[name] = workload_report(name, args.repeat)
    large = hex19_pairs()
    report["hex19_group3"] = {
        "boards": BOARDS,
        "instances": len(large[0][1]),
        "match_instance_ns_per_test": round(per_test_ns(large, args.repeat), 1),
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
