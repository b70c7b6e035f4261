"""Per-call cost of the compile layer, untraced, on the tuning candidates.

Builds the candidate feature set of the benchmark's hex7-tune-candidates
workload (its rules and generation bound at full size, taken from
``perfbench/workloads.py``) and, for each mover, times one
``instancer.instantiate`` call with the garbage collector off, twice:

    cold   the compile memo is cleared before each pass, so the call
           compiles the set in full
    hit    the set's structure is in the memo, so the call builds fresh
           instances from it and sums the weights

It also times the cold pair: mover 1's call and then mover 2's from a
cleared memo, where the second compile borrows the first one's walk plan
and its tables.  That is what a one-off ``match`` or ``evaluate`` pays,
and no end-to-end metric of the benchmark shows it, since every workload
compiles during its set-up.

Inside each hit it also times the walk calls that the hit replays
(``instancer._replay_walk_calls``, rebound to a timing wrapper for the
call), and gives their share of that same call: the part of a hit that
only keeps the benchmark's frozen count of walk calls.  The share printed
is the median over ``--repeat`` hits; the times printed are the best of
``--repeat`` calls, in seconds per call.

The traced ``instancer.instantiate.self_s`` is no use here: the tracer
opens a span for each of the ~300,000 walk calls of one compile.

Usage: python3 tools/compile.py [--repeat 5] [--json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from geoweave import instancer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from timing import best_s, rebinding  # noqa: E402

TUNE = WORKLOADS["hex7-tune-candidates"]


def cold_compile(fs, graph, mover: int):
    """The instance count and the walk call count of one cold compile."""
    resolve = instancer.resolve_walk_branches
    calls = 0

    def counting(graph, anchor, start_dir, walk, memo=None):
        nonlocal calls
        calls += 1
        return resolve(graph, anchor, start_dir, walk, memo)

    instancer.clear_memo()
    with rebinding(instancer, resolve_walk_branches=counting):
        index = instancer.instantiate(fs, graph, mover)
    return len(index.instances), calls


def timed_hit(fs, graph, mover: int) -> tuple[float, float]:
    """Seconds of one memo-hit ``instantiate`` call and of the walk replay
    inside it."""
    replay = instancer._replay_walk_calls
    inside = []

    def timing(*args):
        start = time.perf_counter()
        replay(*args)
        inside.append(time.perf_counter() - start)

    with rebinding(instancer, _replay_walk_calls=timing):
        hit = best_s(lambda: instancer.instantiate(fs, graph, mover), 1)
    (replayed,) = inside  # exactly one replay: the call hit the memo
    return hit, replayed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    rules, fs = TUNE.setup(TUNE.sizes["full"])
    graph = rules.graph
    movers = {}
    for mover in (1, 2):
        instances, calls = cold_compile(fs, graph, mover)

        def compile_once(mover=mover):
            instancer.instantiate(fs, graph, mover)

        cold = best_s(compile_once, args.repeat, setup=instancer.clear_memo)
        compile_once()
        hits = [timed_hit(fs, graph, mover) for _ in range(args.repeat)]
        movers[mover] = {
            "instances": instances,
            "walk_calls": calls,
            "cold_s": round(cold, 4),
            "hit_s": round(min(hit for hit, _ in hits), 4),
            "hit_walk_replay_s": round(min(replay for _, replay in hits), 4),
            "hit_walk_replay_share": round(statistics.median(replay / hit for hit, replay in hits), 3),
        }

    def cold_pair():
        instancer.instantiate(fs, graph, 1)
        instancer.instantiate(fs, graph, 2)

    cold_pair_s = best_s(cold_pair, args.repeat, setup=instancer.clear_memo)
    report = {"candidates": len(fs), "repeat": args.repeat, "cold_pair_s": round(cold_pair_s, 4),
              "movers": movers}
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"hex7-tune-candidates: {len(fs)} candidates; best of {args.repeat}, GC off, untraced")
    for mover, m in movers.items():
        print(f"  mover {mover}: {m['instances']} instances, {m['walk_calls']} walk calls; "
              f"cold {m['cold_s']:.4f} s, hit {m['hit_s']:.4f} s "
              f"(walk replay {m['hit_walk_replay_s']:.4f} s, {m['hit_walk_replay_share']:.0%})")
    print(f"  cold pair (mover 1, then mover 2): {report['cold_pair_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
