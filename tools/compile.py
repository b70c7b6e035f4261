"""Per-call cost of the compile layer, untraced, on the tuning candidates.

Builds the candidate feature set of the benchmark's hex7-tune-candidates
workload (its rules and generation bound at full size, taken from
``perfbench/workloads.py``) and, for each mover, times one
``instancer.instantiate`` call with the garbage collector off, twice:

    cold   the compile memo is cleared before each pass, so the call
           compiles the set in full
    hit    the set's structure is in the memo, so the call builds fresh
           instances from it and sums the weights

Next to the hit it times the walk calls a hit replays alone
(``instancer._replay_walk_calls``), and gives their share of the hit: the
part of a hit that only keeps the benchmark's frozen count of walk calls.
Each pass times the hit and the replay three times each, alternating, and
takes the share from the best of each in that pass, so that one slow
timing under a shared machine's load does not tip it; the share printed
is the median over the passes.  It prints the best of ``--repeat`` passes
in seconds per call.

The traced ``instancer.instantiate.self_s`` is no use here: the tracer
opens a span for each of the ~300,000 walk calls of one compile.

Usage: python3 tools/compile.py [--repeat 5] [--json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from geoweave import instancer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from timing import best_s, rebinding  # noqa: E402

TUNE = WORKLOADS["hex7-tune-candidates"]
# Timings of the hit and of its replay in each pass.
PASS_TIMINGS = 3


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
        index = instancer.instantiate(fs, graph, 2, mover)
    return len(index.instances), calls


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
            instancer.instantiate(fs, graph, 2, mover)

        cold = best_s(compile_once, args.repeat, setup=instancer.clear_memo)
        compile_once()

        def replay_once():
            instancer._replay_walk_calls(fs, graph)

        # Per pass: the best of three hits and of three replays, timed in
        # turn, so that the share compares timings made under the same load.
        passes = []
        for _ in range(args.repeat):
            times = [(best_s(compile_once, 1), best_s(replay_once, 1)) for _ in range(PASS_TIMINGS)]
            passes.append((min(hit for hit, _ in times), min(replay for _, replay in times)))
        movers[mover] = {
            "instances": instances,
            "walk_calls": calls,
            "cold_s": round(cold, 4),
            "hit_s": round(min(hit for hit, _ in passes), 4),
            "hit_walk_replay_s": round(min(replay for _, replay in passes), 4),
            "hit_walk_replay_share": round(statistics.median(replay / hit for hit, replay in passes), 3),
        }
    report = {"candidates": len(fs), "repeat": args.repeat, "movers": movers}
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"hex7-tune-candidates: {len(fs)} candidates; best of {args.repeat}, GC off, untraced")
    for mover, m in movers.items():
        print(f"  mover {mover}: {m['instances']} instances, {m['walk_calls']} walk calls; "
              f"cold {m['cold_s']:.4f} s, hit {m['hit_s']:.4f} s "
              f"(walk replay {m['hit_walk_replay_s']:.4f} s, {m['hit_walk_replay_share']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
