"""Per-call cost of the compile layer, untraced, on the tuning candidates.

Builds the candidate feature set of the benchmark's hex7-tune-candidates
workload (its rules and generation bound at full size, taken from
``perfbench/workloads.py``) and, for each mover, times one
``instancer.instantiate`` call with the garbage collector off.  Next to it,
it times the same ``resolve_walk_branches`` calls replayed alone, in the
same order and with a fresh walk memo per pass: the walk work that every
compile of this set must do, which bounds how fast ``instantiate`` can get
without resolving fewer walks.  It prints the best of ``--repeat`` passes
in seconds per call.

The traced ``instancer.instantiate.self_s`` is no use here: the tracer
opens a span for each of the ~300,000 walk calls of one compile.

Usage: python3 tools/compile.py [--repeat 5] [--json]
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

from geoweave import instancer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

TUNE = WORKLOADS["hex7-tune-candidates"]


def record_walk_calls(fs, graph, mover: int):
    """The instance count of one compile, and its walk calls in order."""
    resolve = instancer.resolve_walk_branches
    calls = []

    def recording(graph, anchor, start_dir, walk, memo=None):
        calls.append((anchor, start_dir, walk))
        return resolve(graph, anchor, start_dir, walk, memo)

    instancer.resolve_walk_branches = recording
    try:
        index = instancer.instantiate(fs, graph, 2, mover)
    finally:
        instancer.resolve_walk_branches = resolve
    return len(index.instances), calls


def best_s(fn, repeat: int) -> float:
    """Best of ``repeat`` timed calls of ``fn()``, in seconds."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    rules, fs = TUNE.setup(TUNE.sizes["full"])
    graph = rules.graph
    resolve = instancer.resolve_walk_branches
    movers = {}
    for mover in (1, 2):
        instances, calls = record_walk_calls(fs, graph, mover)

        def replay(calls=calls):
            memo: dict = {}
            for anchor, start_dir, walk in calls:
                resolve(graph, anchor, start_dir, walk, memo)

        movers[mover] = {
            "instances": instances,
            "walk_calls": len(calls),
            "instantiate_s": round(best_s(lambda: instancer.instantiate(fs, graph, 2, mover),
                                          args.repeat), 4),
            "walks_alone_s": round(best_s(replay, args.repeat), 4),
        }
    report = {"candidates": len(fs), "repeat": args.repeat, "movers": movers}
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"hex7-tune-candidates: {len(fs)} candidates; best of {args.repeat}, GC off, untraced")
    for mover, m in movers.items():
        print(f"  mover {mover}: {m['instances']} instances, {m['walk_calls']} walk calls; "
              f"instantiate {m['instantiate_s']:.4f} s, walks alone {m['walks_alone_s']:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
