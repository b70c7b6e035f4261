"""Per-call cost of the compile layer, untraced, on the tuning candidates.

Builds the candidate feature set of the benchmark's hex7-tune-candidates
workload (its rules and generation bound at full size, taken from
``perfbench/workloads.py``) and, for each mover, times one
``instancer.instantiate`` call with the garbage collector off, twice:

    cold   the compile memo is cleared before each pass, so the call
           compiles the set in full
    hit    the set's structure is in the memo, so the call hands back the
           memo's instances, sums each distinct recipe's weights once and
           gives every instance its recipe's sum

Each mover's report also counts its instances, the walk calls of its
cold compile and its distinct recipes (``distinct_recipes``): the distinct
``inst.features`` tuples, each the positions of the features whose
weights an instance sums.

It also times the cold pair: ``compile_feature_set``, mover 1's call and
then mover 2's from a cleared memo, where the second compile borrows the
first one's walk plan and its tables.  That is what a one-off ``match`` or
``evaluate`` pays, and no end-to-end metric of the benchmark shows it,
since every workload compiles during its set-up.  One more pass, untimed,
gives the cold pair's peak memory under ``tracemalloc`` in MB
(``cold_pair_peak_mb``) and what it keeps (``cold_pair_kept_mb``): the
traced memory still held after the pass, which is the two movers' memo
entries with their shared walk plan; the timed passes run untraced.

Inside each hit it also times the walk calls that the hit replays
(``instancer._replay_walk_calls``, rebound to a timing wrapper for the
call), and gives their share of that same call in wall time: the part of
a hit that only keeps the benchmark's frozen count of walk calls.  The
share printed is the median over ``--repeat`` hits; the times printed are
the best of ``--repeat`` calls, in reference seconds per call
(``tools/timing.py``).

The traced ``instancer.instantiate.self_s`` is no use here: the tracer
opens a span for each of the ~300,000 walk calls of one compile.

Usage: python3 tools/compile.py [--repeat 5] [--json]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from geoweave import instancer  # noqa: E402
from geoweave.search import compile_feature_set  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from timing import best_s, rebinding, reference_s  # noqa: E402

TUNE = WORKLOADS["hex7-tune-candidates"]


def cold_compile(fs, graph, mover: int):
    """The instance count, the walk call count and the distinct recipe
    count of one cold compile."""
    resolve = instancer.resolve_walk_branches
    calls = 0

    def counting(graph, anchor, start_dir, walk, memo=None):
        nonlocal calls
        calls += 1
        return resolve(graph, anchor, start_dir, walk, memo)

    instancer.clear_memo()
    with rebinding(instancer, resolve_walk_branches=counting):
        index = instancer.instantiate(fs, graph, mover)
    return len(index.instances), calls, len({inst.features for inst in index.instances})


def timed_hit(fs, graph, mover: int, probe: SpeedProbe) -> tuple[float, float]:
    """Wall seconds of one memo-hit ``instantiate`` call and of the walk
    replay inside it; ``probe.samples`` holds the call's samples after."""
    replay = instancer._replay_walk_calls
    inside = []

    def timing(*args):
        taken = len(probe.samples)
        start = time.perf_counter()
        replay(*args)
        # Less the probe's samples, as the call's own wall time is.
        inside.append(time.perf_counter() - start - sum(probe.samples[taken:]))

    gc.disable()
    try:
        with rebinding(instancer, _replay_walk_calls=timing):
            wall = probe.timed(instancer.instantiate, fs, graph, mover)[1]
    finally:
        gc.enable()
    (replayed,) = inside  # exactly one replay: the call hit the memo
    return wall, replayed


def traced_mb(fn) -> tuple[float, float]:
    """The ``tracemalloc`` peak of one ``fn()`` call and what is still
    traced after it, its result dropped and garbage collected, in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
        return peak / 1e6, kept / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)

    rules, fs = TUNE.setup(TUNE.sizes["full"])
    graph = rules.graph
    probe = SpeedProbe()
    movers = {}
    for mover in (1, 2):
        instances, calls, recipes = cold_compile(fs, graph, mover)

        def compile_once(mover=mover):
            instancer.instantiate(fs, graph, mover)

        cold = best_s(compile_once, args.repeat, setup=instancer.clear_memo)
        compile_once()
        hits, samples = [], []
        for _ in range(args.repeat):
            hits.append(timed_hit(fs, graph, mover, probe))
            samples += probe.samples
        movers[mover] = {
            "instances": instances,
            "walk_calls": calls,
            "distinct_recipes": recipes,
            "cold_s": round(cold, 4),
            "hit_s": round(reference_s(min(wall for wall, _ in hits), samples), 4),
            "hit_walk_replay_s": round(reference_s(min(replay for _, replay in hits), samples), 4),
            "hit_walk_replay_share": round(statistics.median(replay / wall for wall, replay in hits), 3),
        }

    def cold_pair():
        compile_feature_set(fs, rules)

    cold_pair_s = best_s(cold_pair, args.repeat, setup=instancer.clear_memo)
    instancer.clear_memo()
    peak, kept = traced_mb(cold_pair)
    report = {"candidates": len(fs), "repeat": args.repeat, "cold_pair_s": round(cold_pair_s, 4),
              "cold_pair_peak_mb": round(peak, 3), "cold_pair_kept_mb": round(kept, 3), "movers": movers}
    if args.json:
        print(json.dumps(report))
        return 0
    print(f"hex7-tune-candidates: {len(fs)} candidates; best of {args.repeat}, GC off, untraced, "
          "reference seconds")
    for mover, m in movers.items():
        print(f"  mover {mover}: {m['instances']} instances ({m['distinct_recipes']} distinct recipes), "
              f"{m['walk_calls']} walk calls; "
              f"cold {m['cold_s']:.4f} s, hit {m['hit_s']:.4f} s "
              f"(walk replay {m['hit_walk_replay_s']:.4f} s, {m['hit_walk_replay_share']:.0%})")
    print(f"  cold pair (mover 1, then mover 2): {report['cold_pair_s']:.4f} s, "
          f"peak {report['cold_pair_peak_mb']:.3f} MB, kept {report['cold_pair_kept_mb']:.3f} MB "
          "(tracemalloc, untimed pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
