"""geoweave benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload line4-policy --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from that
checkout's ``src``.  ``--trace 0`` sets the workload up several times, then
repeats its timed library call for about ``--seconds`` seconds and reports
the end-to-end metrics, timed in reference seconds (see speed.py).  ``--trace 1`` does the same untraced measurement,
then one traced set-up plus call, and reports the per-layer metrics.
Every call's outcome (and, traced, its exact work counts) is compared with
the values stored in ``expected.json`` for the workload and its case,
``seed mod CASES``; ``--record`` rewrites those values.  The last line of
standard output is the result; the line before it holds the details and
the environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Each workload runs single-threaded: keep numeric libraries off thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# Set up at least SETUP_MIN times and until SETUP_SECONDS have passed (at
# most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 2.0


def _import_program() -> None:
    """Put the checkout's sources first on the path, or stop without a result."""
    if not (ROOT / "src" / "geoweave" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise SystemExit(f"perfbench: no geoweave sources (src/, fixtures/) under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # play_match imports the compiled engine (and numpy) on its first call;
    # import it here so that one-off cost stays out of the timed calls.
    from geoweave import fastpath  # noqa: F401


def environment(rules) -> dict:
    import numpy

    import geoweave as gw
    from geoweave import fastpath

    compiled, why = fastpath.supports(rules, gw.AgentSpec(), gw.AgentSpec())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "numba": fastpath.NUMBA_AVAILABLE,
        "engine": "numba" if compiled else "python",
        "engine_reason": "play_match(engine='auto') takes the compiled kernels" if compiled else why,
    }


def work_counts(tracer) -> dict:
    """Exact work done in a traced session; repeats for a seed."""
    from spans import SPAN_NAMES

    counts = {f"{name}.calls": tracer.get(name).calls for name in SPAN_NAMES}
    counts["featuregen.candidates"] = tracer.get("featuregen.generate_candidates").work
    counts["instancer.instances"] = tracer.get("instancer.instantiate").work
    counts["instancer.match_instance.hits"] = tracer.get("instancer.match_instance").work
    counts["search.score_tests"] = tracer.by_parent[("search.biased_scores", "instancer.match_instance")]
    counts["search.playout_plies"] = tracer.by_parent[("search.run_playout", "games.apply")]
    return counts


def traced_session(workload, size, seed: int):
    """One set-up and one call under the tracer: (tracer, outcome, wall, error)."""
    from spans import Tracer

    tracer = Tracer()
    outcome, error = None, None
    with tracer.installed():
        start = time.perf_counter()
        try:
            prepared = tracer.span("bench.setup", workload.setup, size)
            outcome = tracer.span("bench.call", workload.call, prepared, size, seed)
        except Exception as exc:  # counted as a failed call, reported below
            error = f"traced call raised {exc!r}"
        wall = time.perf_counter() - start
    return tracer, outcome, wall, error


def _per_call(total: float, calls: int) -> float:
    """Microseconds per call."""
    return 1e6 * total / calls if calls else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# Layers whose self time is reported; the rest of the traced wall time
# (match and tuning loops, move sampling, the benchmark's own code) is
# reported as trace.other_s.
SELF_TIMES = (
    ("games.status.self_s", "games.status"),
    ("games.apply.self_s", "games.apply"),
    ("games.legal_moves.self_s", "games.legal_moves"),
    ("search.biased_scores.self_s", "search.biased_scores"),
    ("instancer.match_instance.self_s", "instancer.match_instance"),
    ("search.run_playout.self_s", "search.run_playout"),
    ("search.mcts_best_move.self_s", "search.mcts_best_move"),
    ("instancer.instantiate.self_s", "instancer.instantiate"),
    ("walks.resolve_walk_branches.self_s", "walks.resolve_walk_branches"),
    # load_feature_set calls itself once to open the path: self time counts it once.
    ("dsl.load_feature_set.s", "dsl.load_feature_set"),
    ("featuregen.generate_candidates.s", "featuregen.generate_candidates"),
)


def layer_metrics(tracer, wall: float, untraced_call_s: float, untraced_call_ref_s: float) -> dict:
    """Per-layer metrics of one traced session, as {name: (value, unit)}.

    ``untraced_call_s`` and ``untraced_call_ref_s`` are the median untraced
    call's wall and reference seconds.
    """
    get = tracer.get
    status, apply, legal = get("games.status"), get("games.apply"), get("games.legal_moves")
    scores, tests = get("search.biased_scores"), get("instancer.match_instance")
    playouts, inst = get("search.run_playout"), get("instancer.instantiate")
    m = {metric: (get(span).self_time, "s") for metric, span in SELF_TIMES}
    layers_s = sum(get(span).self_time for _, span in SELF_TIMES)
    m.update({
        "games.status.calls": (status.calls, "count"),
        "games.status.us_per_call": (_per_call(status.total, status.calls), "us"),
        "games.status_per_ply": (_ratio(status.calls, apply.calls), "ratio"),
        "games.apply.calls": (apply.calls, "count"),
        "games.apply.us_per_call": (_per_call(apply.total, apply.calls), "us"),
        "games.legal_moves.us_per_call": (_per_call(legal.total, legal.calls), "us"),
        "search.biased_scores.self_us_per_call": (_per_call(scores.self_time, scores.calls), "us"),
        "search.tests_per_score": (
            _ratio(tracer.by_parent[("search.biased_scores", "instancer.match_instance")], scores.calls), "count"),
        "instancer.match_instance.calls": (tests.calls, "count"),
        "instancer.match_hit_ratio": (_ratio(tests.work, tests.calls), "ratio"),
        "search.run_playout.calls": (playouts.calls, "count"),
        "search.playout_plies": (tracer.by_parent[("search.run_playout", "games.apply")], "count"),
        "search.playouts_per_s": (_ratio(playouts.calls, untraced_call_ref_s), "1/s"),
        "instancer.instances": (inst.work, "count"),
        "instancer.us_per_instance": (_per_call(inst.total, inst.work), "us"),
        "walks.resolve_walk_branches.calls": (get("walks.resolve_walk_branches").calls, "count"),
        "featuregen.evaluations": (get("featuregen.evaluate_feature_set").calls, "count"),
        "trace.wall_s": (wall, "s"),
        "trace.other_s": (wall - layers_s, "s"),
        "trace_overhead": (_ratio(get("bench.call").total, untraced_call_s), "ratio"),
    })
    return m


def measure(workload, size, seed: int, expected: dict, seconds: float) -> dict:
    """Untraced set-ups and timed calls; returns timings and problems found.

    Every set-up and call is timed in wall seconds and in reference seconds
    (see speed.py); the metrics use reference seconds.
    """
    from speed import SpeedProbe

    probe = SpeedProbe()
    setups, setups_ref = [], []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
        prepared, wall, ref = probe.timed(workload.setup, size)
        setups.append(wall)
        setups_ref.append(ref)
    walls, refs, rates, problems, outcomes = [], [], [], [], []
    failed = 0
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        try:
            outcome, wall, ref = probe.timed(workload.call, prepared, size, seed)
        except Exception as exc:  # counted as a failed call, reported below
            outcome, wall, problem = None, time.perf_counter() - start, f"call raised {exc!r}"
        else:
            problem = None if outcome == expected["outcome"] else (
                f"outcome {outcome} differs from expected {expected['outcome']}")
        walls.append(wall)
        outcomes.append(outcome)
        if problem is None:
            refs.append(ref)
            rates.append(outcome["games"] / ref)
        else:
            failed += 1
            problems.append(problem)
        # Start another call only if it should end within the time given.
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    return {"prepared": prepared, "setups": setups, "setups_ref": setups_ref, "walls": walls,
            "refs": refs, "rates": rates, "outcomes": outcomes, "failed": failed, "problems": problems}


def load_expected() -> dict:
    """expected.json as {workload: {size: {case: entry}}}."""
    table: dict = {}
    if EXPECTED.exists():
        for key, entry in json.loads(EXPECTED.read_text()).items():
            name, size, case = key.split()
            table.setdefault(name, {}).setdefault(size, {})[case] = entry
    return table


def record(workload, size_name: str) -> None:
    """Store each case's outcome and work counts, measured by a traced session."""
    from workloads import CASES, REGRESSION_SEED

    size = workload.sizes[size_name]
    table = load_expected()
    cases = {}
    for case in range(1 if size_name == "criterion07" else CASES):
        tracer, outcome, wall, error = traced_session(workload, size, REGRESSION_SEED + case)
        if error:
            raise SystemExit(f"perfbench: case {case}: {error}")
        cases[str(case)] = {"outcome": outcome, "counts": work_counts(tracer)}
        print(f"{workload.name} {size_name} case {case} ({wall:.1f} s traced): {outcome}", file=sys.stderr)
    table.setdefault(workload.name, {})[size_name] = cases
    # One line per case, so a changed case shows as one changed line.
    lines = []
    for wl_name, sizes in sorted(table.items()):
        for name, entries in sorted(sizes.items()):
            for case, entry in sorted(entries.items(), key=lambda kv: int(kv[0])):
                lines.append(f'  "{wl_name} {name} {case}": {json.dumps(entry, sort_keys=True)}')
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full",
                        help="full (default), smoke (seconds-long check of this script), "
                             "or criterion07 (line4-policy at 1000 games, seed 0)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the expected values of every case for --workload and --size")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import CASES, REGRESSION_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.size not in workload.sizes:
        parser.error(f"workload {workload.name} has no size {args.size!r}")
    size = workload.sizes[args.size]
    if args.record:
        record(workload, args.size)
        return 0

    case = args.seed % CASES
    expected = load_expected().get(workload.name, {}).get(args.size, {}).get(str(case))
    if expected is None:
        parser.error(f"no expected values for {workload.name} {args.size} case {case} (seed {args.seed})")
    seed = REGRESSION_SEED + case

    run = measure(workload, size, seed, expected, args.seconds)
    env = environment(run["prepared"][0])
    attempted, failed, problems = len(run["walls"]), run["failed"], list(run["problems"])
    details = {"workload": workload.name, "size": args.size, "seed": args.seed, "case": case,
               "match_seed": seed, "environment": env, "setup_wall_s": run["setups"],
               "setup_ref_s": run["setups_ref"], "call_wall_s": run["walls"],
               "games_per_ref_s": run["rates"]}

    if args.trace:
        tracer, outcome, wall, error = traced_session(workload, size, seed)
        attempted += 1
        if error is None:
            if outcome != expected["outcome"]:
                error = f"traced outcome {outcome} differs from expected {expected['outcome']}"
            elif any(o is not None and o != outcome for o in run["outcomes"]):
                error = "traced outcome differs from the untraced calls"
            elif env["engine"] == "python":
                counts, stored = work_counts(tracer), expected["counts"]
                diff = {k: (counts.get(k), stored.get(k)) for k in counts.keys() | stored.keys()
                        if counts.get(k) != stored.get(k)}
                if diff:
                    error = f"work counts differ from expected (got, expected): {diff}"
        if error is not None:
            failed += 1
            problems.append(error)
        missing = [name for name in workload.layers if tracer.get(name).calls == 0]
        if missing:
            details["missing_spans"] = missing
            details["missing_spans_reason"] = (
                f"the {env['engine']} engine took play_match" if env["engine"] != "python"
                else "unexpected: the python engine ran")
        metrics = layer_metrics(tracer, wall, statistics.median(run["walls"]),
                                statistics.median(run["refs"]) if run["refs"] else 0.0)
    else:
        metrics = {
            "games_per_s": (statistics.median(run["rates"]) if run["rates"] else 0.0, "1/s"),
            "setup_s": (statistics.median(run["setups_ref"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    details["problems"] = problems
    print(json.dumps({"perfbench": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # String hashing is randomised per process, and with it dict layout and
    # the speed of identical runs (about 5 %); run under one fixed hash seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
