"""Time one benchmark workload's call and set-up from two source trees in one process.

Loads ``src/geoweave`` of this checkout (the change) and of ``--base``
(another checkout, such as a parent commit unpacked with ``git archive``)
under two package names, binds a copy of this checkout's
``perfbench/workloads.py`` to each, sets the workload up once per tree and
then times its call, the two trees in turn, for ``--rounds`` rounds.  The
tree that goes first alternates from round to round, and every call plays
benchmark case ``CASE`` (``tools/timing.py``), so each round is a pair of
calls doing the same work.  Each round also times one more set-up per
tree, just before that tree's call (the benchmark's ``setup_s``); the
calls keep using the first set-up.

Times are in reference seconds (``perfbench/speed.py``), as the
benchmark's ``games_per_s`` is.  Every call's outcome must equal the other
tree's; the tool stops with exit status 1 at the first that differs.  It
prints one JSON object: both trees' best and median seconds per call and
per set-up, the paired ratios of the calls (base time over change time, so
above 1 means the change is faster), and in how many rounds the change was
faster.  One untimed call per tree comes first, so one-off imports stay
out of the rounds.  It writes no file (no bytecode either) into either
tree.

Usage: python3 tools/ab.py --base DIR --workload W [--rounds 10] [--size full]
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT))

from perfbench.speed import SpeedProbe  # noqa: E402
from timing import CASE  # noqa: E402


def load_package(name: str, tree: Path):
    """``tree/src/geoweave`` imported as the package ``name``."""
    package = tree / "src" / "geoweave"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"ab: no geoweave sources under {tree}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(name: str, package):
    """A copy of ``perfbench/workloads.py``, imported as ``name``, whose
    ``geoweave`` is ``package``."""
    names = ("geoweave", "geoweave.featuregen")
    saved = {key: sys.modules.get(key) for key in names}
    sys.modules["geoweave"] = package
    sys.modules["geoweave.featuregen"] = importlib.import_module(f"{package.__name__}.featuregen")
    try:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key, module_before in saved.items():
            if module_before is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module_before
    return module


def summary(per_side: dict[str, list[float]]) -> dict:
    """Each tree's best and median seconds."""
    return {side: {"min": round(min(t), 4), "median": round(statistics.median(t), 4)}
            for side, t in per_side.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path, help="root of the other checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--size", default="full")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")

    trees = {"base": args.base.resolve(), "change": ROOT}
    modules = {side: load_workloads(f"ab_workloads_{side}", load_package(f"ab_geoweave_{side}", tree))
               for side, tree in trees.items()}
    workloads = modules["change"]
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    sides = {side: module.WORKLOADS[args.workload] for side, module in modules.items()}
    if args.size not in sides["change"].sizes:
        ap.error(f"workload {args.workload} has no size {args.size!r}")
    size = sides["change"].sizes[args.size]
    seed = workloads.REGRESSION_SEED + CASE
    prepared = {side: workload.setup(size) for side, workload in sides.items()}

    probe = SpeedProbe()
    times: dict[str, list[float]] = {side: [] for side in sides}
    setup_times: dict[str, list[float]] = {side: [] for side in sides}

    def call(side: str):
        return sides[side].call(prepared[side], size, seed)

    outcome = call("base")
    if call("change") != outcome:
        print("ab: the two trees' outcomes differ", file=sys.stderr)
        return 1
    for n in range(args.rounds):
        for side in ("base", "change") if n % 2 == 0 else ("change", "base"):
            gc.collect()
            setup_times[side].append(probe.timed(sides[side].setup, size)[2])
            gc.collect()
            got, _, ref = probe.timed(call, side)
            if got != outcome:
                print(f"ab: round {n}: the {side} tree's outcome differs", file=sys.stderr)
                return 1
            times[side].append(ref)
    ratios = [b / c for b, c in zip(times["base"], times["change"])]
    report = {
        "workload": args.workload, "size": args.size, "case": CASE, "seed": seed,
        "rounds": args.rounds, "games": outcome["games"], "base": str(trees["base"]),
        "seconds": summary(times),
        "setup_seconds": summary(setup_times),
        "ratios": [round(r, 3) for r in ratios],
        "ratio_median": round(statistics.median(ratios), 3),
        "ratio_quartiles": [round(q, 3) for q in statistics.quantiles(ratios, n=4, method="inclusive")[::2]],
        "change_wins": sum(r > 1 for r in ratios),
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
