"""Command-line entry point: render, match, generate, evaluate, tune.

``main`` reads what the user gave once, in this order, before any
command runs: ``--out`` (an ``--out`` that is or lies under a file is
refused), the seed (``--seed``, else ``GEOWEAVE_SEED``, else 0), the
search flags of the commands that play games (``--games`` even and at
least 2, ``--playouts`` >= 0), and the game.  Each ``cmd_*`` then does
its work, hands its outputs to the ``Run`` record and returns the one
line that ``main`` prints.

A run writes its outputs plus exactly one ``manifest.json`` under
``--out``, all at the end: a run refused at any point writes nothing.
Outputs are byte-reproducible for a given seed and flag set (the
manifest's wall_time_s field is the one intentionally varying value).
Exit codes: 0 success; 2 for errors in what the user gave (flags,
``--out``, game name, ``GEOWEAVE_SEED``, feature files, features that
cannot compile on the game's board, generator bounds); 1 for every other
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .dsl import DslError, dump_feature_set, feature_set_hash, load_feature_set, sha256
from .featuregen import (
    GenConfig,
    GenError,
    eval_log,
    evaluate_feature_set,
    generate_candidates,
    hill_climb_weights,
)
from .features import FeatureSet
from .games import game_from_name
from .instancer import InstancerError
from .search import AgentSpec, play_match
from .svg import render_feature

USAGE_ERROR = 2


class UsageError(ValueError):
    pass


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GEOWEAVE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"GEOWEAVE_SEED must be an integer, got {env!r}")
    return 0


def _rules_from(args):
    try:
        return game_from_name(args.game)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_search_flags(args) -> None:
    if args.games < 2 or args.games % 2:
        raise UsageError("--games must be even (sides are swapped each game)")
    if args.playouts < 0:
        raise UsageError("--playouts must be >= 0")


def _check_out(out: str) -> None:
    """Refuse an ``--out`` that cannot become a directory before any work:
    the nearest path of ``out`` and its parents that exists must be one."""
    path = Path(out)
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise UsageError(f"--out {out}: {p} is not a directory")
            return


class Run:
    """One run's record: its outputs are kept in memory and written, with
    the manifest that hashes those same bytes, only by ``finish``."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.config = {
            k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None
        }
        self.out = Path(args.out)
        self.outputs: dict[str, bytes] = {}
        self.started = time.monotonic()

    def write_text(self, name: str, text: str) -> None:
        self.outputs[name] = text.encode("utf-8")

    def write_json(self, name: str, payload: dict) -> None:
        self.write_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def finish(self, seed: int) -> None:
        """Write every output and then the manifest."""
        manifest = {
            "command": self.command,
            "config": self.config,
            "seed": seed,
            "versions": {"geoweave": __version__, "python": sys.version.split()[0]},
            "wall_time_s": round(time.monotonic() - self.started, 3),
            "outputs": [
                {"path": name, "sha256": sha256(data).hexdigest()}
                for name, data in self.outputs.items()
            ],
        }
        self.write_json("manifest.json", manifest)
        self.out.mkdir(parents=True, exist_ok=True)
        for name, data in self.outputs.items():
            (self.out / name).write_bytes(data)


def cmd_render(args, rules, seed: int, run: Run) -> str:
    fs = load_feature_set(args.features)
    for i, feature in enumerate(fs.features):
        run.write_text(f"feature_{i:03d}.svg", render_feature(feature, rules.graph))
    return f"rendered {len(fs.features)} feature(s) to {run.out}"


def cmd_match(args, rules, seed: int, run: Run) -> str:
    agent_a, agent_b = (
        AgentSpec(feature_set=load_feature_set(path) if path else None, playouts=args.playouts)
        for path in (args.a, args.b)
    )
    result = play_match(rules, agent_a, agent_b, args.games, seed)
    payload = {
        "game": rules.name,
        "agent_a": agent_a.label(),
        "agent_b": agent_b.label(),
        "playouts": args.playouts,
        **result.to_dict(),
    }
    run.write_json("match.json", payload)
    return json.dumps(payload, sort_keys=True)


def cmd_generate(args, rules, seed: int, run: Run) -> str:
    cfg = GenConfig(
        max_elements=args.max_elements,
        max_walk_length=args.max_walk_length,
        include_reactive=args.reactive,
    )
    candidates = generate_candidates(rules, cfg)
    fs = FeatureSet(tuple(candidates), f"{rules.name}-candidates")
    run.write_text("candidates.fs", dump_feature_set(fs))
    return f"generated {len(candidates)} candidate feature(s) to {run.out / 'candidates.fs'}"


def cmd_evaluate(args, rules, seed: int, run: Run) -> str:
    fs = load_feature_set(args.features)
    record = evaluate_feature_set(fs, rules, args.games, seed, playouts=args.playouts)
    run.write_json("eval.json", record.to_dict())
    run.write_text("eval.jsonl", eval_log([record]))
    return json.dumps(record.to_dict(), sort_keys=True)


def cmd_tune(args, rules, seed: int, run: Run) -> str:
    fs = load_feature_set(args.features)
    result = hill_climb_weights(
        fs, rules, budget=args.budget, step=args.step, seed=seed,
        games=args.games, playouts=args.playouts,
    )
    run.write_text("tuned.fs", dump_feature_set(result.best))
    run.write_text("tune_log.jsonl", eval_log(result.history))
    return (
        f"tuned set {feature_set_hash(result.best)} win rate "
        f"{result.best_record.win_rate:.3f} after {len(result.history)} evaluation(s)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoweave",
        description="Walk-pattern features for board games: render, match, generate, evaluate, tune.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, features_required: bool):
        p.add_argument("--game", required=True, help="game name, e.g. hex7 or line4-7x7")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: $GEOWEAVE_SEED or 0)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if features_required:
            p.add_argument("--features", required=True, help="feature-set file")

    def search_flags(p):
        p.add_argument("--games", type=int, default=100, help="match games, even (default 100)")
        p.add_argument("--playouts", type=int, default=100,
                       help="MCTS playouts per move; 0 plays the raw policy (default 100)")

    p = sub.add_parser("render", help="render each feature to an SVG diagram")
    common(p, features_required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("match", help="play a seeded match between two agents")
    common(p, features_required=False)
    p.add_argument("--a", default=None, help="feature-set file for agent A (default: uniform)")
    p.add_argument("--b", default=None, help="feature-set file for agent B (default: uniform)")
    search_flags(p)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("generate", help="emit candidate features for a game")
    common(p, features_required=False)
    p.add_argument("--max-elements", type=int, default=3)
    p.add_argument("--max-walk-length", type=int, default=2)
    p.add_argument("--reactive", action="store_true", help="also emit reactive variants")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score a feature set against the MCTS baseline")
    common(p, features_required=True)
    search_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", help="hill-climb feature weights against the baseline")
    common(p, features_required=True)
    search_flags(p)
    p.add_argument("--budget", type=int, default=10, help="evaluation budget (default 10)")
    p.add_argument("--step", type=float, default=0.5, help="weight perturbation step (default 0.5)")
    p.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        seed = _seed_from(args)
        if hasattr(args, "games"):
            _check_search_flags(args)
        rules = _rules_from(args)
        run = Run(args)
        summary = args.func(args, rules, seed, run)
        run.finish(seed)
    except (UsageError, DslError, GenError, InstancerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
