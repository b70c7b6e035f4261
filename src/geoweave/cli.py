"""Command-line entry point: render, match, generate, evaluate, tune.

Every run writes its outputs plus exactly one ``manifest.json`` under
``--out``.  Outputs are byte-reproducible for a given seed and flag set
(the manifest's wall_time_s field is the one intentionally varying
value).  Exit codes: 0 success; 2 for errors in what the user gave
(flags, game name, ``GEOWEAVE_SEED``, feature files, features that
cannot compile on the game's board, generator bounds); 1 for every
other error.  ``GEOWEAVE_SEED`` provides the seed when
``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .dsl import DslError, dump_feature_set, feature_set_hash, load_feature_set, save_feature_set
from .featuregen import (
    GenConfig,
    GenError,
    evaluate_feature_set,
    generate_candidates,
    hill_climb_weights,
    write_eval_log,
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """Collects outputs and writes the per-run manifest."""

    def __init__(self, command: str, args: argparse.Namespace, out_dir: str):
        self.command = command
        self.config = {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func",) and v is not None
        }
        self._out = Path(out_dir)
        self.outputs: list[Path] = []
        self.started = time.monotonic()

    @property
    def out(self) -> Path:
        """The output directory, made on first use, so that a run the
        library refuses before writing anything leaves none."""
        self._out.mkdir(parents=True, exist_ok=True)
        return self._out

    def write_text(self, name: str, text: str) -> Path:
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        self.outputs.append(path)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        return self.write_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def add(self, path: Path) -> Path:
        self.outputs.append(path)
        return path

    def finish(self, seed: int) -> Path:
        """Write the manifest."""
        manifest = {
            "command": self.command,
            "config": self.config,
            "seed": seed,
            "versions": {"geoweave": __version__, "python": sys.version.split()[0]},
            "wall_time_s": round(time.monotonic() - self.started, 3),
            "outputs": [
                {"path": p.name, "sha256": _sha256(p)} for p in self.outputs
            ],
        }
        path = self.out / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path


def cmd_render(args) -> int:
    seed = _seed_from(args)
    rules = _rules_from(args)
    fs = load_feature_set(args.features)
    run = Run("render", args, args.out)
    for i, feature in enumerate(fs.features):
        svg = render_feature(feature, rules.graph)
        run.write_text(f"feature_{i:03d}.svg", svg)
    run.finish(seed)
    print(f"rendered {len(fs.features)} feature(s) to {run.out}")
    return 0


def cmd_match(args) -> int:
    seed = _seed_from(args)
    _check_search_flags(args)
    rules = _rules_from(args)
    fs_a = load_feature_set(args.a) if args.a else None
    fs_b = load_feature_set(args.b) if args.b else None
    agent_a = AgentSpec(feature_set=fs_a, playouts=args.playouts)
    agent_b = AgentSpec(feature_set=fs_b, playouts=args.playouts)
    run = Run("match", args, args.out)
    result = play_match(rules, agent_a, agent_b, args.games, seed)
    payload = {
        "game": rules.name,
        "agent_a": agent_a.label(),
        "agent_b": agent_b.label(),
        "playouts": args.playouts,
        **result.to_dict(),
    }
    run.write_json("match.json", payload)
    run.finish(seed)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_generate(args) -> int:
    seed = _seed_from(args)
    rules = _rules_from(args)
    cfg = GenConfig(
        max_elements=args.max_elements,
        max_walk_length=args.max_walk_length,
        include_reactive=args.reactive,
    )
    run = Run("generate", args, args.out)
    candidates = generate_candidates(rules, cfg)
    fs = FeatureSet(tuple(candidates), f"{rules.name}-candidates")
    run.write_text("candidates.fs", dump_feature_set(fs))
    run.finish(seed)
    print(f"generated {len(candidates)} candidate feature(s) to {run.out / 'candidates.fs'}")
    return 0


def cmd_evaluate(args) -> int:
    seed = _seed_from(args)
    _check_search_flags(args)
    rules = _rules_from(args)
    fs = load_feature_set(args.features)
    run = Run("evaluate", args, args.out)
    record = evaluate_feature_set(fs, rules, args.games, seed, playouts=args.playouts)
    run.write_json("eval.json", record.to_dict())
    log_path = run.out / "eval.jsonl"
    write_eval_log([record], log_path)
    run.add(log_path)
    run.finish(seed)
    print(json.dumps(record.to_dict(), sort_keys=True))
    return 0


def cmd_tune(args) -> int:
    seed = _seed_from(args)
    _check_search_flags(args)
    rules = _rules_from(args)
    fs = load_feature_set(args.features)
    run = Run("tune", args, args.out)
    result = hill_climb_weights(
        fs, rules, budget=args.budget, step=args.step, seed=seed,
        games=args.games, playouts=args.playouts,
    )
    tuned_path = run.out / "tuned.fs"
    save_feature_set(result.best, tuned_path)
    run.add(tuned_path)
    log_path = run.out / "tune_log.jsonl"
    write_eval_log(result.history, log_path)
    run.add(log_path)
    run.finish(seed)
    print(
        f"tuned set {feature_set_hash(result.best)} win rate "
        f"{result.best_record.win_rate:.3f} after {len(result.history)} evaluation(s)"
    )
    return 0


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
        return args.func(args)
    except (UsageError, DslError, GenError, InstancerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
