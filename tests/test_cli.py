import json
from pathlib import Path

import pytest

import geoweave as gw
from geoweave import cli, fastpath
from geoweave.cli import main
from geoweave.features import EMPTY, Feature, FeatureAction, FeatureSet, PatternElement
from geoweave.search import AgentSpec, compile_feature_set
from geoweave.walks import make_walk
from geoweave.games import IllegalMove
from geoweave.dsl import load_feature_set
from conftest import FIXTURES

ENGINE = "numba" if fastpath.NUMBA_AVAILABLE else "python"


def manifest_of(out_dir) -> dict:
    return json.loads((Path(out_dir) / "manifest.json").read_text())


def test_render_writes_svgs_and_manifest(tmp_path):
    out = tmp_path / "render"
    rc = main(["render", "--game", "hex7", "--features", str(FIXTURES / "bridge.fs"), "--out", str(out)])
    assert rc == 0
    assert (out / "feature_000.svg").exists()
    manifest = manifest_of(out)
    assert manifest["command"] == "render"
    assert len(manifest["outputs"]) == 1
    assert all(len(o["sha256"]) == 64 for o in manifest["outputs"])


def test_render_rejects_unparseable_features(tmp_path):
    bad = tmp_path / "bad.fs"
    bad.write_text("this is not a feature\n")
    rc = main(["render", "--game", "hex7", "--features", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_render_rejects_empty_feature_set(tmp_path):
    empty = tmp_path / "empty.fs"
    empty.write_text("# only a comment\n")
    rc = main(["render", "--game", "hex7", "--features", str(empty), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_match_odd_games_is_usage_error(tmp_path):
    rc = main(["match", "--game", "hex5", "--games", "3", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_match_unknown_game_is_usage_error(tmp_path):
    rc = main(["match", "--game", "checkers", "--games", "2", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    ["--playouts", "-1"],
    ["--workers", "0"],
    *([] if fastpath.NUMBA_AVAILABLE else [["--engine", "numba"]]),
])
def test_match_bad_search_flag_is_usage_error(tmp_path, flags, capsys):
    rc = main(["match", "--game", "line4-4x4", "--games", "2", "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_error_exits_1_not_usage(tmp_path, monkeypatch, capsys):
    def broken_match(*args, **kwargs):
        raise IllegalMove("cell 3 is occupied")

    monkeypatch.setattr(cli, "play_match", broken_match)
    rc = main(["match", "--game", "line4-4x4", "--games", "2", "--playouts", "2",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("internal error: IllegalMove")


def test_match_reproducible_byte_for_byte(tmp_path):
    args = [
        "match", "--game", "line4-4x4", "--games", "4", "--playouts", "6",
        "--seed", "21", "--engine", ENGINE,
    ]
    rc1 = main(args + ["--out", str(tmp_path / "one")])
    rc2 = main(args + ["--out", str(tmp_path / "two")])
    assert rc1 == rc2 == 0
    first = (tmp_path / "one" / "match.json").read_bytes()
    second = (tmp_path / "two" / "match.json").read_bytes()
    assert first == second
    m1, m2 = manifest_of(tmp_path / "one"), manifest_of(tmp_path / "two")
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    m1["config"].pop("out"), m2["config"].pop("out")
    assert m1 == m2


def test_match_uniform_baseline_runs_without_feature_files(tmp_path):
    out = tmp_path / "o"
    rc = main([
        "match", "--game", "line4-4x4", "--games", "2", "--playouts", "4",
        "--seed", "2", "--engine", ENGINE, "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "match.json").read_text())
    assert payload["agent_a"] == payload["agent_b"] == "mcts4:uniform"
    assert payload["games"] == 2


def test_seed_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOWEAVE_SEED", "777")
    out = tmp_path / "env"
    rc = main(["match", "--game", "line4-4x4", "--games", "2", "--playouts", "2",
               "--engine", ENGINE, "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "match.json").read_text())["seed"] == 777
    monkeypatch.setenv("GEOWEAVE_SEED", "not-a-number")
    rc = main(["match", "--game", "line4-4x4", "--games", "2", "--playouts", "2",
               "--engine", ENGINE, "--out", str(out)])
    assert rc == 2


def test_generate_output_parses_back(tmp_path):
    out = tmp_path / "gen"
    rc = main(["generate", "--game", "hex5", "--max-elements", "2",
               "--max-walk-length", "1", "--out", str(out)])
    assert rc == 0
    fs = load_feature_set(out / "candidates.fs")
    assert len(fs) == 25
    assert fs.name == "hex5-candidates"


def test_evaluate_writes_record_and_log(tmp_path):
    out = tmp_path / "eval"
    rc = main([
        "evaluate", "--game", "line4-4x4", "--features", str(FIXTURES / "line4.fs"),
        "--games", "4", "--playouts", "4", "--seed", "3", "--engine", ENGINE,
        "--out", str(out),
    ])
    assert rc == 0
    record = json.loads((out / "eval.json").read_text())
    assert record["games"] == 4
    assert 0.0 <= record["winRate"] <= 1.0
    lines = (out / "eval.jsonl").read_text().strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0]) == record


def test_tune_log_respects_budget(tmp_path):
    out = tmp_path / "tune"
    rc = main([
        "tune", "--game", "line4-4x4", "--features", str(FIXTURES / "line4.fs"),
        "--budget", "3", "--games", "4", "--playouts", "4", "--seed", "5",
        "--engine", ENGINE, "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "tune_log.jsonl").read_text().strip().split("\n")
    assert 1 <= len(lines) <= 3
    tuned = load_feature_set(out / "tuned.fs")
    assert len(tuned) == 4
    manifest = manifest_of(out)
    assert {o["path"] for o in manifest["outputs"]} == {"tuned.fs", "tune_log.jsonl"}


@pytest.mark.parametrize("requested", ["auto", "python"])
def test_manifest_names_the_engine_that_ran(tmp_path, requested):
    common = ["--game", "line4-4x4", "--games", "2", "--playouts", "2", "--seed", "4",
              "--engine", requested]
    features = ["--features", str(FIXTURES / "line4.fs")]
    commands = {
        "match": ["match", *common],
        "evaluate": ["evaluate", *features, *common],
        "tune": ["tune", *features, "--budget", "2", *common],
    }
    if requested == "python":
        expected = {"requested": "python", "ran": "python", "reason": "requested"}
    elif fastpath.NUMBA_AVAILABLE:
        expected = {"requested": "auto", "ran": "numba",
                    "reason": "compiled kernels support this run"}
    else:  # auto falls back, and the manifest says why
        expected = {"requested": "auto", "ran": "python", "reason": "numba is not installed"}
    for name, argv in commands.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        assert manifest_of(out)["engine"] == expected, name
    out = tmp_path / "generate"
    assert main(["generate", "--game", "hex4", "--max-elements", "1", "--out", str(out)]) == 0
    assert "engine" not in manifest_of(out)


def test_move_from_features_are_refused_before_the_engine_is_chosen(monkeypatch, line4_fs):
    """With numba present, ``supports`` refuses a move-from feature set
    (whose instances ``lower_indexes`` cannot lower) on either side, and
    the manifest's engine record says so."""
    monkeypatch.setattr(fastpath, "NUMBA_AVAILABLE", True)
    rules = gw.line4_rules(4, 4)
    ncells = rules.graph.cell_count
    nwords = -(-ncells * rules.chunk_bits // 64)
    move_from = FeatureSet((Feature(
        elements=(PatternElement((), (EMPTY,)),),
        action=FeatureAction(to=(), from_=make_walk([0])),
        rotations=(0,),
    ),))
    plain, lines, moving = AgentSpec(playouts=4), AgentSpec(feature_set=line4_fs), AgentSpec(feature_set=move_from)
    assert fastpath.supports(rules, lines, plain) == (True, "")
    fastpath.lower_indexes(compile_feature_set(line4_fs, rules), ncells, nwords, rules.chunk_bits)
    with pytest.raises(fastpath.FastpathUnsupported):
        fastpath.lower_indexes(compile_feature_set(move_from, rules), ncells, nwords, rules.chunk_bits)
    why = "move-from actions run on the reference engine only"
    for a, b in ((moving, plain), (lines, moving)):
        assert fastpath.supports(rules, a, b) == (False, why)
        assert cli._engine_record("auto", rules, a, b) == {"requested": "auto", "ran": "python", "reason": why}


def test_every_command_writes_exactly_one_manifest(tmp_path):
    out = tmp_path / "m"
    main(["generate", "--game", "hex4", "--max-elements", "1", "--out", str(out)])
    files = list(out.glob("manifest*"))
    assert len(files) == 1
