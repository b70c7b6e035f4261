import json
from pathlib import Path

import pytest

from geoweave import cli
from geoweave.cli import main
from geoweave.games import IllegalMove
from geoweave.dsl import load_feature_set
from conftest import FIXTURES


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


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_render_rejects_an_unreadable_feature_file(tmp_path, kind, capsys):
    """A feature file that cannot be opened or decoded is an error in what
    the user gave: exit 2, and no output directory is made."""
    path = tmp_path / "features.fs"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"rel proactive el={}:. act_to={} \xff\n")
    out = tmp_path / "o"
    rc = main(["render", "--game", "hex7", "--features", str(path), "--out", str(out)])
    assert rc == 2
    assert "cannot read feature file" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("game,message", [
    ("hex1", "hex board needs size >= 2"),
    ("line4-3x3", "line4 board needs width and height >= 4"),
])
def test_match_on_a_board_too_small_names_the_bound(tmp_path, game, message, capsys):
    out = tmp_path / "o"
    rc = main(["match", "--game", game, "--games", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--playouts", "-1"],
    ["--games", "3"],  # odd: sides are swapped each game
    ["--games", "0"],
])
def test_match_bad_search_flag_is_usage_error(tmp_path, flags, capsys):
    rc = main(["match", "--game", "line4-4x4", "--games", "2", "--out", str(tmp_path / "o"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_match_workers_flag_is_gone(tmp_path, capsys):
    # Search runs one tree per move; an old script that passes --workers
    # stops with argparse's usage error instead of running something else.
    with pytest.raises(SystemExit) as exc:
        main(["match", "--game", "line4-4x4", "--games", "2", "--out", str(tmp_path / "o"),
              "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,line", [
    (["render"], "abs@100 proactive el={}:. act_to={}"),  # anchor off the board
    (["evaluate", "--games", "2", "--playouts", "1"], "rel proactive el={}:P3 act_to={}"),
    (["render"], "rel proactive el={0,0,0,0,0,0,0,0}:o act_to={}"),  # no instance on hex5
    (["tune", "--step", "inf"], "rel proactive el={}:. act_to={}"),
    (["tune", "--step", "nan"], "rel proactive el={}:. act_to={}"),
])
def test_features_or_step_the_game_cannot_use_are_usage_errors(tmp_path, command, line, capsys):
    features = tmp_path / "f.fs"
    features.write_text(line + "\n")
    rc = main([*command, "--game", "hex5", "--features", str(features), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags,message", [
    (["--step", "inf"], "step must be finite"),
    (["--budget", "0"], "budget must be >= 1"),
])
def test_tune_refused_by_the_library_leaves_no_output(tmp_path, flags, message, capsys):
    features = tmp_path / "f.fs"
    features.write_text("rel proactive el={}:. act_to={}\n")
    out = tmp_path / "o"
    rc = main(["tune", "--game", "hex5", "--features", str(features), "--games", "2", "--playouts", "1",
               "--out", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("rel proactive rot={} el={}:. act_to={}", "rotation list is empty"),  # would never fire
    ("rel proactive el={}:. act_to={0} act_from={}", "unrecognised token"),  # a move is its cell
])
def test_match_rejects_a_feature_the_dsl_refuses(tmp_path, line, message, capsys):
    features = tmp_path / "f.fs"
    features.write_text(line + "\n")
    out = tmp_path / "o"
    rc = main(["match", "--game", "hex5", "--a", str(features), "--games", "2", "--playouts", "0",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1" in err and message in err
    assert not out.exists()


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
        "--seed", "21",
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
        "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "match.json").read_text())
    assert payload["agent_a"] == payload["agent_b"] == "mcts4:uniform"
    assert payload["games"] == 2


def test_seed_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOWEAVE_SEED", "777")
    out = tmp_path / "env"
    rc = main(["match", "--game", "line4-4x4", "--games", "2", "--playouts", "2",
               "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "match.json").read_text())["seed"] == 777
    monkeypatch.setenv("GEOWEAVE_SEED", "not-a-number")
    rc = main(["match", "--game", "line4-4x4", "--games", "2", "--playouts", "2",
               "--out", str(out)])
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
        "--games", "4", "--playouts", "4", "--seed", "3", "--out", str(out),
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
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "tune_log.jsonl").read_text().strip().split("\n")
    assert 1 <= len(lines) <= 3
    tuned = load_feature_set(out / "tuned.fs")
    assert len(tuned) == 4
    manifest = manifest_of(out)
    assert {o["path"] for o in manifest["outputs"]} == {"tuned.fs", "tune_log.jsonl"}


def test_every_command_writes_exactly_one_manifest(tmp_path):
    out = tmp_path / "m"
    main(["generate", "--game", "hex4", "--max-elements", "1", "--out", str(out)])
    files = list(out.glob("manifest*"))
    assert len(files) == 1
