"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q

The smoke runs take about a minute in all.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import geoweave as gw  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import INTERVAL_S, SpeedProbe  # noqa: E402
from workloads import Size, Workload  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "21", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and v >= 0 for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    env = json.loads(lines[-2])["perfbench"]["environment"]
    assert set(env) == {"python", "numpy", "cpus", "numba", "engine", "engine_reason"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "line4-policy", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unknown_workload_is_a_usage_error():
    proc = _bench("--workload", "no-such-workload", "--seed", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_failed_and_wrong_calls_are_counted():
    outcomes = iter([{"games": 2, "tallies": [1]}, {"games": 2, "tallies": [2]}, None])

    def call(prepared, size, seed):
        outcome = next(outcomes)
        if outcome is None:
            raise RuntimeError("boom")
        return outcome

    fake = Workload("fake", lambda size: None, call, {}, ())
    result = run.measure(fake, Size(games=2), 0, {"outcome": {"games": 2, "tallies": [1]}}, seconds=0.0)
    assert len(result["walls"]) == 1 and result["failed"] == 0
    result = run.measure(fake, Size(games=2), 0, {"outcome": {"games": 2, "tallies": [1]}}, seconds=0.0)
    assert result["failed"] == 1 and result["rates"] == []
    result = run.measure(fake, Size(games=2), 0, {"outcome": {"games": 2, "tallies": [1]}}, seconds=0.0)
    assert result["failed"] == 1 and "boom" in result["problems"][0]


def test_tracer_self_times_add_up_and_originals_come_back():
    originals = (gw.play_match, gw.search.biased_scores, gw.search.match_instance, gw.HexRules.status)
    rules = gw.hex_rules(4)
    agent = gw.AgentSpec(feature_set=gw.load_feature_set(ROOT / "fixtures" / "bridge.fs"), playouts=3)
    tracer = Tracer()
    with tracer.installed():
        assert gw.search.match_instance is not originals[2]
        tracer.span("top", gw.play_match, rules, agent, gw.AgentSpec(playouts=3), 2, 7)
    assert (gw.play_match, gw.search.biased_scores, gw.search.match_instance, gw.HexRules.status) == originals

    top = tracer.get("top")
    assert tracer.by_parent[(None, "top")] == 1 and sum(k[0] is None for k in tracer.by_parent) == 1
    assert sum(st.self_time for st in tracer.stats.values()) == pytest.approx(top.total, rel=1e-9)
    apply, status = tracer.get("games.apply"), tracer.get("games.status")
    # Every apply checks status once inside it.
    assert tracer.by_parent[("games.apply", "games.status")] == apply.calls > 0
    assert status.calls > apply.calls
    assert tracer.get("search.run_playout").calls > 0
    assert 0 <= tracer.get("instancer.match_instance").work <= tracer.get("instancer.match_instance").calls


def _busy(seconds: float) -> str:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_speed_probe_samples_during_the_call_and_stops():
    probe = SpeedProbe()
    result, wall, ref = probe.timed(_busy, 0.3)
    assert result == "done"
    # One sample before, one after, and one per interval in between.
    assert len(probe.samples) >= 2 + int(0.3 / INTERVAL_S) - 2
    assert 0.25 < wall < 0.35 and ref > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        probe.timed(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
