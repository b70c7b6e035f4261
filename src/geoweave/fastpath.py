"""Placeholder kept only for the benchmark's environment record, which
imports it (perfbench/run.py); it goes when a benchmark change drops that
import.  geoweave has one engine, in :mod:`geoweave.search`."""

NUMBA_AVAILABLE = False


def supports(rules, agent_a, agent_b) -> tuple[bool, str]:
    return False, "geoweave has one engine, the Python engine"
