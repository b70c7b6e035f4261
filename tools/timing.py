"""Timing and recording helpers shared by the per-layer timing tools.

``best_s`` and ``per_call_us`` time untraced code with the garbage
collector off and keep the best pass, in reference seconds, so two runs
on a machine whose speed drifts still compare.  The benchmark's
``perfbench/speed.py`` probe samples its reference loop while each pass
runs, and the best pass's wall time is scaled by the fastest sample of
all the passes: both are the machine at its least disturbed.  The
benchmark scales by the median sample instead, so on a quiet machine
these figures read a few percent above its reference seconds.
``rebinding`` swaps module attributes for the length of a block, which is
how the tools record the arguments of the calls a library function makes.
``CASE`` is the benchmark case the tools play.

The tools put the checkout's root on ``sys.path`` before importing this
module.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from perfbench.speed import REF_SECONDS, SpeedProbe

# The case of ``perfbench/run.py --seed 5``: case k plays seed
# REGRESSION_SEED + k (``perfbench/workloads.py``).
CASE = 5


def reference_s(wall: float, samples: list[float]) -> float:
    """``wall`` seconds in reference seconds, at the fastest of the probe's
    ``samples`` of its reference loop."""
    return wall * REF_SECONDS / min(samples)


def best_s(fn, repeat: int, setup=None) -> float:
    """Best of ``repeat`` timed calls of ``fn()``, in reference seconds;
    ``setup()``, when given, runs untimed before each call."""
    probe = SpeedProbe()
    walls, samples = [], []
    gc.disable()
    try:
        for _ in range(repeat):
            if setup is not None:
                setup()
            walls.append(probe.timed(fn)[1])
            samples += probe.samples
    finally:
        gc.enable()
    return reference_s(min(walls), samples)


def per_call_us(fn, args: list, repeat: int) -> float:
    """Best pass over ``args`` of ``fn(*a)``, in reference microseconds per
    call."""

    def run():
        for a in args:
            fn(*a)

    return best_s(run, repeat) / len(args) * 1e6


@contextmanager
def rebinding(owner, **values):
    """Set the named attributes of ``owner`` (a module) to ``values`` for
    the block, and restore the originals after it."""
    originals = {name: getattr(owner, name) for name in values}
    for name, value in values.items():
        setattr(owner, name, value)
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(owner, name, value)
