"""Timing and recording helpers shared by the per-layer timing tools.

``best_s`` and ``per_call_us`` time untraced code with the garbage
collector off and keep the best pass.  ``rebinding`` swaps module
attributes for the length of a block, which is how the tools record the
arguments of the calls a library function makes.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager


def best_s(fn, repeat: int, setup=None) -> float:
    """Best of ``repeat`` timed calls of ``fn()``, in seconds; ``setup()``,
    when given, runs untimed before each call."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            if setup is not None:
                setup()
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def per_call_us(fn, args: list, repeat: int) -> float:
    """Best pass over ``args`` of ``fn(*a)``, in microseconds per call."""

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
