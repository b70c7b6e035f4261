"""Outside-in tracing: wrap geoweave's public functions and record spans.

Nothing in the package is changed on disk.  While a :class:`Tracer` is
installed, every module-level reference to a traced function (the defining
module and every ``from .x import f`` copy in other geoweave modules,
the package namespace included) is rebound to a wrapper, and the rules
methods are wrapped on their classes.  Uninstalling restores the originals.

Each wrapper records a span: its name, start, end and parent (the span
open when it started).  Spans are folded into per-name totals as they
close instead of being kept one by one, because one timed call can open
close to a million ``match_instance`` spans.  A span's
self time is its duration minus the time its child spans cover, so the
self times of all spans plus the time outside any span add up to the
traced wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function, span name, how to count work from the return value).
FUNCTIONS = (
    ("geoweave.dsl", "load_feature_set", "dsl.load_feature_set", None),
    ("geoweave.featuregen", "generate_candidates", "featuregen.generate_candidates", len),
    ("geoweave.featuregen", "evaluate_feature_set", "featuregen.evaluate_feature_set", None),
    ("geoweave.instancer", "instantiate", "instancer.instantiate", lambda idx: len(idx.instances)),
    ("geoweave.walks", "resolve_walk_branches", "walks.resolve_walk_branches", None),
    ("geoweave.search", "play_match", "search.play_match", None),
    ("geoweave.search", "mcts_best_move", "search.mcts_best_move", None),
    ("geoweave.search", "run_playout", "search.run_playout", None),
    ("geoweave.search", "biased_scores", "search.biased_scores", None),
    ("geoweave.instancer", "match_instance", "instancer.match_instance", bool),
)

# Rules methods, wrapped on every class in geoweave.games that defines them.
METHODS = (
    ("legal_moves", "games.legal_moves"),
    ("apply", "games.apply"),
    ("status", "games.status"),
)
RULES_CLASSES = ("GameRules", "HexRules", "Line4Rules")

SPAN_NAMES = tuple(name for _, _, name, _ in FUNCTIONS) + tuple(name for _, name in METHODS)


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.work = 0


class Tracer:
    """Span recorder for one traced session (set-up plus one timed call)."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        # Spans closed, by (parent span name, span name); parent None at top.
        self.by_parent: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, child time]
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, name: str, duration: float, child_time: float) -> SpanStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        st.calls += 1
        st.total += duration
        st.self_time += duration - child_time
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            self.by_parent[(parent[0], name)] += 1
        else:
            self.by_parent[(None, name)] += 1
        return st

    def wrap(self, name: str, fn, measure=None):
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                st = close(name, duration, frame[1])
            if measure is not None:
                st.work += measure(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span of the benchmark's own (a phase)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "geoweave" or n.startswith("geoweave.")]
        for module_name, attr, name, measure in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.wrap(name, original, measure)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        games = importlib.import_module("geoweave.games")
        for cls_name in RULES_CLASSES:
            cls = getattr(games, cls_name)
            for attr, name in METHODS:
                if attr in cls.__dict__:
                    self._rebind(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # --- read-out ---------------------------------------------------------

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()
