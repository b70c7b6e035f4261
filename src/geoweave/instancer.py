"""Pre-generation of feature instances and their compiled bit tests.

Every feature is expanded once at load time into all of its concrete
placements: one candidate per anchor cell, rotation, reflection and
ambiguity branch.  Each surviving candidate is compiled into a whole-board
mask/target pair for the positive constraints plus a short list of
per-cell forbidden-value tests for the negated ones, so the playout inner
loop does no walk resolution at all.

A compile does each distinct piece of its work once and shares it across
its placements and features:

- each feature's walks are mirrored once per feature, not once per
  placement, and equal walks share one object across the compile;
- each distinct ``(walk, anchor, start direction)`` is resolved once; a
  repeat is a lookup in the compile's walk memo, but still one call of
  ``resolve_walk_branches`` per walk of each placement;
- each distinct pair of element constraint signature (every element's
  constraint tuple, by value) and combo (the element sites and the action
  and last-move cells) is compiled once: the mover is fixed within
  a compile, so the pair decides the instance, and a repeat is one
  lookup that adds the feature to the recipe of the instance the pair
  gave, or finds that the pair was rejected;
- each distinct constraint tuple (by value) is compiled once per site;
- each distinct instance builds its full-board mask/target once: a
  duplicate is found from its required and forbidden cell values, its
  action cell and its last-move cell, and only adds to its recipe.

A compile yields one template per instance (every field but the feature
and the weight) and one recipe: the positions of the features whose
weights the instance sums, in placement order.  Weights are added from
the recipe in that order, so every merged weight is the same float sum as
compiling without memos; an instance's feature, anchor, direction and
element sites come from the placement that first produced it.

The memos above live for one compile.  Its templates and recipes are kept
by the process, keyed by the feature set's structure (every field of each
feature but its weight, by value), the graph (by value) and the mover;
the last ``MEMO_ENTRIES`` structures are kept.  Calling ``instantiate``
again on a set of that structure, such as a hill climb's reweighted set
or the second agent of a self-play match, only builds fresh instances
and sums the new weights, plus the walk calls that the benchmark counts
(see ``_replay_walk_calls``).

Friend/enemy constraints are resolved against a concrete mover when
instantiating, so an engine holds one instance index per player.  The
games have two players and a cell holds 0..2 (``chunkset``), so the enemy
of ``mover`` is ``3 - mover``, a player index ``Pn`` is 1..2 and an item
index ``In``, which the games read as the cell value n, is 0..2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from operator import attrgetter

from .board import OFF_BOARD, BoardGraph
from .chunkset import CHUNK_BITS
from .features import Constraint, ElementKind, Feature, FeatureSet
from .walks import Walk, mirror_walk, resolve_walk_branches, round_turn


class InstancerError(ValueError):
    pass


@dataclass(slots=True)
class FeatureInstance:
    feature: Feature
    anchor: int
    start_dir: int
    reflected: bool
    # The tests over the board's int, as match_instance runs them:
    mask: int  # every required cell's chunk
    target: int  # every required cell's value
    negative_tests: tuple[tuple[int, int], ...]  # (cell, forbidden chunk value)
    negative_probes: tuple[tuple[int, int], ...]  # (chunk mask, forbidden chunk)
    element_sites: tuple[tuple[int, tuple[Constraint, ...]], ...]
    action_to: int
    last_move_cell: int | None
    weight: float

    @property
    def reactive(self) -> bool:
        return self.last_move_cell is not None


@dataclass
class InstanceIndex:
    graph: BoardGraph
    mover: int
    instances: list[FeatureInstance] = field(default_factory=list)
    proactive: list[FeatureInstance] = field(default_factory=list)
    reactive_by_last_move: dict[int, list[FeatureInstance]] = field(default_factory=dict)

    def reactive_for(self, cell: int) -> list[FeatureInstance]:
        return self.reactive_by_last_move.get(cell, [])


def match_instance(inst: FeatureInstance, bits: int) -> bool:
    """Compiled instance test: one AND + compare of a board's int against
    the instance's mask and target, then one per negated-value probe.

    ``bits`` is a position's board, from the rules the instance's index
    was compiled for; the caller checks that.  Equal to a word-by-word
    test of the mask and target over the board's 64-bit words, followed
    by a per-cell test of each of the ``negative_tests``, whatever the
    board size.
    """
    if bits & inst.mask != inst.target:
        return False
    for mask, forbidden in inst.negative_probes:
        if bits & mask == forbidden:
            return False
    return True


def _negative_probes(negative_tests: tuple[tuple[int, int], ...]) -> tuple:
    """``negative_probes`` for one compiled instance."""
    full = (1 << CHUNK_BITS) - 1
    return tuple(
        (full << cell * CHUNK_BITS, forbidden << cell * CHUNK_BITS)
        for cell, forbidden in negative_tests
    )


def _orientations(feature: Feature, sides: int) -> list[tuple[int, bool]]:
    """(start direction, reflected) of each placement at an anchor with
    ``sides`` edges."""
    if feature.rotations is None:
        dirs = list(range(sides))
    else:
        dirs = []
        for rot in feature.rotations:
            d = round_turn(rot, sides) % sides
            if d not in dirs:
                dirs.append(d)
    out = [(d, False) for d in dirs]
    if feature.reflections:
        out.extend((d, True) for d in dirs)
    return out


def _absolute_placements(feature: Feature, graph: BoardGraph) -> list[tuple[int, int, bool]]:
    anchor = feature.anchor
    if not 0 <= anchor < graph.cell_count:
        raise InstancerError(f"absolute anchor {anchor} outside board")
    if feature.rotations is not None:
        # Explicit rotation lists turn the pattern in place at its anchor.
        placements = [(anchor, d, refl) for d, refl in _orientations(feature, graph.sides[anchor])]
        return placements
    if not graph.symmetries:
        raise InstancerError(
            f"board {type(graph.kind).__name__} has no symmetry maps; "
            "absolute patterns with rot=all/refl=yes are unsupported here"
        )
    placements = []
    for sym in graph.symmetries:
        if sym.mirror and not feature.reflections:
            continue
        placements.append((sym.cell_map[anchor], sym.dir_maps[anchor][0], sym.mirror))
    seen = set()
    unique = []
    for p in placements:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique


def _compile_constraints(
    constraints: tuple[Constraint, ...],
    site: int,
    mover: int,
) -> tuple[dict[int, int], set[tuple[int, int]]] | None:
    """Positive chunk assignments and negative tests for one element.

    Returns None when the element can never hold at this site (walk landed
    on/off board against the constraint's requirement), which discards the
    whole candidate.
    """
    positives: dict[int, int] = {}
    negatives: set[tuple[int, int]] = set()

    has_positive_off = any(c.kind is ElementKind.OFF and not c.negated for c in constraints)
    if has_positive_off:
        return (positives, negatives) if site == OFF_BOARD else None
    if site == OFF_BOARD:
        return None

    for c in constraints:
        if c.kind is ElementKind.OFF:
            continue  # negated OFF just demands an on-board site, already true
        if c.kind is ElementKind.EMPTY:
            value = 0
        elif c.kind is ElementKind.FRIEND:
            value = mover
        elif c.kind is ElementKind.ENEMY:
            value = 3 - mover
        elif c.kind is ElementKind.PLAYER:
            if not 1 <= c.index <= 2:
                raise InstancerError(f"player index {c.index} out of range 1..2")
            value = c.index
        else:  # ITEM: the built-in games equip one piece type per player
            if not 0 <= c.index <= 2:
                raise InstancerError(f"item index {c.index} out of range 0..2")
            value = c.index
        if c.negated:
            negatives.add((site, value))
        else:
            if site in positives and positives[site] != value:
                return None
            positives[site] = value
    return positives, negatives


def _feature_walks(feature: Feature, interned: dict[Walk, Walk], mirrored: bool) -> tuple:
    """The feature's element, action and last-move walks in one flat
    tuple (last None when absent), mirrored on request, each replaced by
    the call's one object of equal value so that the walk memo shares its
    entries."""

    def one(walk: Walk | None) -> Walk | None:
        if walk is None:
            return None
        if mirrored:
            walk = mirror_walk(walk)
        return interned.setdefault(walk, walk)

    return (
        *(one(el.walk) for el in feature.elements),
        one(feature.action),
        one(feature.last_move),
    )


_MISSING = object()
_ABSENT = [None]  # the one "branch" of an absent last-move walk

# Compiled structures kept by the process, oldest first; the oldest is
# dropped when a new one would make more than this many.
MEMO_ENTRIES = 4
# Every Feature field but the weight: the structure that decides the
# compiled tests, and with them the memo key.
_structure = attrgetter(*(f.name for f in fields(Feature) if f.name != "weight"))
# (feature structures, graph, mover) -> (templates, recipes);
# see ``_compile``.
_memo: dict[tuple, tuple] = {}


def clear_memo() -> None:
    """Forget every compiled structure, so the next ``instantiate`` of any
    feature set compiles in full."""
    _memo.clear()


def _placements(feature: Feature, graph: BoardGraph) -> list[tuple[int, int, bool]]:
    """(anchor, start direction, reflected) of every placement, in compile order."""
    if not feature.relative:
        return _absolute_placements(feature, graph)
    by_sides = {sides: _orientations(feature, sides) for sides in set(graph.sides)}
    return [
        (anchor, d, refl)
        for anchor, sides in enumerate(graph.sides)
        for d, refl in by_sides[sides]
    ]


def _placement_walks(fs: FeatureSet, graph: BoardGraph):
    """Each placement of each feature, in compile order, as (position in
    ``fs.features``, anchor, start direction, reflected, walks): the
    feature's element, action and last-move walks in one flat tuple,
    mirrored for a reflected placement, with None for an absent last-move
    walk.  Equal walks are one object across the call, so that a walk memo
    shares entries.

    The compile makes one ``resolve_walk_branches`` call per walk present
    of each placement, even where its pair memo leaves the result unused,
    and a memo hit makes the same calls (``_replay_walk_calls``):
    perfbench/expected.json freezes the number of walk calls.
    """
    interned_walks: dict[Walk, Walk] = {}
    for position, feature in enumerate(fs):
        plain = _feature_walks(feature, interned_walks, mirrored=False)
        # Only features with reflections have reflected placements.
        mirrored = _feature_walks(feature, interned_walks, mirrored=True) if feature.reflections else None
        for anchor, start_dir, reflected in _placements(feature, graph):
            yield position, anchor, start_dir, reflected, mirrored if reflected else plain


def _replay_walk_calls(fs: FeatureSet, graph: BoardGraph) -> None:
    """The walk calls of a compile of ``fs``, in its order, with their
    results dropped.

    A memo hit needs none of the results and makes the calls only for the
    frozen count; they are most of a hit's cost.  Once the benchmark's
    work counts can be re-recorded on their own (ROADMAP item 1), a hit
    can skip them.
    """
    walk_memo: dict = {}
    for _, anchor, start_dir, _, walks in _placement_walks(fs, graph):
        for walk in walks:
            if walk is not None:
                resolve_walk_branches(graph, anchor, start_dir, walk, walk_memo)


def _compile(fs: FeatureSet, graph: BoardGraph, mover: int) -> tuple[tuple, tuple]:
    """The templates and recipes of a feature set's instances, in order.

    A template holds every ``FeatureInstance`` field between ``feature``
    and ``weight``, in field order.  A recipe holds the positions in
    ``fs.features`` whose weights the instance sums, duplicates kept, in
    the order the placements produced them; its first position names the
    instance's feature.
    """
    full = (1 << CHUNK_BITS) - 1
    templates: list[tuple] = []
    recipes: list[list[int]] = []
    # Instance number by its compiled tests and action cell.
    dedup: dict[tuple, int] = {}
    # Memos of this compile; only its result is kept (see ``instantiate``).
    walk_memo: dict = {}
    # Compiled element tests by constraint tuple (by value), then by site.
    compiled_by_constraints: dict[tuple[Constraint, ...], dict] = {}
    # The instance number each (element constraint signature, combo) pair
    # gave, or None for a rejected pair: by signature (by value), then by combo.
    instance_by_signature: dict[tuple, dict] = {}

    def compile_pair(feature, elements, combo, anchor, start_dir, reflected):
        """The instance number of one pair not seen before in this compile,
        or None when the pair can never match."""
        action_to, last_cell = combo[-2:]
        if action_to == OFF_BOARD or last_cell == OFF_BOARD:
            return None
        positives: dict[int, int] = {}
        negatives: set[tuple[int, int]] = set()
        for (constraints, by_site), site in zip(elements, combo):
            compiled = by_site.get(site, _MISSING)
            if compiled is _MISSING:
                compiled = by_site[site] = _compile_constraints(constraints, site, mover)
            if compiled is None:
                return None
            pos, neg = compiled
            for cell, value in pos.items():
                if positives.get(cell, value) != value:
                    return None
                positives[cell] = value
            negatives |= neg
        # A forbidden value equal to a required one can never match.
        if any(positives.get(cell) == v for cell, v in negatives):
            return None
        # Required values subsume negative tests on the same cell.
        neg_sorted = tuple(sorted((cell, v) for cell, v in negatives if cell not in positives))

        # One-to-one with the compiled mask/target, which are only
        # built for an instance not seen before.
        key = (tuple(sorted(positives.items())), neg_sorted, action_to, last_cell)
        number = dedup.get(key)
        if number is not None:
            return number
        mask = target = 0
        for cell, value in positives.items():
            mask |= full << cell * CHUNK_BITS
            target |= value << cell * CHUNK_BITS
        number = dedup[key] = len(templates)
        templates.append((
            anchor,
            start_dir,
            reflected,
            mask,
            target,
            neg_sorted,
            _negative_probes(neg_sorted),
            tuple((site, el.constraints) for el, site in zip(feature.elements, combo)),
            action_to,
            last_cell,
        ))
        recipes.append([])
        return number

    features = fs.features
    prepared = []
    for feature in features:
        elements = [
            (el.constraints, compiled_by_constraints.setdefault(el.constraints, {}))
            for el in feature.elements
        ]
        prepared.append((elements, instance_by_signature.setdefault(tuple(c for c, _ in elements), {})))

    for position, anchor, start_dir, reflected, walks in _placement_walks(fs, graph):
        feature = features[position]
        elements, by_combo = prepared[position]
        branches = [
            _ABSENT if walk is None else resolve_walk_branches(graph, anchor, start_dir, walk, walk_memo)
            for walk in walks
        ]
        for combo in itertools.product(*branches):
            number = by_combo.get(combo, _MISSING)
            if number is _MISSING:
                number = by_combo[combo] = compile_pair(
                    feature, elements, combo, anchor, start_dir, reflected
                )
            if number is not None:
                recipes[number].append(position)

    # Few recipes are distinct (58 of 5,296 on the hex7 candidates), so the
    # memo keeps one tuple of each.
    distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
    return tuple(templates), tuple(distinct.setdefault(r, r) for r in map(tuple, recipes))


def _weighted_index(index: InstanceIndex, fs: FeatureSet, templates: tuple, recipes: tuple) -> InstanceIndex:
    """``index`` filled with fresh instances from templates and recipes,
    each weight summed left to right as the placements produced it (not
    with ``sum``, which compensates float sums from Python 3.12), so that
    every weight is the float a compile without memos adds up."""
    features = fs.features
    weights = [f.weight for f in features]
    proactive, reactive = index.proactive, index.reactive_by_last_move
    for template, recipe in zip(templates, recipes):
        weight = weights[recipe[0]]
        for position in recipe[1:]:
            weight += weights[position]
        inst = FeatureInstance(features[recipe[0]], *template, weight)
        index.instances.append(inst)
        if inst.last_move_cell is None:
            proactive.append(inst)
        else:
            reactive.setdefault(inst.last_move_cell, []).append(inst)
    return index


def instantiate(fs: FeatureSet, graph: BoardGraph, mover: int) -> InstanceIndex:
    """Expand a feature set into its full per-board instance index.

    Duplicate instances (identical compiled tests and action) are merged
    with their weights summed, which preserves the additive application
    semantics when symmetry expansion or ambiguity branches overlap.
    A structure compiled before in this process is not compiled again
    (see the module docstring); every call returns new instances.
    """
    if not 1 <= mover <= 2:
        raise InstancerError(f"mover {mover} out of range 1..2")
    key = (tuple(map(_structure, fs.features)), graph, mover)
    compiled = _memo.get(key)
    if compiled is None:
        compiled = _compile(fs, graph, mover)
        if len(_memo) >= MEMO_ENTRIES:
            del _memo[next(iter(_memo))]
        _memo[key] = compiled
    else:
        _replay_walk_calls(fs, graph)
    return _weighted_index(InstanceIndex(graph, mover), fs, *compiled)
