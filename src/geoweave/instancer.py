"""Pre-generation of feature instances and their compiled bit tests.

Every feature is expanded once at load time into all of its concrete
placements: one candidate per anchor cell, rotation, reflection and
ambiguity branch.  Each surviving candidate is compiled into a whole-board
mask/target pair for the positive constraints plus a short list of
negative probes for the negated ones, each a (chunk mask, forbidden chunk)
pair over one cell, so the playout inner loop does no walk resolution at
all.

A compile does each distinct piece of its work once and shares it across
its placements and features:

- each feature's walks are mirrored once per feature, not once per
  placement, and equal walks share one memo table across the compile; the
  features that place alike share one list of placements;
- each distinct ``(walk, anchor, start direction)`` is resolved once; a
  repeat is two int-keyed lookups in the walk's table, but still one call
  of ``resolve_walk_branches`` per walk of each placement;
- each distinct pair of element constraint signature (every element's
  constraint tuple, by value) and combo (the element sites and the action
  and last-move cells) is compiled once: the mover is fixed within
  a compile, so the pair decides the instance, and a repeat is one
  lookup that adds the feature to the recipe of the instance the pair
  gave, or finds that the pair was rejected;
- each distinct constraint tuple (by value) is compiled once per site,
  straight to ints (``_compile_element``): the mask and target of the one
  cell value it requires, if any, and its negative probes; its probes are
  shared by every instance it enters.  A pair merges its elements' masks
  and targets with int operations, and a duplicate instance is found from
  that mask and target, its negative probes, its action cell and its
  last-move cell, and only adds to its recipe.

A compile yields the instances, which hold no weight, and each one's
recipe: the positions in ``fs.features`` of the features whose weights
the instance sums, in placement order, duplicates kept.  The recipe is the
instance's ``features``; one tuple of each distinct recipe is kept, which
every instance of it shares.  Its weight is the entry at its ``number``
in its index's ``weights``, added up from its recipe in that order
(``_recipe_weights``), so every merged weight is the same float sum as
compiling without memos.

An instance holds only what matching, bucketing and scoring read.  Where
it was placed (the anchor, start direction and reflection of the
placement that first produced it, and its elements' sites there) is kept
by no instance and no memo entry: ``instance_placements`` compiles it
afresh for the renderer and the tests, from the placement and the walk
branch combination that the compile hands back for each instance.

The walk plan (each feature's walks with their tables, and its
placements, in compile order) depends on the feature set's structure
(every field of each feature but its weight, by value) and the graph (by
value); the other memos above live for one compile.  The process keeps a
compile's instances, with their proactive tuple, their reactive buckets
and their recipes, and its plan, keyed by the structure, the graph and the
mover; the two movers' entries share one plan, and the last
``MEMO_ENTRIES`` entries are kept.  Calling ``instantiate`` again on a set
of that structure, such as a hill climb's reweighted set or the second
agent of a self-play match, hands back the kept instances and only sums
the new weights, once per distinct recipe, plus the walk calls that the
benchmark counts: the plan replays them, each a lookup in a kept table
(see ``_replay_walk_calls``).  Instances are frozen, so every index of a
structure can share them; an index owns its ``weights`` and its dict of
reactive buckets.

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
from .chunkset import CHUNK_BITS, CHUNK_MASK
from .features import Constraint, ElementKind, Feature, FeatureSet
from .walks import Walk, mirror_walk, resolve_walk_branches, round_turn


class InstancerError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class FeatureInstance:
    # The positions in the feature set of the features whose weights this
    # instance sums, in placement order, duplicates kept.
    features: tuple[int, ...]
    # The tests over the board's int, as match_instance runs them:
    mask: int  # every required cell's chunk
    target: int  # every required cell's value
    # (one cell's chunk mask, its forbidden chunk), sorted, so in cell order
    negative_probes: tuple[tuple[int, int], ...]
    action_to: int
    last_move_cell: int | None
    # Its position in ``InstanceIndex.instances``, where its weight sits in
    # ``InstanceIndex.weights``: the instance is shared by every index of
    # its structure, board and mover, whatever their weights.
    number: int


@dataclass
class InstanceIndex:
    graph: BoardGraph
    mover: int
    # Shared with every index of the same structure, board and mover.
    instances: tuple[FeatureInstance, ...] = ()
    proactive: tuple[FeatureInstance, ...] = ()
    # This index's own dict; its buckets are shared tuples.
    reactive_by_last_move: dict[int, tuple[FeatureInstance, ...]] = field(default_factory=dict)
    # This index's own: the weight of ``instances[n]`` is ``weights[n]``.
    weights: list[float] = field(default_factory=list)

    def reactive_for(self, cell: int) -> tuple[FeatureInstance, ...]:
        return self.reactive_by_last_move.get(cell, ())


def match_instance(inst: FeatureInstance, bits: int) -> bool:
    """Compiled instance test: one AND + compare of a board's int against
    the instance's mask and target, then one per negated-value probe.

    ``bits`` is a position's board, from the rules the instance's index
    was compiled for; the caller checks that.  Equal to a word-by-word
    test of the mask and target over the board's 64-bit words, followed
    by a test of the one cell each of the ``negative_probes`` covers,
    whatever the board size.
    """
    if bits & inst.mask != inst.target:
        return False
    for mask, forbidden in inst.negative_probes:
        if bits & mask == forbidden:
            return False
    return True


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
        return [(anchor, d, refl) for d, refl in _orientations(feature, graph.sides[anchor])]
    # Distinct: two different isometries never agree on the anchor's image,
    # the image of its slot 0 and whether they mirror.
    return [
        (sym.cell_map[anchor], sym.dir_maps[anchor][0], sym.mirror)
        for sym in graph.symmetries
        if feature.reflections or not sym.mirror
    ]


def _compile_element(
    constraints: tuple[Constraint, ...],
    site: int,
    mover: int,
) -> tuple[int, int, tuple[tuple[int, int], ...]] | None:
    """One element's tests at ``site``: ``(mask, target, negative probes)``.

    The mask and target cover the one cell value that the element's
    positive constraint requires (``PatternElement`` allows at most one),
    and are 0 without one; each negative probe is the site's chunk mask
    and the forbidden value shifted to it.  Returns None when the element
    can never hold at this site (walk landed on/off board against the
    constraint's requirement), which discards the whole candidate.
    """
    if any(c.kind is ElementKind.OFF and not c.negated for c in constraints):
        return (0, 0, ()) if site == OFF_BOARD else None
    if site == OFF_BOARD:
        return None

    mask = target = 0
    negatives = []
    shift = site * CHUNK_BITS
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
            negatives.append((CHUNK_MASK << shift, value << shift))
        else:
            mask = CHUNK_MASK << shift
            target = value << shift
    return mask, target, tuple(negatives)


def _feature_walks(feature: Feature, interned: dict[Walk, tuple], mirrored: bool) -> tuple:
    """The feature's element, action and last-move walks in one flat
    tuple (no last-move walk when absent), mirrored on request, each as
    the one ``(walk, table)`` pair in ``interned`` of its value: equal
    walks share one memo table."""
    walks = (*(el.walk for el in feature.elements), feature.action)
    if feature.last_move is not None:
        walks += (feature.last_move,)
    if mirrored:
        walks = map(mirror_walk, walks)
    return tuple(interned.setdefault(walk, (walk, {})) for walk in walks)


_MISSING = object()
_ABSENT = [None]  # the one "branch" of an absent last-move walk

# Compiled structures kept by the process, oldest first; the oldest is
# dropped when a new one would make more than this many.
MEMO_ENTRIES = 4
# Every Feature field but the weight: the structure that decides the
# compiled tests, and with them the memo key.
_structure = attrgetter(*(f.name for f in fields(Feature) if f.name != "weight"))
# (feature structures, graph, mover) -> (instances, proactive, reactive,
# recipes, recipe numbers, walk plan); see ``_compile`` and ``_walk_plan``.
# A hit replays its walk calls from the plan, each a lookup in the table
# that the plan keeps with its walk.  The two movers' entries of one
# structure and graph share one plan.
_memo: dict[tuple, tuple] = {}


def clear_memo() -> None:
    """Forget every compiled structure, so the next ``instantiate`` of any
    feature set compiles in full."""
    _memo.clear()


# Every Feature field that decides its placements: the fields that
# ``_placements``, ``_orientations`` and ``_absolute_placements`` read.
_placing = attrgetter("anchor", "rotations", "reflections")


def _placements(feature: Feature, graph: BoardGraph, shared: dict) -> list[tuple[int, int, bool]]:
    """(anchor, start direction, reflected) of every placement, in compile
    order: one list in ``shared`` for all the features of ``graph`` that
    place alike."""
    placing = _placing(feature)
    placements = shared.get(placing)
    if placements is not None:
        return placements
    if not feature.relative:
        placements = _absolute_placements(feature, graph)
    else:
        by_sides = {sides: _orientations(feature, sides) for sides in set(graph.sides)}
        placements = [
            (anchor, d, refl)
            for anchor, sides in enumerate(graph.sides)
            for d, refl in by_sides[sides]
        ]
    shared[placing] = placements
    return placements


def _walk_plan(fs: FeatureSet, graph: BoardGraph) -> tuple:
    """One entry per feature of ``fs``, in its order: (plain walks,
    mirrored walks, placements).

    The walks are the feature's element, action and last-move walks in one
    flat tuple, the last left out when absent, each as a ``(walk, table)``
    pair: ``table`` is that walk's ``resolve_walk_branches`` memo on
    ``graph``, one pair per walk value across the plan.  The mirrored walks
    serve its reflected placements and are None for a feature without
    reflections.  The placements are its (anchor, start direction,
    reflected) in compile order, one list shared by the features that
    place alike.

    The compile makes one ``resolve_walk_branches`` call per walk present
    of each placement, even where its pair memo leaves the result unused,
    and a memo hit makes the same calls (``_replay_walk_calls``):
    perfbench/expected.json freezes the number of walk calls.
    """
    interned_walks: dict[Walk, tuple] = {}
    shared_placements: dict[tuple, list] = {}
    plan = []
    for feature in fs:
        plain = _feature_walks(feature, interned_walks, mirrored=False)
        # Only features with reflections have reflected placements.
        mirrored = _feature_walks(feature, interned_walks, mirrored=True) if feature.reflections else None
        plan.append((plain, mirrored, _placements(feature, graph, shared_placements)))
    return tuple(plan)


def _replay_walk_calls(plan: tuple, graph: BoardGraph) -> None:
    """The walk calls of a compile along ``plan``, in its order, with their
    results dropped.

    Every call is a lookup in the plan's tables, which that compile
    filled.  A memo hit needs none of the results and makes the calls only
    for the frozen count; once the benchmark's work counts can be
    re-recorded on their own (ROADMAP item 1), a hit can skip them.
    """
    resolve = resolve_walk_branches
    for plain, mirrored, placements in plan:
        for anchor, start_dir, reflected in placements:
            for walk, table in mirrored if reflected else plain:
                resolve(graph, anchor, start_dir, walk, table)


def _compile(fs: FeatureSet, graph: BoardGraph, mover: int, plan: tuple) -> tuple:
    """A feature set's instances, compiled along ``plan``
    (``_walk_plan(fs, graph)``, whose entry at each position is that
    feature's), whose tables it fills: ``(instances, proactive, reactive,
    recipes, recipe numbers, placements, combos)``.

    ``proactive`` holds the instances without a last-move cell and
    ``reactive`` the others in one tuple per last-move cell, each in
    instance order.  A recipe is an instance's ``features``: the positions
    in ``fs.features`` whose weights the instance sums, duplicates kept,
    in the order the placements produced them.  ``recipes`` holds each
    distinct one once, and the recipe numbers give each instance's
    position in it.  The placements and combos give, for each instance,
    the placement tuple of the plan and the walk branch combination (the
    element sites, then the action and last-move cells) that first
    produced it: the objects the compile made anyway, which only
    ``instance_placements`` reads.

    Each element (constraint tuple by value, at a site) is compiled once,
    by ``_compile_element``; a new pair merges its elements' masks and
    targets with int operations.
    """
    if not 1 <= mover <= 2:
        raise InstancerError(f"mover {mover} out of range 1..2")
    # Every instance field from ``mask`` to ``last_move_cell``, in field
    # order, until the recipes are complete.
    templates: list[tuple] = []
    recipes: list[list[int]] = []
    placed: list[tuple[int, int, bool]] = []
    combos: list[tuple] = []
    # Instance number by its compiled tests and action cell.
    dedup: dict[tuple, int] = {}
    # Memos of this compile; only its result is kept (see ``instantiate``).
    # Compiled elements by constraint tuple (by value), then by site:
    # (mask, target, negative probes), or None where the element can
    # never hold.
    compiled_by_constraints: dict[tuple[Constraint, ...], dict] = {}
    # The instance number each (element constraint signature, combo) pair
    # gave, or None for a rejected pair: by signature (by value), then by combo.
    instance_by_signature: dict[tuple, dict] = {}

    def compile_pair(elements, combo, placement):
        """The instance number of one pair not seen before in this compile,
        or None when the pair can never match."""
        action_to, last_cell = combo[-2:]
        if action_to == OFF_BOARD or last_cell == OFF_BOARD:
            return None
        mask = target = 0
        negatives: list[tuple[int, int]] = []
        for (constraints, by_site), site in zip(elements, combo):
            compiled = by_site.get(site, _MISSING)
            if compiled is _MISSING:
                compiled = by_site[site] = _compile_element(constraints, site, mover)
            if compiled is None:
                return None
            m, t, neg = compiled
            # Two elements conflict on a cell both require with different values.
            if (target ^ t) & mask & m:
                return None
            mask |= m
            target |= t
            negatives += neg
        kept = set()
        for probe in negatives:
            m, forbidden = probe
            if not mask & m:
                kept.add(probe)
            elif target & m == forbidden:
                # A forbidden value equal to a required one can never
                # match; any other is subsumed by the required value.
                return None
        # In cell order, then value order: each probe masks one cell.
        probes = tuple(sorted(kept))

        # One-to-one with the required and forbidden cell values.
        key = (mask, target, probes, action_to, last_cell)
        number = dedup.get(key)
        if number is not None:
            return number
        number = dedup[key] = len(templates)
        templates.append(key)
        recipes.append([])
        placed.append(placement)
        combos.append(combo)
        return number

    for position, (feature, (plain, mirrored, placements)) in enumerate(zip(fs.features, plan)):
        elements = [
            (el.constraints, compiled_by_constraints.setdefault(el.constraints, {}))
            for el in feature.elements
        ]
        by_combo = instance_by_signature.setdefault(tuple(c for c, _ in elements), {})
        absent = feature.last_move is None
        for placement in placements:
            anchor, start_dir, reflected = placement
            branches = [
                resolve_walk_branches(graph, anchor, start_dir, walk, table)
                for walk, table in (mirrored if reflected else plain)
            ]
            if absent:
                branches.append(_ABSENT)
            for combo in itertools.product(*branches):
                number = by_combo.get(combo, _MISSING)
                if number is _MISSING:
                    number = by_combo[combo] = compile_pair(elements, combo, placement)
                if number is not None:
                    recipes[number].append(position)
    # The memos of this compile go before the instances are built, which
    # keeps them out of the compile's peak memory.
    for memo in (dedup, compiled_by_constraints, instance_by_signature):
        memo.clear()

    # Few recipes are distinct (58 of 5,296 on the hex7 candidates, as
    # tools/compile.py reports), so each is kept once.
    distinct: dict[tuple[int, ...], int] = {}
    numbers = tuple(distinct.setdefault(r, len(distinct)) for r in map(tuple, recipes))
    shared = tuple(distinct)
    instances = tuple(
        FeatureInstance(shared[k], *template, number)
        for number, (template, k) in enumerate(zip(templates, numbers))
    )
    proactive = []
    reactive: dict[int, list[FeatureInstance]] = {}
    for inst in instances:
        if inst.last_move_cell is None:
            proactive.append(inst)
        else:
            reactive.setdefault(inst.last_move_cell, []).append(inst)
    buckets = {cell: tuple(bucket) for cell, bucket in reactive.items()}
    return instances, tuple(proactive), buckets, shared, numbers, placed, combos


def _recipe_weights(fs: FeatureSet, recipes: tuple, numbers: tuple) -> list[float]:
    """Each instance's weight, from the distinct ``recipes`` and each
    instance's recipe number: every recipe's weights are summed once, left
    to right as the placements produced them (not with ``sum``, which
    compensates float sums from Python 3.12), so that every weight is the
    float a compile without memos adds up."""
    weights = [f.weight for f in fs.features]
    sums = []
    for recipe in recipes:
        weight = weights[recipe[0]]
        for position in recipe[1:]:
            weight += weights[position]
        sums.append(weight)
    return [sums[k] for k in numbers]


def instantiate(fs: FeatureSet, graph: BoardGraph, mover: int) -> InstanceIndex:
    """Expand a feature set into its full per-board instance index.

    Duplicate instances (identical compiled tests and action) are merged
    with their weights summed, which preserves the additive application
    semantics when symmetry expansion or ambiguity branches overlap.
    A structure compiled before in this process is not compiled again
    (see the module docstring): the call hands back the instances of the
    first compile, which are frozen, with new ``weights`` and a new dict
    of reactive buckets.
    """
    structures = tuple(map(_structure, fs.features))
    key = (structures, graph, mover)
    entry = _memo.get(key)
    if entry is None:
        # The walk plan and its tables do not depend on the mover, so a
        # kept entry of the other mover lends its own.
        other = _memo.get((structures, graph, 3 - mover))
        plan = other[-1] if other else _walk_plan(fs, graph)
        # The placements and combos are dropped: no instance keeps them.
        instances, proactive, reactive, recipes, numbers, _, _ = _compile(fs, graph, mover, plan)
        entry = (instances, proactive, reactive, recipes, numbers, plan)
        if len(_memo) >= MEMO_ENTRIES:
            del _memo[next(iter(_memo))]
        _memo[key] = entry
    else:
        _replay_walk_calls(entry[-1], graph)
    instances, proactive, reactive, recipes, numbers, _ = entry
    return InstanceIndex(graph, mover, instances, proactive, dict(reactive), _recipe_weights(fs, recipes, numbers))


def instance_placements(
    fs: FeatureSet, graph: BoardGraph, mover: int
) -> list[tuple[FeatureInstance, int, int, bool, tuple[tuple[int, tuple[Constraint, ...]], ...]]]:
    """Each instance of ``instantiate(fs, graph, mover)``, in index order,
    as ``(instance, anchor, start direction, reflected, element sites)``:
    the placement that first produced the instance, and the ``(site,
    constraints)`` of each element of that placement's feature, which is
    ``fs.features[instance.features[0]]``, in the feature's order.

    Instances keep no placement, as matching reads none, so this compiles
    ``fs`` afresh, without the compile memo, whose entries it neither
    reads nor adds to.  The renderer draws from it.
    """
    instances, *_, placed, combos = _compile(fs, graph, mover, _walk_plan(fs, graph))
    out = []
    for inst, (anchor, start_dir, reflected), combo in zip(instances, placed, combos):
        elements = fs.features[inst.features[0]].elements
        sites = tuple((site, el.constraints) for el, site in zip(elements, combo))
        out.append((inst, anchor, start_dir, reflected, sites))
    return out
