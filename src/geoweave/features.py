"""Feature model: patterns of walk-located element constraints plus an action.

A feature pairs a pattern (what must be present or absent around an anchor)
with an action (a walk to the cell to place on) and a weight that biases
playouts toward or away from that action.  Reactive features are
additionally keyed to the opponent's last move via a walk from the anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .walks import Walk, make_walk


class ElementKind(Enum):
    OFF = "-"
    EMPTY = "."
    FRIEND = "o"
    ENEMY = "x"
    PLAYER = "P"
    ITEM = "I"


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class Constraint:
    kind: ElementKind
    index: int | None = None  # PLAYER/ITEM only
    negated: bool = False

    def __post_init__(self):
        if self.kind in (ElementKind.PLAYER, ElementKind.ITEM):
            if self.index is None or self.index < 0:
                raise FeatureError(f"{self.kind.name} constraint needs index >= 0")
        elif self.index is not None:
            raise FeatureError(f"{self.kind.name} constraint takes no index")

    def glyph(self) -> str:
        base = self.kind.value + (str(self.index) if self.index is not None else "")
        return ("!" if self.negated else "") + base


@dataclass(frozen=True)
class PatternElement:
    walk: Walk
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if not self.constraints:
            raise FeatureError("element needs at least one constraint")
        positives = dict.fromkeys(c for c in self.constraints if not c.negated)  # in constraint order
        if len(positives) > 1:
            raise FeatureError(
                "contradictory positive constraints on one site: "
                + ",".join(c.glyph() for c in positives)
            )


@dataclass(frozen=True)
class Feature:
    elements: tuple[PatternElement, ...]
    action: Walk  # from the anchor to the cell to place on
    weight: float = 1.0
    anchor: int | None = None  # None = relative, otherwise absolute at this cell
    rotations: tuple[Fraction, ...] | None = None  # None = all start directions
    reflections: bool = False
    last_move: Walk | None = None  # set for a reactive feature only

    def __post_init__(self):
        if not self.elements:
            raise FeatureError("pattern needs at least one element")
        if not math.isfinite(self.weight):
            raise FeatureError("feature weight must be finite")
        if self.rotations is not None:
            normalized = make_walk(self.rotations)
            if not normalized:
                raise FeatureError("rotation list is empty; use rot=all for every start direction")
            object.__setattr__(self, "rotations", tuple(sorted(set(normalized))))

    @property
    def relative(self) -> bool:
        return self.anchor is None

    @property
    def reactive(self) -> bool:
        return self.last_move is not None


@dataclass(frozen=True)
class FeatureSet:
    features: tuple[Feature, ...]
    name: str = ""

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        return iter(self.features)


EMPTY = Constraint(ElementKind.EMPTY)
FRIEND = Constraint(ElementKind.FRIEND)
ENEMY = Constraint(ElementKind.ENEMY)
OFF = Constraint(ElementKind.OFF)


def negate(c: Constraint) -> Constraint:
    return Constraint(c.kind, c.index, not c.negated)
