"""Line-oriented textual format for features and feature sets.

One feature per line, ``#`` comments, optional ``name:`` header.  The
grammar is documented in full in docs/dsl.md; the short form is::

    rel|abs@N  proactive|reactive  [w=F] [last={..}] [rot=all|{..}]
    [refl=yes|no]  el={walk}:constraints ...  act_to={walk}

Walks are brace-delimited comma lists of signed fractions of a full
clockwise revolution, e.g. ``{0,0,1/4}``.  Element constraints are the
glyphs ``-``, ``.``, ``o``, ``x``, ``Pn``, ``In``, optionally prefixed
with ``!``, comma-joined into a conjunction.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
from fractions import Fraction

from .features import (
    Constraint,
    ElementKind,
    Feature,
    FeatureError,
    FeatureSet,
    PatternElement,
)
from .walks import WalkError, format_turn, format_walk, parse_walk

_GLYPH_RE = re.compile(r"^(!?)(-|\.|o|x|P(\d+)|I(\d+))$")


class DslError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "") + ": "
        super().__init__(where + message)


def _parse_constraint(text: str) -> Constraint:
    m = _GLYPH_RE.match(text)
    if not m:
        raise ValueError(f"unknown element glyph {text!r}")
    negated = m.group(1) == "!"
    body = m.group(2)
    if body.startswith("P"):
        return Constraint(ElementKind.PLAYER, int(m.group(3)), negated)
    if body.startswith("I"):
        return Constraint(ElementKind.ITEM, int(m.group(4)), negated)
    return Constraint(ElementKind(body), None, negated)


def _split_tokens(text: str) -> list[tuple[int, str]]:
    tokens = []
    col = 0
    for piece in text.split(" "):
        if piece:
            tokens.append((col + 1, piece))
        col += len(piece) + 1
    return tokens


def parse_feature(text: str, line: int | None = None) -> Feature:
    tokens = _split_tokens(text.strip())
    if not tokens:
        raise DslError("empty feature", line)

    anchor: int | None = None
    relative: bool | None = None
    reactive: bool | None = None
    weight: float | None = None
    rotations: tuple[Fraction, ...] | None | str = "unset"
    reflections: bool | None = None
    last_move = None
    elements: list[PatternElement] = []
    act_to = None

    def fail(col: int, msg: str):
        raise DslError(msg, line, col)

    for col, tok in tokens:
        try:
            if tok == "rel":
                if relative is not None:
                    fail(col, "duplicate scope")
                relative = True
            elif tok.startswith("abs@"):
                if relative is not None:
                    fail(col, "duplicate scope")
                relative = False
                anchor = int(tok[4:])
            elif tok in ("proactive", "reactive"):
                if reactive is not None:
                    fail(col, "duplicate mode")
                reactive = tok == "reactive"
            elif tok.startswith("w="):
                if weight is not None:
                    fail(col, "duplicate weight")
                weight = float(tok[2:])
            elif tok.startswith("last="):
                if last_move is not None:
                    fail(col, "duplicate last-move walk")
                last_move = parse_walk(tok[5:])
            elif tok.startswith("rot="):
                if rotations != "unset":
                    fail(col, "duplicate rotations")
                body = tok[4:]
                if body == "all":
                    rotations = None
                else:
                    rotations = parse_walk(body)
            elif tok.startswith("refl="):
                if reflections is not None:
                    fail(col, "duplicate reflections flag")
                if tok[5:] not in ("yes", "no"):
                    fail(col, f"refl= takes yes or no, got {tok[5:]!r}")
                reflections = tok[5:] == "yes"
            elif tok.startswith("el="):
                body = tok[3:]
                if ":" not in body:
                    fail(col, "element needs walk:constraints")
                walk_text, _, cons_text = body.partition(":")
                walk = parse_walk(walk_text)
                cons = tuple(_parse_constraint(p) for p in cons_text.split(",") if p)
                # Identical duplicate constraints collapse; contradictions raise.
                seen = []
                for c in cons:
                    if c not in seen:
                        seen.append(c)
                elements.append(PatternElement(walk, tuple(seen)))
            elif tok.startswith("act_to="):
                if act_to is not None:
                    fail(col, "duplicate act_to")
                act_to = parse_walk(tok[7:])
            else:
                fail(col, f"unrecognised token {tok!r}")
        except DslError:
            raise
        except (ValueError, WalkError, FeatureError) as exc:
            fail(col, str(exc))

    if relative is None:
        raise DslError("missing scope (rel or abs@N)", line)
    if reactive is None:
        raise DslError("missing mode (proactive or reactive)", line)
    if act_to is None:
        raise DslError("missing act_to={...}", line)
    if reactive and last_move is None:
        raise DslError("reactive feature needs a last-move walk (last={...})", line)
    if not reactive and last_move is not None:
        raise DslError("proactive feature cannot carry a last-move walk", line)

    try:
        return Feature(
            elements=tuple(elements),
            action=act_to,
            weight=1.0 if weight is None else weight,
            anchor=anchor,
            rotations=None if rotations in ("unset", None) else tuple(rotations),
            reflections=bool(reflections),
            last_move=last_move,
        )
    except FeatureError as exc:
        raise DslError(str(exc), line) from None


def _format_weight(w: float) -> str:
    return repr(w) if w != int(w) else str(int(w)) + ".0"


def serialize_feature(f: Feature) -> str:
    parts = ["rel" if f.relative else f"abs@{f.anchor}"]
    parts.append("reactive" if f.reactive else "proactive")
    parts.append("w=" + _format_weight(f.weight))
    if f.last_move is not None:
        parts.append("last=" + format_walk(f.last_move))
    if f.rotations is None:
        parts.append("rot=all")
    else:
        parts.append("rot={" + ",".join(format_turn(t) for t in f.rotations) + "}")
    parts.append("refl=" + ("yes" if f.reflections else "no"))
    for el in f.elements:
        parts.append("el=" + format_walk(el.walk) + ":" + ",".join(c.glyph() for c in el.constraints))
    parts.append("act_to=" + format_walk(f.action))
    return " ".join(parts)


def load_feature_set(source, name: str = "") -> FeatureSet:
    """Load a feature set from a path or text stream.

    Parse problems are aggregated and reported together with their line
    numbers rather than failing at the first bad line.  A path that cannot
    be opened or decoded as UTF-8 raises ``DslError`` too.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                return load_feature_set(fh, name or str(source))
        except (OSError, UnicodeDecodeError) as exc:
            raise DslError(f"cannot read feature file {source}: {exc}") from None
    features = []
    errors = []
    set_name = name
    for lineno, raw in enumerate(source, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("name:"):
            set_name = stripped[5:].strip()
            continue
        try:
            features.append(parse_feature(stripped, lineno))
        except DslError as exc:
            errors.append(str(exc))
    if errors:
        raise DslError("feature set has errors:\n  " + "\n  ".join(errors))
    if not features:
        raise DslError("empty feature set")
    return FeatureSet(tuple(features), set_name)


def dump_feature_set(fs: FeatureSet) -> str:
    lines = []
    if fs.name:
        lines.append(f"name: {fs.name}")
    lines.extend(serialize_feature(f) for f in fs.features)
    return "\n".join(lines) + "\n"


def save_feature_set(fs: FeatureSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_feature_set(fs))


def parse_feature_set(text: str, name: str = "") -> FeatureSet:
    return load_feature_set(io.StringIO(text), name)


def feature_set_hash(fs: FeatureSet) -> str:
    """Stable content hash of the canonical serialization."""
    payload = "\n".join(serialize_feature(f) for f in fs.features)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
