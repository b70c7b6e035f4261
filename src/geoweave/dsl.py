"""Line-oriented textual format for features and feature sets.

One feature per line, ``#`` comments, optional ``name:`` header.  The
grammar is documented in full in docs/dsl.md; the short form, whose parts
may come in any order, is::

    rel|abs@N  proactive|reactive  [w=F] [last={..}] [rot=all|{..}]
    [refl=yes|no]  el={walk}:constraints ...  act_to={walk}

Walks are brace-delimited comma lists of signed fractions of a full
clockwise revolution, e.g. ``{0,0,1/4}``.  Element constraints are the
glyphs ``-``, ``.``, ``o``, ``x``, ``Pn``, ``In``, optionally prefixed
with ``!``, comma-joined into a conjunction.
"""

from __future__ import annotations

import io
import os
import re

try:
    # hashlib is pretty heavy to load (it maps OpenSSL, ~3.5 MB of RSS):
    # take CPython's built-in module first, as the standard random module does
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        # fallback to the official implementation
        from hashlib import sha256

from .features import (
    Constraint,
    ElementKind,
    Feature,
    FeatureError,
    FeatureSet,
    PatternElement,
)
from .walks import format_walk, parse_walk

_GLYPH_RE = re.compile(r"^(!?)(-|\.|o|x|P(\d+)|I(\d+))$")
_TOKEN_RE = re.compile(r"[^ ]+")


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


def _parse_element(text: str) -> PatternElement:
    walk_text, colon, cons_text = text.partition(":")
    if not colon:
        raise ValueError("element needs walk:constraints")
    walk = parse_walk(walk_text)
    # Identical duplicate constraints collapse; contradictions raise.
    cons = dict.fromkeys(_parse_constraint(p) for p in cons_text.split(",") if p)
    return PatternElement(walk, tuple(cons))


def _parse_reflections(text: str) -> bool:
    if text not in ("yes", "no"):
        raise ValueError(f"refl= takes yes or no, got {text!r}")
    return text == "yes"


# Clause key -> (name in the "duplicate ..." error and in ``given``, value reader).
_CLAUSES = {
    "rel": ("scope", lambda _: None),
    "abs@": ("scope", int),
    "proactive": ("mode", lambda _: False),
    "reactive": ("mode", lambda _: True),
    "w=": ("weight", float),
    "last=": ("last-move walk", parse_walk),
    "rot=": ("rotations", lambda text: None if text == "all" else parse_walk(text)),
    "refl=": ("reflections flag", _parse_reflections),
    "el=": ("element", _parse_element),
    "act_to=": ("act_to", parse_walk),
}


def _clause(token: str) -> tuple[str, str]:
    """Split a token into its clause key (``rel``, ``abs@``, ``w=``, ...)
    and the value text after it."""
    key = "abs@" if token.startswith("abs@") else token[: token.find("=") + 1] or token
    return key, token[len(key):]


def parse_feature(text: str, line: int | None = None) -> Feature:
    """Parse one feature line.  Scope, mode and clauses come in any order;
    ``el=`` repeats in pattern order and every other clause is given at
    most once.  An error's column counts characters of ``text`` as given,
    from 1, so leading whitespace (a tab is one) shifts it."""
    start, end = len(text) - len(text.lstrip()), len(text.rstrip())
    if start >= end:  # all blank
        raise DslError("empty feature", line)
    given: dict[str, object] = {}
    elements: list[PatternElement] = []
    for match in _TOKEN_RE.finditer(text, start, end):
        col, token = match.start() + 1, match.group()
        key, value = _clause(token)
        if key not in _CLAUSES:
            raise DslError(f"unrecognised token {token!r}", line, col)
        name, read = _CLAUSES[key]
        if name in given:
            raise DslError(f"duplicate {name}", line, col)
        try:
            parsed = read(value)
        except ValueError as exc:  # WalkError and FeatureError among them
            raise DslError(str(exc), line, col) from None
        if key == "el=":
            elements.append(parsed)
        else:
            given[name] = parsed

    for name, message in (
        ("scope", "missing scope (rel or abs@N)"),
        ("mode", "missing mode (proactive or reactive)"),
        ("act_to", "missing act_to={...}"),
    ):
        if name not in given:
            raise DslError(message, line)
    if given["mode"] and "last-move walk" not in given:
        raise DslError("reactive feature needs a last-move walk (last={...})", line)
    if not given["mode"] and "last-move walk" in given:
        raise DslError("proactive feature cannot carry a last-move walk", line)

    try:
        return Feature(
            elements=tuple(elements),
            action=given["act_to"],
            weight=given.get("weight", 1.0),
            anchor=given["scope"],
            rotations=given.get("rotations"),
            reflections=given.get("reflections flag", False),
            last_move=given.get("last-move walk"),
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
        parts.append("rot=" + format_walk(f.rotations))
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
        text = raw.split("#", 1)[0]
        stripped = text.strip()
        if not stripped:
            continue
        if stripped.startswith("name:"):
            set_name = stripped[5:].strip()
            continue
        try:  # the unstripped text, so that columns count from the line as written
            features.append(parse_feature(text, lineno))
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
    return sha256(payload.encode("utf-8")).hexdigest()[:16]
