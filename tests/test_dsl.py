import dataclasses
import io
from fractions import Fraction as F

import pytest

from geoweave.dsl import (
    DslError,
    dump_feature_set,
    feature_set_hash,
    load_feature_set,
    parse_feature,
    parse_feature_set,
    save_feature_set,
    serialize_feature,
)
from geoweave.features import Constraint, ElementKind, Feature, FeatureError, PatternElement
from geoweave.rng import SplitMix64
from geoweave.walks import make_walk


def test_parse_hex_extension_feature():
    f = parse_feature("rel proactive w=1.0 rot=all refl=yes el={}:o el={0}:o act_to={1/6}")
    assert f.relative and not f.reactive
    assert f.weight == 1.0
    assert f.rotations is None and f.reflections
    assert len(f.elements) == 2
    assert f.action == make_walk([F(1, 6)])


def test_parse_bridge_feature():
    f = parse_feature("rel reactive w=2.0 last={0} el={0}:x el={1/6}:o el={-1/6}:o el={}:. act_to={}")
    assert f.reactive
    assert f.last_move == make_walk([0])
    kinds = [el.constraints[0].kind for el in f.elements]
    assert kinds == [ElementKind.ENEMY, ElementKind.FRIEND, ElementKind.FRIEND, ElementKind.EMPTY]
    assert f.action == ()


def test_parse_multi_qualifier_negation():
    f = parse_feature("rel proactive el={0}:x,!I3 act_to={}")
    el = f.elements[0]
    assert el.constraints == (
        Constraint(ElementKind.ENEMY),
        Constraint(ElementKind.ITEM, 3, negated=True),
    )


def test_all_syntax_glyphs_accepted():
    f = parse_feature(
        "rel proactive el={}:. el={0}:- el={1/4}:o el={1/2}:x el={-1/4}:P2 "
        "el={0,0}:I1 el={0,1/4}:!. el={0,1/2}:!-,!o,!x,!P1,!I0 act_to={}"
    )
    glyphs = {c.glyph() for el in f.elements for c in el.constraints}
    assert glyphs == {".", "-", "o", "x", "P2", "I1", "!.", "!-", "!o", "!x", "!P1", "!I0"}


def test_serialize_round_trips_spec_examples():
    for text in (
        "rel proactive w=1.0 rot=all refl=yes el={}:o el={0}:o act_to={1/6}",
        "rel reactive w=2.0 last={0} el={0}:x el={1/6}:o el={-1/6}:o el={}:. act_to={}",
        "abs@12 proactive w=0.25 rot={0} el={0}:x,!I3 act_to={0}",
    ):
        f = parse_feature(text)
        assert parse_feature(serialize_feature(f)) == f


def test_rotations_serialized_ascending():
    f = parse_feature("rel proactive rot={3/4,0,1/2,1/4} el={}:. act_to={}")
    assert f.rotations == make_walk([0, F(1, 4), F(1, 2), F(3, 4)])
    assert "rot={0,1/4,1/2,3/4}" in serialize_feature(f)


def test_negative_weight_serialization():
    f = parse_feature("rel proactive w=-0.5 el={}:. act_to={}")
    assert serialize_feature(f).split()[2] == "w=-0.5"


def test_default_weight_rotations_reflections():
    f = parse_feature("rel proactive el={}:. act_to={}")
    assert f.weight == 1.0
    assert f.rotations is None
    assert not f.reflections


def test_parse_errors_have_positions():
    with pytest.raises(DslError) as err:
        parse_feature("rel proactive el={0}:q act_to={}", line=3)
    assert "line 3" in str(err.value)
    assert "col" in str(err.value)


def test_contradictory_positives_rejected():
    with pytest.raises(DslError):
        parse_feature("rel proactive el={0}:o,x act_to={}")
    # Identical positives collapse instead.
    f = parse_feature("rel proactive el={0}:o,o act_to={}")
    assert len(f.elements[0].constraints) == 1


def test_reactive_requires_last_move():
    with pytest.raises(DslError, match=r"^line 4: reactive feature needs a last-move walk"):
        parse_feature("rel reactive el={0}:x act_to={}", 4)


def test_proactive_refuses_a_last_move_walk():
    with pytest.raises(DslError, match=r"^line 6: proactive feature cannot carry a last-move walk"):
        parse_feature("rel proactive last={0} el={}:. act_to={}", 6)


def test_a_feature_is_reactive_iff_it_has_a_last_move_walk():
    f = parse_feature("rel reactive last={0} el={}:. act_to={}")
    assert f.reactive and not dataclasses.replace(f, last_move=None).reactive
    with pytest.raises(TypeError):
        dataclasses.replace(f, reactive=False)


def test_empty_rotation_list_rejected():
    """``rot={}`` would give no placement at all, so a feature that never
    fires; ``rot=all`` is the way to ask for every start direction."""
    for scope in ("rel", "abs@3"):
        with pytest.raises(DslError, match=r"^line 2: rotation list is empty; use rot=all"):
            parse_feature(f"{scope} proactive rot={{}} el={{}}:. act_to={{}}", 2)


def test_act_from_is_an_unrecognised_token():
    """A move is the cell it places on: there is no move-from clause."""
    with pytest.raises(DslError, match=r"^line 5, col 34: unrecognised token 'act_from=\{\}'") as err:
        parse_feature("rel proactive el={}:. act_to={0} act_from={}", 5)
    assert err.value.column == 34


@pytest.mark.parametrize("text,column,message", [
    ("  ", None, "empty feature"),
    ("abs@0 rel proactive el={}:. act_to={}", 7, "duplicate scope"),
    ("rel abs@0 proactive el={}:. act_to={}", 5, "duplicate scope"),
    ("rel proactive reactive el={}:. act_to={}", 15, "duplicate mode"),
    ("rel w=1 w=2 el={}:. act_to={}", 9, "duplicate weight"),
    ("rel last={0} last={0} el={}:. act_to={}", 14, "duplicate last-move walk"),
    ("rel rot=all rot={0} el={}:. act_to={}", 13, "duplicate rotations"),
    ("rel refl=no refl=yes el={}:. act_to={}", 13, "duplicate reflections flag"),
    ("rel refl=maybe el={}:. act_to={}", 5, "refl= takes yes or no, got 'maybe'"),
    ("rel proactive el={} act_to={}", 15, "element needs walk:constraints"),
    ("rel proactive el={}:. act_to={} act_to={0}", 33, "duplicate act_to"),
])
def test_malformed_feature_is_reported_at_its_token(text, column, message):
    with pytest.raises(DslError) as err:
        parse_feature(text, line=7)
    where = "line 7: " if column is None else f"line 7, col {column}: "
    assert str(err.value) == where + message
    assert (err.value.line, err.value.column) == (7, column)


@pytest.mark.parametrize("body,column,message", [
    ("rel proactive el={}:. act_to={} bogus", 33, "unrecognised token 'bogus'"),
    ("rel proactive el={}:. act_to={} act_to={0}", 33, "duplicate act_to"),
    ("rel proactive el={}:. act_to=0", 23, "walk must be brace-delimited: '0'"),
])
@pytest.mark.parametrize("indent,comment", [
    ("", ""),
    ("    ", ""),
    ("\t", ""),
    ("", "  # trailing comment"),
    ("\t  ", "\t# trailing comment"),
])
def test_error_columns_count_from_the_line_as_written(body, column, message, indent, comment):
    """Columns are 1-based characters of the line as written, a tab
    counting as one: an indent shifts them and a trailing comment does not."""
    expected = f"line 2, col {column + len(indent)}: {message}"
    with pytest.raises(DslError) as err:
        parse_feature_set(f"# header\n{indent}{body}{comment}\n")
    assert str(err.value) == "feature set has errors:\n  " + expected
    with pytest.raises(DslError) as err:
        parse_feature(f"{indent}{body}\n", line=2)
    assert str(err.value) == expected
    assert err.value.column == column + len(indent)


EMPTY_ANCHOR = PatternElement((), (Constraint(ElementKind.EMPTY),))


@pytest.mark.parametrize("build,message", [
    (lambda: Constraint(ElementKind.PLAYER), "PLAYER constraint needs index >= 0"),
    (lambda: Constraint(ElementKind.ITEM, -1), "ITEM constraint needs index >= 0"),
    (lambda: Constraint(ElementKind.FRIEND, 1), "FRIEND constraint takes no index"),
    (lambda: PatternElement((), ()), "element needs at least one constraint"),
    (lambda: Feature((EMPTY_ANCHOR,), (), weight=float("inf")), "feature weight must be finite"),
    (lambda: Feature((EMPTY_ANCHOR,), (), weight=float("nan")), "feature weight must be finite"),
    # At most one positive constraint per element, named in constraint order.
    (lambda: PatternElement((), (Constraint(ElementKind.FRIEND), Constraint(ElementKind.PLAYER, 1))),
     "contradictory positive constraints on one site: o,P1"),
])
def test_feature_model_refuses_malformed_parts(build, message):
    with pytest.raises(FeatureError) as err:
        build()
    assert str(err.value) == message


def test_missing_clauses_rejected():
    for text in ("proactive el={}:. act_to={}", "rel el={}:. act_to={}", "rel proactive act_to={}",
                 "rel proactive el={}:."):
        with pytest.raises(DslError):
            parse_feature(text)


def test_load_feature_set_counts_and_comments():
    fs = parse_feature_set(
        """
# comment line
name: demo
rel proactive el={}:. act_to={}
rel proactive el={0}:o act_to={}  # trailing comment

rel proactive el={0}:x act_to={}
"""
    )
    assert fs.name == "demo"
    assert len(fs) == 3


def test_empty_feature_set_rejected():
    with pytest.raises(DslError, match="empty feature set"):
        load_feature_set(io.StringIO("# nothing here\n"))


def test_errors_aggregated_with_line_numbers():
    with pytest.raises(DslError) as err:
        load_feature_set(io.StringIO("rel proactive el={}:. act_to={}\nbogus\nrel nope\n"))
    message = str(err.value)
    assert "line 2" in message and "line 3" in message


def test_fixture_files_load(bridge_fs, line4_fs, group3_fs, thin_group_fs):
    assert len(bridge_fs) == 1 and bridge_fs.features[0].reactive
    assert len(line4_fs) == 4
    weights = [f.weight for f in line4_fs.features]
    assert weights == [8.0, 8.0, -0.5, -0.5]  # lines of 4 up, lines of 3 down
    assert all(not f.reactive for f in line4_fs.features)
    assert len(group3_fs) == 4 and len(thin_group_fs) == 3


def test_dump_round_trips_fixture(line4_fs):
    fs2 = parse_feature_set(dump_feature_set(line4_fs))
    assert fs2.features == line4_fs.features
    assert fs2.name == line4_fs.name


def test_save_round_trips_fixtures(tmp_path, bridge_fs, line4_fs, group3_fs, thin_group_fs):
    for i, fs in enumerate((bridge_fs, line4_fs, group3_fs, thin_group_fs)):
        path = tmp_path / f"set{i}.fs"
        save_feature_set(fs, path)
        assert path.read_text(encoding="utf-8") == dump_feature_set(fs)
        loaded = load_feature_set(path)
        assert (loaded.name, loaded.features) == (fs.name, fs.features)
        assert feature_set_hash(loaded) == feature_set_hash(fs)


# --- seeded fuzz: parse . serialize . parse is the identity -----------------


def random_feature(rng: SplitMix64) -> Feature:
    def frac():
        den = (2, 3, 4, 6, 8, 12)[rng.next_u64() % 6]
        num = rng.next_u64() % (2 * den + 1) - den
        return F(int(num), int(den))

    def walk():
        return make_walk([frac() for _ in range(rng.next_u64() % 4)])

    def constraint():
        k = rng.next_u64() % 6
        negated = rng.next_u64() % 2 == 0
        if k == 0:
            return Constraint(ElementKind.OFF, None, negated)
        if k == 1:
            return Constraint(ElementKind.EMPTY, None, negated)
        if k == 2:
            return Constraint(ElementKind.FRIEND, None, negated)
        if k == 3:
            return Constraint(ElementKind.ENEMY, None, negated)
        if k == 4:
            return Constraint(ElementKind.PLAYER, int(rng.next_u64() % 4), negated)
        return Constraint(ElementKind.ITEM, int(rng.next_u64() % 4), negated)

    def element():
        positive = constraint()
        cons = [positive]
        for _ in range(rng.next_u64() % 2):
            extra = constraint()
            extra = Constraint(extra.kind, extra.index, True)  # keep conjunctions satisfiable
            if extra not in cons:
                cons.append(extra)
        return PatternElement(walk(), tuple(cons))

    reactive = rng.next_u64() % 2 == 0
    rotations = None if rng.next_u64() % 2 == 0 else tuple({frac() for _ in range(1 + rng.next_u64() % 3)})
    return Feature(
        elements=tuple(element() for _ in range(1 + rng.next_u64() % 4)),
        action=walk(),
        weight=(rng.next_u64() % 4001 - 2000) / 8.0,
        anchor=None if rng.next_u64() % 2 == 0 else int(rng.next_u64() % 50),
        rotations=rotations,
        reflections=rng.next_u64() % 2 == 0,
        last_move=walk() if reactive else None,
    )


def test_fuzz_round_trip_small():
    rng = SplitMix64(2024)
    for _ in range(500):
        f = random_feature(rng)
        text = serialize_feature(f)
        again = parse_feature(text)
        assert again == f, text
        assert serialize_feature(again) == text


@pytest.mark.parametrize("text", [
    "abs@3 reactive w=2.5 last={0} rot={0,1/4} refl=yes el={0}:x el={1/6}:o el={-1/6}:o,!P2 "
    "el={}:. act_to={1/6}",
    "rel proactive w=-1.0 rot=all refl=no el={}:. el={0}:- el={0,1/4}:!x act_to={}",
])
def test_scope_mode_and_clauses_parse_in_any_order(text):
    """docs/dsl.md: scope, mode and every clause may come in any order;
    only the order of the el= tokens matters."""
    tokens = text.split()
    elements = [t for t in tokens if t.startswith("el=")]
    expected = parse_feature(text)
    rng = SplitMix64(11)
    for _ in range(200):
        shuffled = list(tokens)
        for i in range(len(shuffled) - 1, 0, -1):  # Fisher-Yates
            j = rng.next_u64() % (i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        in_order = iter(elements)
        line = " ".join(next(in_order) if t.startswith("el=") else t for t in shuffled)
        assert parse_feature(line) == expected, line
