import pytest

from orthoview import (
    ParseError,
    Record,
    ValidationError,
    build,
    build_orthoposet,
    build_poset,
    build_repsys,
    classify,
    doc_from_orthoposet,
    emit_report,
    parse,
    serialize,
    zoo,
    zoo_model,
)
from orthoview.modelio import tokens_of


MO2_TEXT = (
    "orthoposet MO2 { elements 0 a a' b b' 1 ; "
    "covers 0<a 0<a' 0<b 0<b' a<1 a'<1 b<1 b'<1 ; ortho 0:1 a:a' b:b' }"
)


def test_parse_mo2_one_liner_and_classify():
    o = build_orthoposet(parse(MO2_TEXT))
    sc = classify(o)
    assert sc.is_oml and not sc.is_boolean


def test_comments_and_whitespace_ignored():
    text = "poset p {  # a comment\n  elements x y ; # another\n  covers x<y\n}\n"
    doc = parse(text)
    assert doc.elements == ("x", "y")
    assert doc.covers == (("x", "y"),)


def test_parse_error_locations():
    with pytest.raises(ParseError) as err:
        parse("lattice p { elements x }")
    assert err.value.line == 1 and err.value.col == 1
    with pytest.raises(ParseError) as err:
        parse("poset p {\n elements x ;\n covers x!y\n}")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse("poset p { elements x ")
    assert "unterminated" in str(err.value) or "end of input" in str(err.value)


def test_parse_unknown_element_reference():
    with pytest.raises(ParseError) as err:
        parse("poset p { elements x ; covers x<y }")
    assert "y" in str(err.value)


def test_parse_duplicate_view_and_unknown_view():
    with pytest.raises(ParseError):
        parse("repsys r { view V = poset { elements x } ; view V = poset { elements y } }")
    with pytest.raises(ParseError) as err:
        parse("repsys r { view V = poset { elements x } ; map V<W { * -> x } }")
    assert "W" in str(err.value)


def test_parse_duplicate_map_location():
    text = (
        "repsys r {\n"
        "  view V = poset { elements x y ; covers x<y } ;\n"
        "  view U = poset { elements u } ;\n"
        "  map V<U { u->x } ;\n"
        "  map U<V { * -> u } ;\n"
        "    map V<U { u->y }\n"
        "}\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == "line 6, column 5: duplicate map V<U"
    assert (err.value.line, err.value.col) == (6, 5)
    # a map between another pair of views is no duplicate
    assert len(parse(text.replace("map V<U { u->y }", "map U<U { * -> u }")).maps) == 3


def test_parse_map_entry_references_checked():
    base = "repsys r {{ view V = poset {{ elements x }} ; view U = poset {{ elements u }} ; map V<U {{ {entry} }} }}"
    with pytest.raises(ParseError) as err:
        parse(base.format(entry="q->x"))
    assert "q" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse(base.format(entry="u->zz"))
    assert "zz" in str(err.value)


def test_parse_duplicate_default():
    with pytest.raises(ParseError):
        parse(
            "repsys r { view V = poset { elements x } ; view U = poset { elements u } ;"
            " map V<U { * -> x ; * -> x } }"
        )


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("poset p { elements x } poset q { elements y }")


def test_self_complement_parses_then_fails_validation():
    doc = parse("orthoposet bad { elements x 1 0 ; covers 0<x x<1 ; ortho 0:1 x:x }")
    with pytest.raises(ValidationError) as err:
        build_orthoposet(doc)
    assert err.value.code == "complement-law"
    assert err.value.witness == ("x",)


def test_ortho_incomplete():
    doc = parse("orthoposet bad { elements 0 x x' 1 ; covers 0<x 0<x' x<1 x'<1 ; ortho 0:1 }")
    with pytest.raises(ValidationError) as err:
        build_orthoposet(doc)
    assert err.value.code == "ortho-incomplete"


def test_ortho_conflict():
    # a is listed with b and then with 1; the last pair used to win, which
    # misreported this as not-involutive at 0
    body = "elements 0 a b 1 ; covers 0<a 0<b a<1 b<1 ; ortho 0:1 a:b a:1"
    for build, text in ((build_orthoposet, f"orthoposet bad {{ {body} }}"), (build_repsys, f"repsys r {{ view V = orthoposet {{ {body} }} }}")):
        with pytest.raises(ValidationError) as err:
            build(parse(text))
        assert (err.value.code, err.value.witness) == ("ortho-conflict", ("a", "b", "1"))
        assert str(err.value) == "'a' is listed with two complements, 'b' and '1'"


def test_ortho_conflict_is_checked_after_the_order_and_before_completeness():
    doc = parse("orthoposet bad { elements 0 a b 1 ; covers 0<a 0<b a<1 b<1 ; ortho a:b b:1 }")
    with pytest.raises(ValidationError) as err:
        build_orthoposet(doc)
    assert (err.value.code, err.value.witness) == ("ortho-conflict", ("b", "a", "1"))
    doc = parse("orthoposet bad { elements 0 a b 1 ; covers 0<a a<0 0<b a<1 b<1 ; ortho a:b b:1 }")
    with pytest.raises(ValidationError) as err:
        build_orthoposet(doc)
    assert err.value.code == "antisymmetry"


def test_consistent_repeated_ortho_pair_accepted():
    doc = parse("orthoposet ok { elements 0 a b 1 ; covers 0<a 0<b a<1 b<1 ; ortho 0:1 a:b b:a 1:0 a:b }")
    assert build_orthoposet(doc).ortho == (3, 2, 1, 0)


def test_map_completion_with_default():
    rs, orthos = build_repsys(zoo_model("firefly").doc)
    # unlisted entries all land on the default
    for e in ("Top", "NotSeen", "Seen"):
        x = rs.poset_of("X").idx(e)
        assert rs.poset_of("Y").elements[rs.transforms[("Y", "X")][x]] == "Top"
    assert orthos == (None, None)


def test_map_without_default_must_be_total():
    text = (
        "repsys r { view V = poset { elements x y ; covers x<y } ;"
        " view U = poset { elements u } ;"
        " map U<V { x->u } ; map V<U { u->x } }"
    )
    with pytest.raises(ValidationError) as err:
        build_repsys(parse(text))
    assert err.value.code == "incomplete-map"


def test_zoo_models_validate_and_match_metadata():
    for m in zoo().values():
        built = build(m.doc)
        if m.kind == "orthoposet":
            assert classify(built).flags() == m.expected
        else:
            assert m.expected is None


def test_zoo_lookup_aliases():
    assert zoo_model("O6").name == "hexagon_O6"
    assert zoo_model("mo2").name == "MO2"
    with pytest.raises(ValidationError):
        zoo_model("nonesuch")


def test_parse_serialize_identity_up_to_whitespace():
    for m in zoo().values():
        doc = parse(m.text)
        assert tokens_of(serialize(doc)) == tokens_of(m.text)


def test_serialize_parse_is_semantic_identity():
    for m in zoo().values():
        doc = parse(m.text)
        assert parse(serialize(doc)) == doc


def test_doc_from_orthoposet_rebuilds_the_structure():
    o = build_orthoposet(zoo_model("MO2").doc)
    doc = doc_from_orthoposet("copy", o)
    again = build_orthoposet(doc)
    assert again.poset.elements == o.poset.elements
    assert (again.poset.leq == o.poset.leq).all()
    assert again.ortho == o.ortho


def test_record_stream_is_byte_stable():
    records = [
        Record("orthomodular_poset", False, "law-violation", ("a", "b")),
        Record("sum", True, counts={"pairs": 10, "classes": 9}),
    ]
    human1, machine1 = emit_report(records)
    human2, machine2 = emit_report(records)
    assert machine1 == machine2
    assert human1 == human2
    line = machine1.splitlines()[0]
    assert line == (
        '{"check": "orthomodular_poset", "code": "law-violation", "counts": {},'
        ' "data": {}, "verdict": false, "witness": ["a", "b"]}'
    )


def test_poset_document_roundtrip():
    doc = parse("poset p { elements x y z ; covers x<z y<z }")
    p = build_poset(doc)
    assert p.le(p.idx("x"), p.idx("z"))
    assert parse(serialize(doc)) == doc


def test_build_on_the_wrong_kind_raises():
    repsys = zoo_model("firefly").doc
    poset = parse("poset p { elements x y ; covers x<y }")
    for builder, doc in ((build_poset, repsys), (build_orthoposet, repsys), (build_orthoposet, poset), (build_repsys, poset)):
        with pytest.raises(ValidationError) as err:
            builder(doc)
        assert err.value.code == "wrong-kind"
