import random

import pytest

from orthoview import (
    FinitePoset,
    InternalCheckError,
    PreSum,
    ValidationError,
    build_canonical_rs,
    build_orthoposet,
    build_presum,
    build_repsys,
    doc_from_orthoposet,
    make_rs,
    quotient_sum,
    roundtrip_check,
    serialize,
    sum_as_orthoposet,
    verify_closure_properties,
    view_closure,
    zoo_model,
)

from orthoview.cli import main

from _models import as_orthoposet, boolean_algebra, shuffled


def firefly():
    rs, _ = build_repsys(zoo_model("firefly").doc)
    return rs


def canonical(name):
    brs = build_canonical_rs(build_orthoposet(zoo_model(name).doc))
    s = quotient_sum(build_presum(brs.rs))
    return brs, s


def mutate(rs, pair, element, target):
    table = list(rs.transforms[pair])
    src = rs.poset_of(pair[1])
    table[src.idx(element)] = rs.poset_of(pair[0]).idx(target)
    transforms = dict(rs.transforms)
    transforms[pair] = tuple(table)
    return make_rs(rs.views, rs.posets, transforms)


def test_single_view_presum_is_the_poset():
    els, leq, _ = boolean_algebra(2)
    rs = make_rs(["V"], [FinitePoset(els, leq)], {})
    ps = build_presum(rs)
    assert len(ps.pairs) == 4
    assert (ps.rel == leq).all()
    s = quotient_sum(ps)
    assert s.order.n == 4
    for e in els:
        assert s.class_of("V", e) is not None


def test_firefly_presum_and_sum_sizes():
    ps = build_presum(firefly())
    assert len(ps.pairs) == 10
    # the relation is a preorder: re-check from the matrix
    assert ps.rel.diagonal().all()
    assert not ((ps.rel @ ps.rel) & ~ps.rel).any()
    s = quotient_sum(ps)
    assert s.order.n == 9
    assert s.class_of("X", "Top") == s.class_of("Y", "Top")


def test_canonical_mo2_sizes():
    brs, s = canonical("MO2")
    assert len(build_presum(brs.rs).pairs) == 10
    assert s.order.n == 6


def test_canonical_boolean4_sizes():
    brs, s = canonical("boolean_4")
    ps = build_presum(brs.rs)
    assert len(ps.pairs) == 6
    assert s.order.n == 4
    assert s.class_of("B0", "0") == s.class_of("B1", "0")
    assert s.class_of("B0", "1") == s.class_of("B1", "1")


def test_embedding_is_an_order_embedding():
    for rs in (firefly(), canonical("MO2")[0].rs):
        s = quotient_sum(build_presum(rs))
        for v in rs.views:
            p = rs.poset_of(v)
            for x in range(p.n):
                for y in range(p.n):
                    cx = s.class_of(v, p.elements[x])
                    cy = s.class_of(v, p.elements[y])
                    assert bool(s.order.leq[cx, cy]) == bool(p.leq[x, y])


def test_closure_fixes_own_view():
    rs = firefly()
    s = quotient_sum(build_presum(rs))
    for v in rs.views:
        for e in rs.poset_of(v).elements:
            c = s.class_of(v, e)
            assert view_closure(s, rs, v, c) == c or s.order.le(c, view_closure(s, rs, v, c))
    # elements of the view itself are fixed points
    assert view_closure(s, rs, "X", s.class_of("X", "Left")) == s.class_of("X", "Left")


def test_firefly_closure_values():
    rs = firefly()
    s = quotient_sum(build_presum(rs))
    assert view_closure(s, rs, "X", s.class_of("Y", "Up")) == s.class_of("X", "Top")
    assert view_closure(s, rs, "Y", s.class_of("X", "Right")) == s.class_of("Y", "Down")


def test_canonical_mo2_closure_sends_b_to_top_in_other_block():
    brs, s = canonical("MO2")
    rs = brs.rs
    # B1 is {0, a, a', 1}; the best view-B1 bound of b is 1
    assert [o.n for o in brs.orthos] == [2, 4, 4]
    b_class = s.class_of("B2", "b")
    assert view_closure(s, rs, "B1", b_class) == s.class_of("B1", "1")


def test_closure_properties_pass():
    for rs in (firefly(), canonical("MO2")[0].rs, canonical("hexagon_O6")[0].rs):
        s = quotient_sum(build_presum(rs))
        assert verify_closure_properties(s, rs).ok


def test_closure_extension_failure_detected():
    rs = firefly()
    s = quotient_sum(build_presum(rs))
    # same shapes, weaker translation of Left: no longer above the original
    bad = mutate(rs, ("Y", "X"), "Left", "NotSeen")
    v = verify_closure_properties(s, bad)
    assert not v.ok
    assert v.code == "extension"


def test_ill_defined_closure_detected():
    rs = firefly()
    s = quotient_sum(build_presum(rs))
    # the glued top class now maps differently through its two members
    bad = mutate(rs, ("Y", "X"), "Top", "NotSeen")
    with pytest.raises(InternalCheckError) as err:
        view_closure(s, bad, "Y", s.class_of("X", "Top"))
    assert err.value.code == "ill-defined-closure"


def test_view_closure_refuses_unknown_classes():
    # the system is consistent: a class index past either end names no
    # class, which is no ill-defined closure
    rs = firefly()
    s = quotient_sum(build_presum(rs))
    for c in (-1, s.order.n):
        with pytest.raises(ValidationError) as err:
            view_closure(s, rs, "X", c)
        assert (err.value.code, err.value.witness) == ("unknown-element", (c,))


def test_sum_refuses_unknown_pairs_and_classes():
    """class_of names the view a system lacks, then the element a view
    lacks; label refuses an index past either end instead of wrapping to
    the last class or raising IndexError."""
    s = quotient_sum(build_presum(firefly()))
    cases = [
        (lambda: s.class_of("Z", "Top"), ("unknown-view", ("Z",))),
        (lambda: s.class_of("X", "Up"), ("unknown-element", ("X", "Up"))),
        (lambda: s.class_of("X", "nothing"), ("unknown-element", ("X", "nothing"))),
        (lambda: s.label(-1), ("unknown-element", (-1,))),
        (lambda: s.label(s.order.n), ("unknown-element", (s.order.n,))),
        (lambda: s.label(99), ("unknown-element", (99,))),
    ]
    for call, want in cases:
        with pytest.raises(ValidationError) as err:
            call()
        assert (err.value.code, err.value.witness) == want
    assert s.label(s.class_of("Y", "Up")) == "Y/Up" and s.label(s.order.n - 1)


def test_pass_paths_never_build_the_dense_relation(monkeypatch, capsys, tmp_path):
    """The roundtrip, `orthoview sum` and `orthoview amp` read the pre-sum
    factored, on canonical systems up to a relabelled 2^6 (2430 pairs):
    reading PreSum.rel fails."""
    monkeypatch.setattr(PreSum, "rel", property(lambda ps: pytest.fail("PreSum.rel read")))
    b6 = as_orthoposet(shuffled(boolean_algebra(6), random.Random(6)))
    path = tmp_path / "boolean_64.oml-model"
    path.write_text(serialize(doc_from_orthoposet("boolean_64", b6)))
    hosts = [(f"zoo:{name}", build_orthoposet(zoo_model(name).doc)) for name in ("MO2", "hexagon_O6", "greechie_cycle_4", "greechie_cycle_5")]
    codes = []
    for source, o in hosts + [(str(path), b6)]:
        assert roundtrip_check(o, cap=64).ok, source
        codes.append([main([command, source, "--cap", "64"]) for command in ("sum", "amp")])
    capsys.readouterr()
    assert codes == [[0, 0], [0, 1], [0, 1], [0, 0], [0, 0]]


def test_presum_of_invalid_system_fails_loudly():
    bad = mutate(firefly(), ("X", "Y"), "Down", "NotSeen")
    with pytest.raises(InternalCheckError) as err:
        build_presum(bad)
    assert err.value.code == "preorder"


def test_single_view_sum_ortho_is_set_complement():
    o = as_orthoposet(boolean_algebra(2))
    rs = make_rs(["V"], [o.poset], {})
    from orthoview import validate_boolean_rs

    brs = validate_boolean_rs(rs, (o,))
    s = quotient_sum(build_presum(rs))
    so = sum_as_orthoposet(s, brs)
    for e in o.poset.elements:
        c = s.class_of("V", e)
        assert so.ortho[c] == s.class_of("V", o.poset.elements[o.ortho[o.idx(e)]])


def test_sums_compare_by_identity():
    # the class array and the pre-sum relation are no fields to compare:
    # == must not ask numpy for a truth value
    s = quotient_sum(build_presum(firefly()))
    assert s == s and s != quotient_sum(build_presum(firefly())) and len({s}) == 1
    p = build_presum(firefly())
    assert p == p and p != build_presum(firefly()) and len({p}) == 1


def test_sum_ortho_matches_host_on_mo2():
    brs, s = canonical("MO2")
    so = sum_as_orthoposet(s, brs)
    host = build_orthoposet(zoo_model("MO2").doc)
    first = {}  # the element id of each class's first member
    for (_, x), c in zip(s.pairs, s.klass.tolist()):
        first.setdefault(c, x)
    for c in range(s.order.n):
        x = host.idx(first[c])
        assert first[so.ortho[c]] == host.elements[host.ortho[x]]


def test_same_view_joins_carry_over():
    for name in ("boolean_4", "MO2", "hexagon_O6"):
        brs, s = canonical(name)
        for v, o in zip(brs.views, brs.orthos):
            p = o.poset
            for x in range(p.n):
                for y in range(p.n):
                    cx, cy = s.class_of(v, p.elements[x]), s.class_of(v, p.elements[y])
                    jn = s.order.join(cx, cy)
                    assert jn is not None
                    assert jn == s.class_of(v, p.elements[p.join(x, y)])


def test_fixed_points_closed_under_complement_and_join():
    for name in ("boolean_4", "MO2", "hexagon_O6"):
        brs, s = canonical(name)
        rs = brs.rs
        so = sum_as_orthoposet(s, brs)
        for v in rs.views:
            fixed = [c for c in range(s.order.n) if view_closure(s, rs, v, c) == c]
            for c in fixed:
                assert so.ortho[c] in fixed
                for d in fixed:
                    jn = s.order.join(c, d)
                    assert jn is not None and jn in fixed
