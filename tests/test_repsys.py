import json
import random
from dataclasses import fields

import numpy as np
import pytest

from orthoview import (
    FinitePoset,
    OrthoPoset,
    RepresentationSystem,
    ValidationError,
    apply_transform,
    build_canonical_rs,
    build_orthoposet,
    build_repsys,
    check_boolean_rs_axioms,
    check_rs_axioms,
    make_rs,
    validate_boolean_rs,
    validate_rs,
    zoo_model,
)

from orthoview.cli import main

from _models import as_orthoposet, boolean_algebra, mutate_random_entry, reference_boolean_rs_axioms, table_array


def firefly():
    rs, _ = build_repsys(zoo_model("firefly").doc)
    return rs


def mutate(rs, pair, element, target):
    table = list(rs.transforms[pair])
    src = rs.poset_of(pair[1])
    table[src.idx(element)] = rs.poset_of(pair[0]).idx(target)
    transforms = dict(rs.transforms)
    transforms[pair] = tuple(table)
    return make_rs(rs.views, rs.posets, transforms)


def reverify(rs, verdict):
    """Re-evaluate a checker witness by direct formula evaluation."""
    code, w = verdict.code, verdict.witness
    if code in ("missing-transform", "bad-transform"):
        return (w[0], w[1]) not in rs.transforms or True
    if code == "identity":
        i, x = w
        p = rs.poset_of(i)
        return rs.transforms[(i, i)][p.idx(x)] != p.idx(x)
    if code == "monotony":
        i, j, x, y = w
        src, dst = rs.poset_of(j), rs.poset_of(i)
        t = rs.transforms[(i, j)]
        return src.le(src.idx(x), src.idx(y)) and not dst.le(t[src.idx(x)], t[src.idx(y)])
    if code == "composition":
        i, j, k, x = w
        src, dst = rs.poset_of(k), rs.poset_of(i)
        xi = src.idx(x)
        direct = rs.transforms[(i, k)][xi]
        routed = rs.transforms[(i, j)][rs.transforms[(j, k)][xi]]
        return not dst.le(direct, routed)
    raise AssertionError(f"unexpected code {code}")


def test_single_view_accepted():
    els, leq, _ = boolean_algebra(2)
    from orthoview import FinitePoset

    rs = make_rs(["V"], [FinitePoset(els, leq)], {})
    assert check_rs_axioms(rs).ok


def test_firefly_accepted():
    assert check_rs_axioms(firefly()).ok


def test_firefly_named_arrows():
    rs = firefly()
    assert apply_transform(rs, "Y", "X", "Right") == "Down"
    assert apply_transform(rs, "Y", "X", "Left") == "Seen"
    assert apply_transform(rs, "X", "Y", "Up") == "Top"
    assert apply_transform(rs, "X", "X", "Left") == "Left"


def test_apply_transform_errors():
    rs = firefly()
    with pytest.raises(ValidationError) as err:
        apply_transform(rs, "Z", "X", "Left")
    assert err.value.code == "unknown-view"
    with pytest.raises(ValidationError) as err:
        apply_transform(rs, "Y", "X", "Sideways")
    assert err.value.code == "unknown-element"


def test_out_of_range_tables_are_bad_transforms():
    # a table of the right length with an entry outside view Y, below 0 or
    # at |Y|: the rs axioms name it bad-transform, and so does every read
    # of it, also at an element whose own entry is in range
    rs = firefly()
    for entry in (-1, rs.poset_of("Y").n):
        transforms = dict(rs.transforms)
        transforms[("Y", "X")] = (entry,) + transforms[("Y", "X")][1:]
        bad = make_rs(rs.views, rs.posets, transforms)
        v = check_rs_axioms(bad)
        assert (v.code, v.witness) == ("bad-transform", ("Y", "X"))
        reads = [lambda: bad.transform("Y", "X")] + [lambda x=x: apply_transform(bad, "Y", "X", x) for x in rs.poset_of("X").elements[:2]]
        for read in reads:
            with pytest.raises(ValidationError) as err:
                read()
            assert (err.value.code, err.value.witness) == ("bad-transform", ("Y", "X"))
        assert apply_transform(bad, "X", "Y", "Up") == "Top"


def test_constructor_refuses_broken_columns():
    """G and cid must be the distinct columns of the tables and each pair's
    column: a shape that does not fit, a cid out of range, an unused column
    and two equal columns are each refused as bad-columns, naming the pair
    or the columns."""
    rs = firefly()
    G, cid = rs.G, rs.cid
    R, P = G.shape[1], len(cid)
    assert check_rs_axioms(RepresentationSystem(rs.views, rs.posets, G.copy(), cid.copy(), rs.holes)).ok
    moved = lambda a, r: np.where(np.arange(P) == a, r, cid)  # pair a sent to column r
    twins = G.copy()
    twins[:, 2] = twins[:, 1]
    cases = [
        (G[:1], cid, ()),
        (G, cid[:-1], ()),
        (G, moved(3, R), (3,)),
        (G, moved(4, -1), (4,)),
        (np.hstack([G, G[:, :1] + 100]), cid, (R,)),
        (twins, cid, (1, 2)),
    ]
    for G, cid, witness in cases:
        with pytest.raises(ValidationError) as err:
            RepresentationSystem(rs.views, rs.posets, G.copy(), cid.copy(), {})
        assert (err.value.code, err.value.witness) == ("bad-columns", witness)


def test_composition_violation_located():
    bad = mutate(firefly(), ("X", "Y"), "Down", "NotSeen")
    v = check_rs_axioms(bad)
    assert not v.ok
    assert v.code == "composition"
    assert reverify(bad, v)
    with pytest.raises(ValidationError):
        validate_rs(bad)


def test_monotony_violation_located():
    bad = mutate(firefly(), ("Y", "X"), "Seen", "Down")
    v = check_rs_axioms(bad)
    assert not v.ok
    assert v.code == "monotony"
    assert reverify(bad, v)


def test_identity_violation_located():
    bad = mutate(firefly(), ("X", "X"), "Left", "Top")
    v = check_rs_axioms(bad)
    assert not v.ok
    assert v.code == "identity"
    assert reverify(bad, v)


def test_missing_transform_located():
    rs = firefly()
    transforms = dict(rs.transforms)
    del transforms[("X", "Y")]
    v = check_rs_axioms(make_rs(rs.views, rs.posets, transforms))
    assert not v.ok and v.code == "missing-transform" and v.witness == ("X", "Y")


def test_systems_compare_by_identity():
    # the column arrays are no fields to compare: == must not ask numpy for
    # a truth value, and a system hashes by identity
    rs = firefly()
    assert rs == rs and rs != firefly() and len({rs, rs}) == 1
    assert [f.name for f in fields(RepresentationSystem)] == ["views", "posets", "G", "cid", "holes"]
    assert rs.G.dtype == np.intp and table_array(rs).shape == (2, 10)
    assert not (rs.G.flags.writeable or rs.cid.flags.writeable)
    assert not rs.transform("Y", "X").flags.writeable
    with pytest.raises(TypeError):
        rs.transforms[("X", "Y")] = (0,) * 5
    with pytest.raises(TypeError):
        make_rs(rs.views, rs.posets, {}).holes[("X", "Y")] = "bad-transform"


EMPTY_VIEW = """repsys r {
  view X = poset { elements a b ; covers a<b } ;
  view E = poset { elements }
}
"""


def test_table_faults_in_zero_width_blocks_and_wrong_lengths(capsys, tmp_path):
    # a table into or out of a view without elements has no entry to hold
    # the -1 of a hole, so only the hole record can name it
    path = tmp_path / "empty.oml-model"
    path.write_text(EMPTY_VIEW)
    for argv in (["validate", str(path)], ["check", str(path), "--property", "rs"]):
        assert main(argv) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(r["check"], r["code"], r["witness"]) for r in records] == [("rs_axioms", "missing-transform", ["X", "E"])]
    x, e = FinitePoset.from_covers(("a", "b"), (("a", "b"),)), FinitePoset.from_covers((), ())
    # E has no element, so no table E<X is total: each case names the
    # first fault in (X, X), (X, E), (E, X), (E, E) order
    cases = [
        ({("X", "E"): (0,)}, "bad-transform", ("X", "E"), True),
        ({}, "missing-transform", ("X", "E"), True),
        ({("X", "E"): ()}, "missing-transform", ("E", "X"), True),
        ({("X", "E"): (), ("E", "X"): (0,)}, "bad-transform", ("E", "X"), True),
        ({("X", "E"): (), ("E", "X"): (0, 1)}, "bad-transform", ("E", "X"), False),
    ]
    for tables, code, witness, hole in cases:
        rs = make_rs(["X", "E"], [x, e], tables)
        v = check_rs_axioms(rs)
        assert table_array(rs).shape == (2, 2) and (v.code, v.witness) == (code, witness)
        assert (witness in rs.holes) == hole
        with pytest.raises(ValidationError) as err:
            rs.stacked
        assert (err.value.code, err.value.witness) == (code, witness)
        with pytest.raises(ValidationError) as err:
            rs.transform(*witness)
        assert (err.value.code, err.value.witness) == (code, witness)
    # in row X, a zero-width hole before an out-of-range table is named
    # first, and after it second
    posets = {"X": x, "E": e, "Y": FinitePoset.from_covers(("c",), ())}
    tables = {("E", "X"): (), ("X", "Y"): (2,), ("Y", "X"): (0, 0), ("E", "Y"): (), ("Y", "E"): ()}
    for views, want in ((["X", "E", "Y"], ("missing-transform", ("X", "E"))), (["X", "Y", "E"], ("bad-transform", ("X", "Y")))):
        v = check_rs_axioms(make_rs(views, [posets[k] for k in views], tables))
        assert (v.code, v.witness) == want
    rs = make_rs((), (), {})
    assert rs.G.shape == (0, 0) and rs.holes == {} and check_rs_axioms(rs).ok


def test_round_trips_are_inflationary():
    # x <= f_(i|j)(f_(j|i)(x)), a consequence of the identity and
    # composition laws
    systems = [firefly()]
    for name in ("boolean_4", "MO2", "hexagon_O6"):
        systems.append(build_canonical_rs(build_orthoposet(zoo_model(name).doc)).rs)
    for rs in systems:
        assert check_rs_axioms(rs).ok
        for i in rs.views:
            for j in rs.views:
                fwd = rs.transforms[(i, j)]
                back = rs.transforms[(j, i)]
                p = rs.poset_of(i)
                for x in range(p.n):
                    assert p.le(x, fwd[back[x]])


def test_single_boolean_view_system():
    o = as_orthoposet(boolean_algebra(2))
    rs = make_rs(["V"], [o.poset], {})
    brs = validate_boolean_rs(rs, (o,))
    assert brs.views == ("V",)


def test_orthos_over_another_poset_rejected():
    o = as_orthoposet(boolean_algebra(2))
    other = as_orthoposet(boolean_algebra(1))
    rs = make_rs(["V", "W"], [o.poset, o.poset], {("V", "W"): tuple(range(4)), ("W", "V"): tuple(range(4))})
    with pytest.raises(ValidationError) as err:
        validate_boolean_rs(rs, (o, other))
    assert err.value.code == "ortho-poset-mismatch"
    assert err.value.witness == ("W",)


def test_orthos_over_the_same_ids_in_another_order_rejected():
    # W's ortho is over the same ids, ordered as the relabelling that swaps
    # the bottom and an atom: same ids, another order
    o = as_orthoposet(boolean_algebra(2))
    perm = [1, 0, 2, 3]
    other = OrthoPoset(FinitePoset(o.elements, o.poset.leq[np.ix_(perm, perm)]), [perm.index(o.ortho[k]) for k in perm])
    assert other.elements == o.elements
    rs = make_rs(["V", "W"], [o.poset, o.poset], {("V", "W"): tuple(range(4)), ("W", "V"): tuple(range(4))})
    with pytest.raises(ValidationError) as err:
        validate_boolean_rs(rs, (o, other))
    assert err.value.code == "ortho-poset-mismatch"
    assert err.value.witness == ("W",)


def test_canonical_mo2_is_boolean_rs():
    brs = build_canonical_rs(build_orthoposet(zoo_model("MO2").doc))
    assert check_rs_axioms(brs.rs).ok
    assert check_boolean_rs_axioms(brs.rs, brs.orthos).ok


def test_firefly_views_are_not_boolean():
    from orthoview import derive_boolean_ortho, Verdict

    rs = firefly()
    v = derive_boolean_ortho(rs.poset_of("X"))
    assert isinstance(v, Verdict) and not v.ok


def test_join_preservation_violation_located():
    brs = build_canonical_rs(build_orthoposet(zoo_model("MO2").doc))
    rs = brs.rs
    # rewire f_(B0|B1)(a) from 1 down to 0: joins through a stop commuting
    b0, b1 = rs.views[0], rs.views[1]
    src = rs.poset_of(b1)
    bad = mutate(rs, (b0, b1), src.elements[1], rs.poset_of(b0).elements[0])
    v = check_boolean_rs_axioms(bad, brs.orthos)
    assert not v.ok
    assert v.code in ("join-preservation", "ortho-adjunction")
    if v.code == "join-preservation":
        i, j, x, y = v.witness
        t = bad.transforms[(i, j)]
        srcp, dstp = bad.poset_of(j), bad.poset_of(i)
        jt = t[srcp.join(srcp.idx(x), srcp.idx(y))]
        assert jt != dstp.join(t[srcp.idx(x)], t[srcp.idx(y)])


def test_boolean_rs_sends_bottom_to_bottom():
    for name in ("boolean_4", "MO2", "hexagon_O6"):
        brs = build_canonical_rs(build_orthoposet(zoo_model(name).doc))
        for i, oi in zip(brs.views, brs.orthos):
            for j, oj in zip(brs.views, brs.orthos):
                assert brs.rs.transforms[(i, j)][oj.least] == oi.least


def test_checker_reports_are_reproducible():
    bad = mutate(firefly(), ("X", "Y"), "Down", "NotSeen")
    assert check_rs_axioms(bad) == check_rs_axioms(bad)


def test_boolean_rs_axioms_match_reference_on_rewired_systems():
    rng = random.Random(2)
    seen = set()
    for name in ("boolean_4", "boolean_8", "MO2"):
        brs = build_canonical_rs(build_orthoposet(zoo_model(name).doc))
        for _ in range(25):
            rs = mutate_random_entry(brs.rs, rng)
            v = check_boolean_rs_axioms(rs, brs.orthos)
            assert (v.ok, v.code, v.witness) == reference_boolean_rs_axioms(rs, brs.orthos), name
            seen.add(v.code)
    assert {"", "join-preservation", "ortho-adjunction"} <= seen
