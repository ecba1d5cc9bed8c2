"""Views built and tested in stacks, one stack per view size, against views
built and tested one at a time.

`build_repsys` validates the views of one size as one (m, n, n) stack, and
`check_boolean_rs_axioms` decides their booleanness the same way. Both must
give what the one-view-at-a-time path gives: the same views, or the same
first error (code, witness and message) and the same verdict. The
documents mix poset and orthoposet views of 0, 1, 2, 4, 8 and more than
64 elements (more than one packed word), and each applies one defect to
one view."""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orthoview.modelio as modelio
import orthoview.ortho as ortho_mod
from orthoview import (
    FinitePoset,
    OrthoPoset,
    ValidationError,
    build_orthoposet,
    build_poset,
    build_repsys,
    check_boolean_rs_axioms,
    make_rs,
    zoo_model,
)
from orthoview.modelio import ModelDocument, doc_from_orthoposet, doc_from_poset
from orthoview.ortho import is_boolean_algebra, ortho_stack
from orthoview.poset import _least_bounds, poset_stack

from _models import as_orthoposet, boolean_algebra, mo, shuffled


def _orthoposet_doc(model, seed):
    return doc_from_orthoposet("v", as_orthoposet(shuffled(model, random.Random(seed))))


# name -> the view document; the boolean ones have 1, 2, 4, 8 and 128
# elements, MO-33 (68 elements) is a bare poset
VIEWS = {
    "empty": ModelDocument("poset", "v"),
    "point": ModelDocument("poset", "v", ("p",)),
    "chain": ModelDocument("poset", "v", ("lo", "hi"), (("lo", "hi"),)),
    "square": doc_from_poset("v", as_orthoposet(shuffled(boolean_algebra(2), random.Random(1))).poset),
    "mo33": doc_from_poset("v", as_orthoposet(shuffled(mo(33), random.Random(2))).poset),
    "b1": _orthoposet_doc(boolean_algebra(0), 3),
    "b2": _orthoposet_doc(boolean_algebra(1), 4),
    "b4": _orthoposet_doc(boolean_algebra(2), 5),
    "b8": _orthoposet_doc(boolean_algebra(3), 6),
    "b128": _orthoposet_doc(boolean_algebra(7), 7),
}
BOOLEAN = ("b1", "b2", "b4", "b4", "b8", "b8", "b128")
NOT_BOOLEAN = {name: build_orthoposet(zoo_model(name).doc) for name in ("MO2", "hexagon_O6", "greechie_cycle_4")}


def _cycle(d, k):
    """The k-th cover reversed next to itself."""
    return replace(d, covers=d.covers + (d.covers[k][::-1],))


def _missing(d, k):
    """The k-th complement pair dropped."""
    return replace(d, ortho_pairs=d.ortho_pairs[:k] + d.ortho_pairs[k + 1:])


def _crossed(d, k):
    """Pairs k and k + 1, x:x' and y:y', made x:y' and y:x'."""
    (x, xc), (y, yc) = d.ortho_pairs[k:k + 2]
    return replace(d, ortho_pairs=d.ortho_pairs[:k] + ((x, yc), (y, xc)) + d.ortho_pairs[k + 2:])


def _self(d, k):
    """The k-th pair of two distinct elements, x:x', made x:x and x':x'."""
    k = [j for j, (a, b) in enumerate(d.ortho_pairs) if a != b][k]
    x, xc = d.ortho_pairs[k]
    return replace(d, ortho_pairs=d.ortho_pairs[:k] + ((x, x), (xc, xc)) + d.ortho_pairs[k + 1:])


def _duplicate(d, k):
    """The k-th element listed a second time, last."""
    return replace(d, elements=d.elements + (d.elements[k],))


def _conflict(d, k):
    """x:y', for the k-th pair x:x' and the next pair y:y', listed before
    all pairs. Each element's last partner, or each first element's and
    then each second element's, still gives the right complements."""
    (x, _), (_, yc) = d.ortho_pairs[k:k + 2]
    return replace(d, ortho_pairs=((x, yc),) + d.ortho_pairs)


# defect -> (the number of places it can apply to a view, the edit at place k)
DEFECTS = {
    "cycle": (lambda d: len(d.covers), _cycle),
    "missing": (lambda d: len(d.ortho_pairs), _missing),
    "crossed": (lambda d: len(d.ortho_pairs) - 1, _crossed),
    "self": (lambda d: sum(a != b for a, b in d.ortho_pairs), _self),
    "duplicate": (lambda d: len(d.elements), _duplicate),
    "conflict": (lambda d: len(d.ortho_pairs) - 1, _conflict),
}


def repsys_doc(vdocs):
    return ModelDocument("repsys", "r", views=tuple((f"V{k}", d) for k, d in enumerate(vdocs)))


def outcome(fn, *args):
    """(code, witness, message) of the ValidationError fn raises, or its
    value."""
    try:
        return fn(*args)
    except ValidationError as e:
        return e.code, e.witness, str(e)


def views_one_at_a_time(doc):
    """The views of a repsys document as (poset, orthoposet or None), each
    built on its own, in document order."""
    out = []
    for _, d in doc.views:
        if d.kind == "orthoposet":
            o = build_orthoposet(d)
            out.append((o.poset, o))
        else:
            out.append((build_poset(d), None))
    return out


def same_view(got, want):
    (p, o), (q, r) = got, want
    same = p.elements == q.elements and np.array_equal(p.leq, q.leq) and p._tables is None
    if o is None or r is None:
        return same and o is r
    return same and o.poset is p and (o.ortho, o.least, o.greatest) == (r.ortho, r.least, r.greatest)


@pytest.mark.parametrize("defect", ["none", *DEFECTS])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(names=st.lists(st.sampled_from(sorted(VIEWS)), min_size=1, max_size=7), data=st.data())
def test_build_repsys_matches_one_view_at_a_time(defect, names, data):
    vdocs = [VIEWS[name] for name in names]
    if defect != "none":
        eligible, edit = DEFECTS[defect]
        if not any(eligible(d) > 0 for d in vdocs):
            vdocs.insert(data.draw(st.integers(0, len(vdocs))), VIEWS["b8"])
        at = data.draw(st.sampled_from([k for k, d in enumerate(vdocs) if eligible(d) > 0]))
        vdocs[at] = edit(vdocs[at], data.draw(st.integers(0, eligible(vdocs[at]) - 1)))
    doc = repsys_doc(vdocs)
    want = outcome(views_one_at_a_time, doc)
    if isinstance(want, tuple):
        assert outcome(build_repsys, doc) == want
        return
    # valid views never reach the one-at-a-time path
    with pytest.MonkeyPatch.context() as m:
        for name in ("build_poset", "build_orthoposet"):
            m.setattr(modelio, name, lambda d: pytest.fail("a view was built on its own"))
        rs, orthos = build_repsys(doc)
    assert all(same_view(got, w) for got, w in zip(zip(rs.posets, orthos), want)) and len(want) == len(rs.posets)


def test_each_defect_meets_its_law():
    """Each defect of the differential test at its last place in the
    4-element view (for "self", its atoms), alone in its stack and between
    two views of its size: the code named is the law broken."""
    codes = {}
    for defect, (places, edit) in DEFECTS.items():
        bad = edit(VIEWS["b4"], places(VIEWS["b4"]) - 1)
        for vdocs in ([bad], [VIEWS["b4"], bad, VIEWS["square"]]):
            got = outcome(build_repsys, repsys_doc(vdocs))
            assert got == outcome(views_one_at_a_time, repsys_doc(vdocs))
            codes[defect] = got[0]
    assert codes == {
        "cycle": "antisymmetry",
        "missing": "ortho-incomplete",
        "crossed": "not-antitone",
        "self": "complement-law",
        "duplicate": "duplicate-element",
        "conflict": "ortho-conflict",
    }


def _mo2_cycled():
    """MO2 with its atoms' complements turned in a 4-cycle a -> a' -> b ->
    b' -> a: antitone, with the complement law, but not involutive."""
    o = NOT_BOOLEAN["MO2"]
    step = {"a": "a'", "a'": "b", "b": "b'", "b'": "a", "0": "1", "1": "0"}
    return o.poset, o.ortho, [o.idx(step[e]) for e in o.elements]


def _hexagon_crossed():
    """The hexagon 0 < a < b < 1, 0 < b' < a' < 1 with a:b' and b:a':
    involutive, with the complement law, but not antitone."""
    o = NOT_BOOLEAN["hexagon_O6"]
    swap = {"a": "b'", "b'": "a", "b": "a'", "a'": "b", "0": "1", "1": "0"}
    return o.poset, o.ortho, [o.idx(swap[e]) for e in o.elements]


def _two_chains():
    """Two chains 0 < 1 and p < q side by side, each pair complements: only
    the bounds are missing, and no map has them."""
    return build_poset(ModelDocument("poset", "v", ("0", "1", "p", "q"), (("0", "1"), ("p", "q")))), None, [1, 0, 3, 2]


def _atoms_self_paired():
    """The square with each atom its own complement: involutive and
    antitone, but the atoms meet above 0."""
    o = as_orthoposet(boolean_algebra(2))
    return o.poset, o.ortho, [3, 1, 2, 0]


@pytest.mark.parametrize(
    "code, leq",
    [
        ("reflexivity", [[1, 1, 1], [0, 0, 1], [0, 0, 1]]),
        ("antisymmetry", [[1, 1], [1, 1]]),
        ("transitivity", [[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
    ],
)
def test_poset_stack_refuses_each_order_law(code, leq):
    """An order failing one law alone: the constructor names it, and a
    stack holding it next to a valid order is refused."""
    leq = np.array(leq, dtype=bool)
    els = tuple("xyz"[: len(leq)])
    with pytest.raises(ValidationError) as err:
        FinitePoset(els, leq)
    assert err.value.code == code
    chain = np.triu(np.ones(leq.shape, dtype=bool))
    assert poset_stack([els, els], np.stack([chain, leq])) is None
    assert poset_stack([els], chain[None].copy())[0].leq.tolist() == chain.tolist()


@pytest.mark.parametrize(
    "code, case",
    [
        ("not-involutive", _mo2_cycled),
        ("not-antitone", _hexagon_crossed),
        ("not-bounded", _two_chains),
        ("complement-law", _atoms_self_paired),
    ],
)
def test_ortho_stack_refuses_each_ortho_law(code, case):
    """A complement map failing one law alone: the constructor names it,
    and a stack holding it next to a valid map on the same poset is
    refused."""
    p, good, bad = case()
    with pytest.raises(ValidationError) as err:
        OrthoPoset(p, bad)
    assert err.value.code == code
    if good is None:
        assert ortho_stack([p], np.array([bad])) is None
        return
    assert ortho_stack([p, p], np.array([good, bad])) is None
    assert ortho_stack([p], np.array([good]))[0].ortho == tuple(good)


def support_tables(views, posets):
    """Tables sending each view's bottom to the target's bottom and every
    other element to its top: these keep joins and the ortho adjunction."""
    out = {}
    for i, p in zip(views, posets):
        least, greatest = p.bounds()
        for j, q in zip(views, posets):
            out[(i, j)] = tuple(least if x == q.bounds()[0] else greatest for x in range(q.n))
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.sampled_from(BOOLEAN), min_size=1, max_size=6),
    st.lists(st.tuples(st.sampled_from(sorted(NOT_BOOLEAN)), st.integers(0, 6)), max_size=2),
)
def test_boolean_views_match_one_view_at_a_time(names, inserted):
    """Boolean views, with MO2 or the hexagon put in at some places: the
    battery's verdict, and every view's tables, equal those of views built
    and tested one at a time."""
    vdocs = [VIEWS[name] for name in names]
    for name, at in inserted:
        vdocs.insert(at, doc_from_orthoposet("v", NOT_BOOLEAN[name]))
    doc = repsys_doc(vdocs)
    rs, orthos = build_repsys(doc)
    rs = make_rs(rs.views, rs.posets, support_tables(rs.views, rs.posets))
    one = views_one_at_a_time(doc)
    ref_orthos = tuple(o for _, o in one)
    for o in ref_orthos:
        is_boolean_algebra(o)
    want = check_boolean_rs_axioms(make_rs(rs.views, [p for p, _ in one], rs.transforms), ref_orthos)
    if inserted:
        assert not want and want.code == "view-not-boolean"
        got = check_boolean_rs_axioms(rs, orthos)
    else:
        assert want
        # every view is boolean: the per-view test never runs
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ortho_mod, "_distributive_lattice", lambda *a: pytest.fail("a view was tested on its own"))
            got = check_boolean_rs_axioms(rs, orthos)
    assert got == want
    for p in rs.posets:
        assert p._tables is not None
        join, meet = p.tables()
        assert np.array_equal(join, _least_bounds(p.leq)) and np.array_equal(meet, _least_bounds(p.leq.T))


def test_empty_and_one_element_views_build_in_stacks():
    doc = repsys_doc([VIEWS["empty"], VIEWS["b1"], VIEWS["empty"], VIEWS["point"]])
    rs, orthos = build_repsys(doc)
    assert [p.n for p in rs.posets] == [0, 1, 0, 1]
    assert isinstance(orthos[1], OrthoPoset) and orthos[1].ortho == (0,) and orthos[0] is None
