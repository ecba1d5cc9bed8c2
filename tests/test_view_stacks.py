"""Views built and tested in stacks, one stack per view size, against views
built and tested one at a time.

`build_repsys` validates the views of one size as one (m, n, n) stack, and
`check_boolean_rs_axioms` decides their booleanness the same way. Both must
give what views built one at a time give: the same views, or the same
first error (code, witness and message) and the same verdict. Views built
one at a time come from `reference_build_view`, which does not share the
library's checkers. The documents mix poset and orthoposet views of 0, 1,
2, 4, 8 and more than 64 elements (more than one packed word), and apply
up to two defects, each to one view."""

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

from _models import as_orthoposet, boolean_algebra, mo, reference_build_view, shuffled


def _orthoposet_doc(model, seed):
    return doc_from_orthoposet("v", as_orthoposet(shuffled(model, random.Random(seed))))


# name -> the view document; the boolean ones have 1, 2, 4, 8 and 128
# elements, MO-33 (68 elements) is a bare poset, and "pairs" is the square as
# a poset view that carries its ortho pairs plus one joining an undeclared id
# to an element that has a partner already: only the API can make it, and
# building must ignore the pairs
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
VIEWS["pairs"] = replace(VIEWS["b4"], kind="poset", ortho_pairs=VIEWS["b4"].ortho_pairs + (("x?", VIEWS["b4"].elements[0]),))
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


def _unknown_cover(d, k):
    """The upper end of the k-th cover renamed to an undeclared id (only the
    API can make this; the parser refuses it)."""
    lo, _ = d.covers[k]
    return replace(d, covers=d.covers[:k] + ((lo, "u?"),) + d.covers[k + 1:])


def _unknown_partner(d, k):
    """The k-th pair x:x' split into x:u and u':x', u and u' undeclared ids:
    every element keeps one partner, one of them unknown (only the API can
    make this)."""
    x, xc = d.ortho_pairs[k]
    return replace(d, ortho_pairs=d.ortho_pairs[:k] + ((x, "u?"), ("u'?", xc)) + d.ortho_pairs[k + 1:])


def _pairs(d):
    """The ortho pairs an orthoposet view reads; a poset view reads none."""
    return len(d.ortho_pairs) if d.kind == "orthoposet" else 0


# defect -> (the number of places it can apply to a view, the edit at place k)
DEFECTS = {
    "cycle": (lambda d: len(d.covers), _cycle),
    "missing": (_pairs, _missing),
    "crossed": (lambda d: _pairs(d) - 1, _crossed),
    "self": (lambda d: sum(a != b for a, b in d.ortho_pairs) if _pairs(d) else 0, _self),
    "duplicate": (lambda d: len(d.elements), _duplicate),
    "conflict": (lambda d: _pairs(d) - 1, _conflict),
    "unknown-cover": (lambda d: len(d.covers), _unknown_cover),
    "unknown-partner": (_pairs, _unknown_partner),
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
    """The views of a repsys document, each built on its own by
    `reference_build_view`, in document order."""
    return [reference_build_view(d) for _, d in doc.views]


def same_view(got, want):
    (p, o), (els, leq, ortho, least, greatest) = got, want
    same = p.elements == els and np.array_equal(p.leq, leq) and p._tables is None
    if o is None or ortho is None:
        return same and o is None and ortho is None
    return same and o.poset is p and (o.ortho, o.least, o.greatest) == (ortho, least, greatest)


def _put_defect(vdocs, defect, data):
    """Apply defect at a drawn place of a drawn view that can take it (a b8
    view is put in at a drawn position when none can)."""
    eligible, edit = DEFECTS[defect]
    if not any(eligible(d) > 0 for d in vdocs):
        vdocs.insert(data.draw(st.integers(0, len(vdocs))), VIEWS["b8"])
    at = data.draw(st.sampled_from([k for k, d in enumerate(vdocs) if eligible(d) > 0]))
    vdocs[at] = edit(vdocs[at], data.draw(st.integers(0, eligible(vdocs[at]) - 1)))


@pytest.mark.parametrize("defect", ["none", *DEFECTS])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(names=st.lists(st.sampled_from(sorted(VIEWS)), min_size=1, max_size=7), data=st.data())
def test_build_repsys_matches_one_view_at_a_time(defect, names, data):
    """One defect on one view, and maybe a second, of a drawn kind, on a
    view put in at a drawn position: the first failing view in document
    order names the error, whichever size group holds it."""
    vdocs = [VIEWS[name] for name in names]
    if defect != "none":
        _put_defect(vdocs, defect, data)
        second = data.draw(st.sampled_from([None, *DEFECTS]))
        if second is not None:
            eligible, edit = DEFECTS[second]
            base = VIEWS[data.draw(st.sampled_from([name for name in sorted(VIEWS) if eligible(VIEWS[name]) > 0]))]
            vdocs.insert(data.draw(st.integers(0, len(vdocs))), edit(base, data.draw(st.integers(0, eligible(base) - 1))))
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
        "unknown-cover": "unknown-element",
        "unknown-partner": "unknown-element",
    }


def test_first_failing_view_in_a_later_size_group():
    """The 4-element stack is built first and fails at the third view, but
    the second view, alone in the 8-element stack, fails first in document
    order and names the error."""
    vdocs = [VIEWS["b4"], _cycle(VIEWS["b8"], 0), _missing(VIEWS["b4"], 0)]
    assert outcome(modelio._view_stacks, vdocs) == outcome(reference_build_view, vdocs[2])
    want = outcome(reference_build_view, vdocs[1])
    assert want[0] == "antisymmetry" and outcome(build_repsys, repsys_doc(vdocs)) == want


def _mo2_cycled():
    """MO2 with its atoms' complements turned in a 4-cycle a -> a' -> b ->
    b' -> a: antitone, with the complement law, but not involutive."""
    o = NOT_BOOLEAN["MO2"]
    step = {"a": "a'", "a'": "b", "b": "b'", "b'": "a", "0": "1", "1": "0"}
    return o.poset, [o.idx(step[e]) for e in o.elements], o.poset, o.ortho


def _hexagon_crossed():
    """The hexagon 0 < a < b < 1, 0 < b' < a' < 1 with a:b' and b:a':
    involutive, with the complement law, but not antitone."""
    o = NOT_BOOLEAN["hexagon_O6"]
    swap = {"a": "b'", "b'": "a", "b": "a'", "a'": "b", "0": "1", "1": "0"}
    return o.poset, [o.idx(swap[e]) for e in o.elements], o.poset, o.ortho


def _two_chains():
    """Two chains 0 < 1 and p < q side by side, each pair complements: only
    the bounds are missing, and no map has them. The valid partner is the
    square."""
    chains = build_poset(ModelDocument("poset", "v", ("0", "1", "p", "q"), (("0", "1"), ("p", "q"))))
    square = as_orthoposet(boolean_algebra(2))
    return chains, [1, 0, 3, 2], square.poset, square.ortho


def _atoms_self_paired():
    """The square with each atom its own complement: involutive and
    antitone, but the atoms meet above 0."""
    o = as_orthoposet(boolean_algebra(2))
    return o.poset, [3, 1, 2, 0], o.poset, o.ortho


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
    stack holding it before or after a valid order raises the same code,
    witness and message."""
    leq = np.array(leq, dtype=bool)
    els, other = tuple("xyz"[: len(leq)]), tuple("abc"[: len(leq)])
    want = outcome(FinitePoset, els, leq)
    assert want[0] == code
    chain = np.triu(np.ones(leq.shape, dtype=bool))
    assert outcome(poset_stack, [els, other], np.stack([leq, chain])) == want
    assert outcome(poset_stack, [other, els], np.stack([chain, leq])) == want
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
    and a stack holding it before or after a valid orthoposet of its size
    raises the same code, witness and message."""
    p, bad, q, good = case()
    want = outcome(OrthoPoset, p, bad)
    assert want[0] == code
    assert outcome(ortho_stack, [p, q], np.array([bad, good])) == want
    assert outcome(ortho_stack, [q, p], np.array([good, bad])) == want
    assert ortho_stack([q], np.array([good]))[0].ortho == tuple(good)


def test_stack_raises_the_first_failing_matrix_first_law():
    """Two failing members: the first one in the stack names the error,
    with its own first law, even when the other fails an earlier law."""
    refl = np.array([[1, 1, 1], [0, 0, 1], [0, 0, 1]], dtype=bool)
    trans = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
    els, other = ("x", "y", "z"), ("a", "b", "c")
    for first, second in ((trans, refl), (refl, trans)):
        want = outcome(FinitePoset, els, first)
        assert outcome(poset_stack, [els, other], np.stack([first, second])) == want
    (p, crossed, _, _), (q, cycled, _, _) = _hexagon_crossed(), _mo2_cycled()
    assert outcome(ortho_stack, [p, q], np.array([crossed, cycled])) == outcome(OrthoPoset, p, crossed)
    assert outcome(ortho_stack, [q, p], np.array([cycled, crossed])) == outcome(OrthoPoset, q, cycled)


@pytest.mark.parametrize(
    "pairs",
    [
        (("0", "1"), ("a", "u?"), ("u'?", "a")),  # a listed with two partners
        (("0", "1"), ("a", "u?")),  # b without a partner, a's unknown
        (("0", "1"), ("a", "u?"), ("b", "u'?")),  # a's partner unknown, then b's
        (("0", "1"), ("a", "b"), ("a", "u?")),  # a's second partner unknown
    ],
)
def test_complement_errors_keep_their_order(pairs):
    """ortho-conflict, then ortho-incomplete, then unknown-element, alone
    and as a view between two valid ones."""
    d = replace(VIEWS["b4"], elements=("0", "a", "b", "1"), covers=(("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")), ortho_pairs=pairs)
    want = outcome(reference_build_view, d)
    assert outcome(build_orthoposet, d) == want
    assert outcome(build_repsys, repsys_doc([VIEWS["b4"], d, VIEWS["b4"]])) == want


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
    ref_orthos = tuple(build_orthoposet(d) for d in vdocs)
    for o in ref_orthos:
        is_boolean_algebra(o)
    want = check_boolean_rs_axioms(make_rs(rs.views, [o.poset for o in ref_orthos], rs.transforms), ref_orthos)
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
