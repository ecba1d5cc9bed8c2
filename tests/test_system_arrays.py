"""The system layer's array scans against the plain loops in `_models`.

`repsys`, `sums` and `conditions` run on the stacked transformation tables;
every verdict, witness and table here must equal the plain loop's, on the
zoo systems, canonical systems, one-view systems, random single-entry
mutants, mutants with every table redrawn and broken & tables. The sum
orthoposet and the decomposition roundtrip, which read the sum's class
array, are held to the same loops, also on doctored sums. The system laws,
decided on the distinct columns (G, cid) of the tables, are held to the
loops at both extremes of the column count R: R = P on one-view systems
and on redrawn tables, R much below P on canonical systems and on their
view subfamilies, and on table mutants of systems whose pair count sits at
a 64-bit word edge. The tables themselves, held as those columns, are held
table by table to loops that build each one on its own."""

import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orthoview import (
    AmpOperation,
    BooleanRepresentationSystem,
    FinitePoset,
    InternalCheckError,
    OrthoPoset,
    PreSum,
    RepresentationSystem,
    ValidationError,
    Verdict,
    build_amp,
    build_canonical_rs,
    build_orthoposet,
    build_poset,
    build_presum,
    build_repsys,
    check_boolean_rs_axioms,
    check_condition_oml,
    check_condition_omp,
    check_rs_axioms,
    closure_table,
    derived_meet,
    derived_meet_table,
    doc_from_orthoposet,
    enumerate_boolean_subalgebras,
    is_orthomodular_lattice,
    is_orthomodular_poset,
    make_rs,
    parse,
    quotient_sum,
    roundtrip_check,
    serialize,
    sum_as_orthoposet,
    verify_amp_axioms,
    verify_closure_properties,
    zoo,
    zoo_model,
)
from orthoview.conditions import WITNESS_CAP
from orthoview import modelio
from orthoview.modelio import MapSpec, MapTable, ModelDocument
from orthoview.poset import OK

from _models import (
    _fixing,
    _preferred,
    as_orthoposet,
    boolean_algebra,
    double_chain,
    greechie_cycle,
    mo,
    mutate_random_entry,
    random_orthoposet,
    reference_amp_axioms,
    reference_boolean_rs_axioms,
    reference_build_amp,
    reference_canonical_tables,
    reference_closure,
    reference_closure_properties,
    reference_closure_table,
    reference_condition_oml,
    reference_condition_omp,
    reference_map_tables,
    reference_presum,
    reference_quotient_sum,
    reference_roundtrip,
    reference_rs_axioms,
    reference_sum_as_orthoposet,
    shuffled,
    table_array,
)
from test_parser import shuffled_canonical_systems


@lru_cache(maxsize=None)
def hosts():
    """(name, orthoposet): the zoo orthoposets, relabelled Greechie cycles
    4..7, then 40 random models."""
    out = [(name, build_orthoposet(model.doc)) for name, model in zoo().items() if model.kind != "repsys"]
    rng = random.Random(4)
    out += [(f"greechie_cycle_{k}_shuffled", as_orthoposet(shuffled(greechie_cycle(k), rng))) for k in range(4, 8)]
    out += [(f"random_{k}", random_orthoposet(rng)) for k in range(40)]
    return tuple(out)


@lru_cache(maxsize=None)
def systems():
    """(name, rs, orthos or None): the zoo's repsys models and the canonical
    systems of the zoo orthoposets; relabelled 2^3 and 2^4, each as a system
    of one view, whose pairs all have distinct columns (R = P); and the
    canonical systems of relabelled Greechie cycles 4..7."""
    host = dict(hosts())
    out = []
    for name, model in zoo().items():
        if model.kind == "repsys":
            rs, orthos = build_repsys(model.doc)
            out.append((name, rs, None if None in orthos else orthos))
        else:
            brs = build_canonical_rs(host[name])
            out.append((name, brs.rs, brs.orthos))
    rng = random.Random(8)
    for k in (3, 4):
        o = as_orthoposet(shuffled(boolean_algebra(k), rng))
        out.append((f"one_view_boolean_{1 << k}", make_rs(["V"], [o.poset], {}), (o,)))
    for k in range(4, 8):
        brs = build_canonical_rs(host[f"greechie_cycle_{k}_shuffled"])
        out.append((f"greechie_cycle_{k}_shuffled", brs.rs, brs.orthos))
    return tuple(out)


def system(name):
    return next(rs for n, rs, _ in systems() if n == name)


@lru_cache(maxsize=None)
def mutants():
    """(name, mutant rs, orthos or None, the original rs): 60 of the zoo
    and canonical systems with one to three table entries rewired at random
    (several failures of one law make the scan order matter), then each of
    those with more than one view, with every table but the identities
    redrawn at random until its pairs have distinct columns (R = P)."""
    rng = random.Random(11)
    base = [s for s in systems() if not s[0].startswith("one_view")]
    out = []
    for k in range(60):
        name, rs, orthos = base[k % len(base)]
        mutant = rs
        for _ in range(1 + k % 3):
            mutant = mutate_random_entry(mutant, rng)
        out.append((f"{name}~{k}", mutant, orthos, rs))
    rng = random.Random(12)
    for name, rs, orthos in base:
        if len(rs.views) == 1:
            continue
        redrawn = rs
        while redrawn.G.shape[1] < len(redrawn.cid):
            tables = {(i, j): tuple(rng.randrange(p.n) for _ in range(q.n)) for i, p in zip(rs.views, rs.posets) for j, q in zip(rs.views, rs.posets) if i != j}
            redrawn = make_rs(rs.views, rs.posets, tables)
        out.append((f"{name}~redrawn", redrawn, orthos, rs))
    return tuple(out)


def outcome(fn, *args):
    """A call's value (a verdict as (ok, code, witness)), or the (code,
    witness) of the error it raised."""
    try:
        value = fn(*args)
    except (InternalCheckError, ValidationError) as e:
        return e.code, e.witness
    return "ok", (value.ok, value.code, value.witness) if isinstance(value, Verdict) else value


def same_outcome(got, want):
    if got[0] == want[0] == "ok":
        return np.array_equal(got[1], want[1])
    return got == want


def test_canonical_tables_match_reference():
    """The canonical system's index array, table by table, against the
    per-pair projection loop, on every host and on a relabelled 2^5."""
    b5 = as_orthoposet(shuffled(boolean_algebra(5), random.Random(5)))
    for name, o in hosts() + (("boolean_32_shuffled", b5),):
        subs = enumerate_boolean_subalgebras(o)
        rs = build_canonical_rs(o, subs=subs).rs
        want = reference_canonical_tables(o, subs)
        assert rs.holes == {} and table_array(rs).shape == (len(subs), sum(sub.size for sub in subs)), name
        assert all(rs.transform(i, j).tolist() == list(t) for (i, j), t in want.items()), name
        assert rs.transforms == want, name


@lru_cache(maxsize=None)
def map_documents():
    """(name, repsys document): the zoo's repsys models, then the canonical
    systems of `systems()` written as maps. A map takes its most common
    image as its `* -> t` default in seven cases of ten (listing the
    elements with another image and some of those with it), else lists
    every element; one map in five is left out."""
    out = [(name, model.doc) for name, model in zoo().items() if model.kind == "repsys"]
    rng = random.Random(13)
    for name, rs, orthos in systems():
        if orthos is None:
            continue
        maps = []
        for (i, j), table in sorted(rs.transforms.items()):
            if i == j or rng.random() < 0.2:
                continue
            default = max(sorted(set(table)), key=table.count) if rng.random() < 0.7 else None
            listed = [x for x, t in enumerate(table) if t != default or rng.random() < 0.3]
            maps.append(MapSpec(i, j, tuple(listed), tuple(table[x] for x in listed), default))
        rng.shuffle(maps)
        views = tuple((v, doc_from_orthoposet(v, o)) for v, o in zip(rs.views, orthos))
        out.append((name, parse(serialize(ModelDocument("repsys", name, views=views, maps=tuple(maps))))))
    return tuple(out)


def test_map_tables_match_reference():
    """build_repsys's index array, table by table, against the entry-by-entry
    fill; a left-out map is a missing-transform hole, which the rs axioms
    name as the loop does."""
    codes = set()
    for name, doc in map_documents():
        rs, _ = build_repsys(doc)
        want = reference_map_tables(doc)
        absent = {}
        for i, p in zip(rs.views, rs.posets):
            for j in rs.views:
                t = want.get((i, j), tuple(range(p.n)) if i == j else None)
                if t is None:
                    absent[(i, j)] = "missing-transform"
                else:
                    assert rs.transform(i, j).tolist() == list(t), name
        assert rs.holes == absent, name
        got = outcome(check_rs_axioms, rs)
        assert got == ("ok", reference_rs_axioms(rs)), name
        codes.add(got[1][1])
    assert codes == {"", "missing-transform"} and len(map_documents()) > 10


def test_incomplete_map_matches_reference():
    """One listed entry dropped from a map without a default: build_repsys
    names the first element the entry-by-entry fill leaves empty."""
    rng = random.Random(17)
    edited = 0
    for name, doc in map_documents():
        k = next((k for k, m in enumerate(doc.maps) if m.default is None), None)
        if k is None:
            continue
        m = doc.maps[k]
        x = rng.randrange(len(m.sources))
        shorter = m._replace(sources=m.sources[:x] + m.sources[x + 1:], images=m.images[:x] + m.images[x + 1:])
        maps = doc.maps[:k] + (shorter,) + doc.maps[k + 1:]
        cut = replace(doc, maps=maps)
        table = reference_map_tables(cut)[(m.target, m.source)]
        hole = dict(doc.views)[m.source].elements[table.index(None)]
        assert outcome(build_repsys, cut) == ("incomplete-map", (m.target, m.source, hole)), name
        edited += 1
    assert edited >= 6
    # two incomplete maps listed against view order: B<A, which misses a,
    # comes first in the document, A<B, which misses b, first in view order
    doc = parse(f"repsys r {{ {_AB} ; map B<A {{ 0->0 ; 1->1 }} ; map A<B {{ 0->0 ; 1->1 }} }}")
    hole = dict(doc.views)["A"].elements[reference_map_tables(doc)[("B", "A")].index(None)]
    assert outcome(build_repsys, doc) == ("incomplete-map", ("B", "A", hole)) == ("incomplete-map", ("B", "A", "a"))
    # as many entries as elements, but one source listed twice in place of a
    doc = parse(f"repsys r {{ {_AB} ; map B<A {{ 0->0 ; 0->b ; 1->1 }} ; map A<B {{ * -> 1 }} }}")
    assert reference_map_tables(doc)[("B", "A")] == (1, None, 2)
    assert outcome(build_repsys, doc) == ("incomplete-map", ("B", "A", "a"))
    # a map that misses two elements names the first of them
    doc = parse(f"repsys r {{ {_AB} ; map B<A {{ 0->0 }} }}")
    assert outcome(build_repsys, doc) == ("incomplete-map", ("B", "A", "a"))


_AB = "view A = poset { elements 0 a 1 ; covers 0<a a<1 } ; view B = poset { elements 0 b 1 ; covers 0<b b<1 }"


def test_repeated_source_takes_its_last_image():
    """A map that lists a source twice, or three times, takes the image
    listed last, as the entry-by-entry fill does, with or without a
    default."""
    rng = random.Random(29)
    repeated = 0
    for name, doc in map_documents():
        maps = []
        for m in doc.maps:
            images = range(len(dict(doc.views)[m.target].elements))
            if m.sources and len(images) > 1:
                k = rng.randrange(len(m.sources))
                x, y = m.sources[k], m.images[k]
                other = [t for t in images if t != y]
                # one listing before the original, another after it
                sources = (x,) + m.sources + (x,)
                m = m._replace(sources=sources, images=(rng.choice(other),) + m.images + (rng.choice(other),))
                repeated += 1
            maps.append(m)
        doubled = replace(doc, maps=tuple(maps))
        assert parse(serialize(doubled)) == doubled, name
        rs, _ = build_repsys(doubled)
        for (i, j), t in reference_map_tables(doubled).items():
            assert rs.transform(i, j).tolist() == list(t), name
    assert repeated > 100


@pytest.mark.parametrize(
    "maps, key",
    [
        ([MapSpec("B", "A", (0, 3, 2), (0, 1, 2))], ("B", "A")),  # a source past its view's end
        ([MapSpec("B", "A", (0, -1, 2), (0, 1, 2))], ("B", "A")),  # a negative source
        ([MapSpec("B", "A", (0, 1, 2), (0, 3, 2))], ("B", "A")),  # an image past its view's end
        ([MapSpec("B", "A", (0, 1), (0, -4), 2)], ("B", "A")),  # a negative image
        ([MapSpec("B", "A", (0, 1), (0, 1), 3)], ("B", "A")),  # a default past its view's end
        ([MapSpec("B", "A", (0, 1), (0, 1), -1)], ("B", "A")),  # a negative default
        # the first bad map in document order, not in view order
        ([MapSpec("B", "A", (0,), (0,), 1), MapSpec("A", "B", (3,), (0,), 1), MapSpec("A", "A", (0,), (0,), 9)],
         ("A", "B")),
        # values that are not integers, which np.intp would read as indices
        ([MapSpec("B", "A", ("0", "1"), ("0", "1"), "2")], ("B", "A")),  # digit strings
        ([MapSpec("B", "A", (0, 1.7), (0, 1), 2)], ("B", "A")),  # a float source
        ([MapSpec("B", "A", (0, 1, 2), (0, 1, 0.5))], ("B", "A")),  # a float image
        ([MapSpec("B", "A", (0, 1), (0, 1), "2")], ("B", "A")),  # a digit-string default
        # the first bad map in document order, whether its value is no integer or an integer outside its view
        ([MapSpec("B", "A", (0,), (0,), 1), MapSpec("A", "B", (0,), ("0",), 1), MapSpec("A", "A", (3,), (0,), 0)],
         ("A", "B")),
        ([MapSpec("B", "A", (0,), (0,), 1), MapSpec("A", "B", (0,), (-1,), 1), MapSpec("A", "A", ("0",), (0,), 0)],
         ("A", "B")),
    ],
)
def test_indices_outside_their_views_are_named(maps, key):
    """Maps of hand-built documents (the parser makes none) whose source,
    image or default is not an integer or lies outside its view:
    build_repsys raises unknown-element at the first such map in document
    order, and serialize, which would write a negative index as the element
    counted from its view's end, refuses the document with the same error
    at the same map."""
    doc = replace(parse(f"repsys r {{ {_AB} }}"), maps=tuple(maps))
    assert outcome(build_repsys, doc) == outcome(serialize, doc) == ("unknown-element", key)
    with pytest.raises(ValidationError, match=f"^map {key[0]}<{key[1]} names a value that is not an element index of its views$"):
        serialize(doc)


def test_an_integral_float_is_refused_by_build_and_written_by_serialize():
    """build_repsys takes integers only, so the image 2.0 is refused; the
    element it names in serialize is the element 2, which parses back as
    an equal document."""
    doc = replace(parse(f"repsys r {{ {_AB} }}"), maps=(MapSpec("B", "A", (0, 1, 2), (0, 1, 2.0)),))
    assert outcome(build_repsys, doc) == ("unknown-element", ("B", "A"))
    assert parse(serialize(doc)) == doc


@pytest.mark.parametrize(
    "field, value",
    [
        ("default", True),  # a bool, which operator.index takes as 1
        ("sources", (True, 4)),
        ("images", (2, False)),
        ("default", "1"),  # values that are not integers, refused as before
        ("sources", (1.7, 4)),
        ("images", (2,)),  # columns of unequal length
        ("images", (2, 4, 1)),
        ("sources", ()),
    ],
)
def test_a_hand_built_map_is_read_by_the_index_rule(field, value):
    """The zoo firefly's map Y<X (sources (3, 4), default 0) with a bool,
    a digit string or a float in place of one value, or with one column
    shorter than the other: build_repsys reads every value of a hand-built
    map by `poset._as_index`' rule, and an entry without its source or
    image as no index, so each is refused as unknown-element with the
    map's key. serialize refuses each with the same error and message,
    where it would write a bool as the element 0 or 1 and cut the longer
    column."""
    doc = zoo()["firefly"].doc
    assert doc.maps[0] == MapSpec("Y", "X", (3, 4), (2, 4), 0)
    bad = replace(doc, maps=(doc.maps[0]._replace(**{field: value}),) + doc.maps[1:])
    assert outcome(build_repsys, bad) == outcome(serialize, bad) == ("unknown-element", ("Y", "X"))
    with pytest.raises(ValidationError, match="^map Y<X names a value that is not an element index of its views$"):
        serialize(bad)


def test_a_parsed_map_table_reads_as_the_tuple_of_its_specs():
    """A parsed document holds its maps as one MapTable: its length, items,
    negative items, slices (tuples), iteration, equality and hash are those
    of tuple(doc.maps), it equals the table of the same text, a document
    holding the tuple equals and hashes as the parsed one, a spec swapped
    in by slices still builds, and the columns are read-only."""
    read = 0
    for name, doc in map_documents():
        t, specs = doc.maps, tuple(doc.maps)
        assert isinstance(t, MapTable) and len(t) == len(specs), name
        if not t:
            continue
        assert [t[k] for k in range(len(t))] == list(t) == list(specs) and t[-1] == specs[-1], name
        for cut in (slice(None), slice(1, 5), slice(None, None, -2), slice(3, 3), slice(-2, None)):
            assert type(t[cut]) is tuple and t[cut] == specs[cut], name
        with pytest.raises(IndexError):
            t[len(t)]
        assert t == specs and specs == t and t != specs[:-1] and t != list(specs) and hash(t) == hash(specs), name
        assert t == parse(serialize(doc)).maps, name
        # the table of a document with one image or one default changed differs
        for k, m in enumerate(t):
            n = len(dict(doc.views)[m.target].elements)
            if n > 1 and m.images:
                edits = [m._replace(images=((m.images[0] + 1) % n,) + m.images[1:])]
                edits += [m._replace(default=(m.default + 1) % n)] if m.default is not None else []
                for edit in edits:
                    assert parse(serialize(replace(doc, maps=t[:k] + (edit,) + t[k + 1:]))).maps != t, name
                break
        held = replace(doc, maps=specs)
        assert held == doc and doc == held and hash(held) == hash(doc), name
        k = len(t) // 2
        swapped = replace(doc, maps=t[:k] + (t[k]._replace(sources=t[k].sources[::-1], images=t[k].images[::-1]),) + t[k + 1:])
        assert build_repsys(swapped)[0].G.tolist() == build_repsys(doc)[0].G.tolist(), name
        assert not any(column.flags.writeable for column in t.columns[2:]), name
        read += 1
    assert read > 10
    doc = parse(f"repsys r {{ {_AB} }}")
    assert doc == replace(doc, maps=()) and hash(doc) == hash(replace(doc, maps=())) and doc.maps[:] == ()


def test_no_map_spec_is_built_from_parse_to_scatter(monkeypatch):
    """parse and build_repsys read a document's maps as columns: with
    MapSpec gone they still build the zoo firefly and a canonical system."""
    texts = [zoo()["firefly"].text, serialize(map_documents()[-1][1])]
    want = [build_repsys(parse(text))[0].G.tolist() for text in texts]
    monkeypatch.setattr(modelio, "MapSpec", None)
    assert [build_repsys(parse(text))[0].G.tolist() for text in texts] == want


def _same_build(name, doc):
    """build_repsys of a parsed document against build_repsys of the same
    document holding tuple(doc.maps): the same G, cid, holes and orthos,
    or the same error."""
    got, want = outcome(build_repsys, doc), outcome(build_repsys, replace(doc, maps=tuple(doc.maps)))
    if "ok" not in (got[0], want[0]):
        assert got == want, name
        return
    (rs, orthos), (rs2, orthos2) = got[1], want[1]
    assert rs.G.tolist() == rs2.G.tolist() and rs.cid.tolist() == rs2.cid.tolist() and rs.holes == rs2.holes, name
    assert [o and list(o.ortho) for o in orthos] == [o and list(o.ortho) for o in orthos2], name


@pytest.mark.parametrize("seed", [603007, 1])
def test_a_table_and_its_tuple_of_specs_build_one_system(seed, tmp_path, monkeypatch):
    """The parser's columns against the columns `_map_table` makes from a
    tuple of MapSpec, through build_repsys, on the zoo, the benchmark's
    `system` and `ingest` repsys documents at this seed and the shuffled
    parser and map corpora."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

    docs = [(name, model.doc) for name, model in zoo().items() if model.kind == "repsys"]
    for workload in ("system", "ingest"):
        workloads.build(workload, seed, tmp_path / workload)
        for path in sorted((tmp_path / workload).glob("*.oml")):
            text = path.read_text()
            if text.startswith("repsys") and "syntax" not in path.name:
                docs.append((path.name, parse(text)))
    assert sum(name.endswith("_rs.oml") for name, _ in docs) == 9 + 3
    docs += [("shuffled", parse(serialize(doc))) for _, doc in shuffled_canonical_systems()]
    docs += list(map_documents())
    for name, doc in docs:
        _same_build(name, doc)


@pytest.mark.parametrize(
    "maps, code, witness",
    [
        ([MapSpec("Q", "A", (0,), (0,), 0)], "unknown-view", ("Q",)),
        ([MapSpec("B", "Q", (0,), (0,), 0)], "unknown-view", ("Q",)),
        # the first unknown view in document order, before any index outside its view
        ([MapSpec("B", "A", (7,), (0,), 0), MapSpec("A", "R", (), (), 0), MapSpec("Q", "A", (), (), 0)],
         "unknown-view", ("R",)),
        ([MapSpec("B", "A", (), (), 0), MapSpec("A", "B", (), (), 0), MapSpec("B", "A", (7,), (0,), 1)],
         "duplicate-map", ("B", "A")),
    ],
)
def test_unknown_views_and_repeated_keys_in_maps_are_named(maps, code, witness):
    """Maps of hand-built documents (the parser refuses them) that name a
    view the document lacks, or repeat a target<source key: build_repsys
    raises unknown-view for the first such view, then duplicate-map for the
    first repeated key, in document order, before any index outside its
    view."""
    doc = replace(parse(f"repsys r {{ {_AB} }}"), maps=tuple(maps))
    assert outcome(build_repsys, doc) == (code, witness)
    if code == "duplicate-map":
        with pytest.raises(ValidationError, match="duplicate map B<A"):
            build_repsys(doc)


def test_two_views_of_one_name_are_refused():
    """A hand-built document, or a make_rs call, with two views of one name
    raises duplicate-view: no name would reach the second view."""
    doc = parse(f"repsys r {{ {_AB} ; map B<A {{ * -> 0 }} }}")
    views = doc.views + doc.views[:1]
    assert outcome(build_repsys, replace(doc, views=views)) == ("duplicate-view", ("A",))
    posets = [build_poset(v) for _, v in views]
    assert outcome(make_rs, [v for v, _ in views], posets, {}) == ("duplicate-view", ("A",))


def test_rs_axioms_match_reference():
    seen = set()
    for name, rs, _ in systems():
        assert outcome(check_rs_axioms, rs) == ("ok", reference_rs_axioms(rs)) == ("ok", (True, "", ())), name
    for name, rs, _, _ in mutants():
        got = outcome(check_rs_axioms, rs)
        assert got == ("ok", reference_rs_axioms(rs)), name
        seen.add(got[1][1])
    assert {"", "identity", "monotony", "composition"} <= seen


def rewired(rs, i, j, x, y):
    """A copy of rs whose table f_(i|j) sends element x to element y."""
    transforms = dict(rs.transforms)
    table = list(transforms[(i, j)])
    table[rs.poset_of(j).idx(x)] = rs.poset_of(i).idx(y)
    transforms[(i, j)] = tuple(table)
    return make_rs(rs.views, rs.posets, transforms)


def test_composition_witness_is_first_in_scan_order():
    # f_(B1|B2)(b) = a breaks composition through (B2, B4) and (B4, B2)
    # for the same x; the scan meets j = B2 first
    rs = system("boolean_8")
    bad = rewired(rs, "B1", "B2", "b", "a")
    assert outcome(check_rs_axioms, bad) == ("ok", reference_rs_axioms(bad)) == ("ok", (False, "composition", ("B1", "B2", "B4", "b")))
    # f_(B2|B0)(1) = b: item (B2, (B0, 1)) of the scan, one pair of columns,
    # fails in views B1, B3 and B4, and items of an earlier j fail only in
    # later views; the scan names the first view, then its first item
    bad = rewired(rs, "B2", "B0", "1", "b")
    top, b = rs.poset_of("B0").idx("1"), rs.poset_of("B2").idx("b")
    assert [i for i in rs.views if not rs.poset_of(i).leq[bad.transform(i, "B0")[top], bad.transform(i, "B2")[b]]] == ["B1", "B3", "B4"]
    assert outcome(check_rs_axioms, bad) == ("ok", reference_rs_axioms(bad)) == ("ok", (False, "composition", ("B1", "B2", "B0", "1")))


def test_adjunction_witness_is_first_in_scan_order():
    # f_(B2|B1)(a) = b breaks the adjunction for pairs b of views B1 and
    # B2; the failure at the lowest-numbered distinct column lies in view
    # B2, but the scan, over the view of b first, meets view B1 first
    rs, orthos = next((rs, orthos) for name, rs, orthos in systems() if name == "boolean_8")
    bad = rewired(rs, "B2", "B1", "a", "b")
    got = outcome(check_boolean_rs_axioms, bad, orthos)
    assert got == ("ok", reference_boolean_rs_axioms(bad, orthos)) == ("ok", (False, "ortho-adjunction", ("B1", "B2", "b", "a'")))


def test_columns_are_distinct_and_used():
    """The columns of G are pairwise distinct and each is some pair's, on
    every parsed, canonical, mutant and word-edge system, on view
    subfamilies and on canonical systems of part of the subalgebras; R = P
    and R < P are both reached, R = P also with more than one view."""
    cases = [rs for _, rs, _ in systems()] + [rs for _, rs, _, _ in mutants()] + [edge_system(size)[0] for size in EDGES]
    cases += [build_repsys(doc)[0] for _, doc in map_documents()]
    rng = random.Random(21)
    for k in range(len(SUBFAMILY_HOSTS)):
        subs, brs = canonical_with_carriers(k)
        for _ in range(4):
            keep = sorted(rng.sample(range(len(subs)), rng.randint(1, len(subs))))
            cases += [subfamily(brs.rs, keep), build_canonical_rs(SUBFAMILY_HOSTS[k], subs=[subs[v] for v in keep]).rs]
    extremes = set()
    for rs in cases:
        G, cid = rs.G, rs.cid
        assert len({tuple(c) for c in G.T}) == G.shape[1] and set(cid.tolist()) == set(range(G.shape[1]))
        extremes.add((len(rs.views) > 1, G.shape[1] == len(cid)))
    assert extremes == {(False, True), (True, True), (True, False)}


def random_poset(rng, name):
    """A random order on one to four elements named name0, name1, ..."""
    n = rng.randint(1, 4)
    rel = np.triu(np.array([[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]), 1)
    return FinitePoset(tuple(f"{name}{x}" for x in range(n)), reference_closure(rel))


def test_transitive_systems_share_columns_across_views():
    """No system with two or more views, one of them not empty, identity
    tables and a transitive pre-sum has R = P.

    Let x be maximal in view k, j another view and y = f_(j|k)(x). Then
    (k, x) <= (j, y), as f_(j|k)(x) <= y, and (j, y) <= (k, f_(k|j)(y)),
    so transitivity gives (k, x) <= (k, f_(k|j)(y)): with the identity
    table, x <= f_(k|j)(y), and x is maximal, so f_(k|j)(y) = x. Hence
    (j, y) <= (k, x) too. The two pairs are mutually comparable, so their
    pre-sum rows are equal, and so are their columns, since up-sets in a
    poset are equal only for equal elements: two pairs of different views
    share a column, and R < P.

    Checked pair by pair, with the pre-sum read from the loop, on
    `systems()`, on the mutants with identity tables and a transitive
    pre-sum, and on random systems of two or three views."""
    rng = random.Random(23)
    cases = [("built", rs) for _, rs, _ in systems()] + [("built", rs) for _, rs, _, _ in mutants()]
    for _ in range(1500):
        views = ("U", "V", "W")[:rng.randint(2, 3)]
        posets = [random_poset(rng, v) for v in views]
        tables = {(i, j): tuple(rng.randrange(p.n) for _ in range(q.n)) for i, p in zip(views, posets) for j, q in zip(views, posets) if i != j}
        cases.append(("random", make_rs(views, posets, tables)))
    held = Counter()
    for source, rs in cases:
        if reference_rs_axioms(rs)[1] in ("missing-transform", "bad-transform", "identity") or presum_outcome(rs)[0] != "ok":
            continue
        for k, p in enumerate(rs.posets):
            for x in np.flatnonzero(p.leq.sum(axis=1) == 1):  # maximal: only x lies above x
                for j, view in enumerate(rs.views):
                    if j != k:
                        y = rs.transform(view, rs.views[k])[x]
                        assert rs.cid[rs.off[k] + x] == rs.cid[rs.off[j] + y]
        if len(rs.views) > 1 and len(rs.cid):
            assert rs.G.shape[1] < len(rs.cid)
            held[source] += 1
    assert held["built"] >= 20 and held["random"] >= 50


def test_missing_and_bad_tables_match_reference():
    rs = systems()[-1][1]
    i, j = rs.views[2], rs.views[1]
    table = rs.transforms[(i, j)]
    edits = [
        {(i, j): None},
        {(i, j): table[:-1]},
        {(i, j): (rs.poset_of(i).n,) + table[1:]},
        {(i, j): (-1,) + table[1:], (i, rs.views[3]): None},  # a later hole does not hide it
    ]
    codes = []
    for edit in edits:
        transforms = dict(rs.transforms)
        transforms.update(edit)
        bad = make_rs(rs.views, rs.posets, {k: t for k, t in transforms.items() if t is not None})
        got = outcome(check_rs_axioms, bad)
        assert got == ("ok", reference_rs_axioms(bad))
        assert got[1][2] == (i, j)
        codes.append(got[1][1])
        with pytest.raises(ValidationError):
            build_presum(bad)
    assert codes == ["missing-transform", "bad-transform", "bad-transform", "bad-transform"]


def test_boolean_rs_axioms_match_reference():
    seen = set()
    for name, rs, orthos, _ in mutants() + tuple((n, rs, o, rs) for n, rs, o in systems()):
        if orthos is not None:
            got = outcome(check_boolean_rs_axioms, rs, orthos)
            assert got == ("ok", reference_boolean_rs_axioms(rs, orthos)), name
            seen.add(got[1][1])
    assert {"", "join-preservation", "ortho-adjunction"} <= seen


def presum_outcome(rs):
    """`outcome(build_presum, rs)` from the loop: the pairs and relation of a
    preorder; else "preorder" at the first non-reflexive pair, or at the
    first entry of (rel @ rel) & ~rel."""
    pairs, rel = reference_presum(rs)
    if not rel.diagonal().all():
        return "preorder", pairs[np.flatnonzero(~rel.diagonal())[0]]
    bad = np.argwhere((rel.astype(int) @ rel > 0) & ~rel)
    if len(bad):
        return "preorder", pairs[bad[0][0]] + pairs[bad[0][1]]
    return "ok", (pairs, rel)


def same_presum(got, want):
    if got[0] == want[0] == "ok":
        return got[1].pairs == want[1][0] and np.array_equal(got[1].rel, want[1][1])
    return got == want


def test_presum_matches_reference():
    intransitive = 0
    for name, rs in [(n, rs) for n, rs, _, _ in mutants()] + [(n, rs) for n, rs, _ in systems()]:
        got, want = outcome(build_presum, rs), presum_outcome(rs)
        assert same_presum(got, want), name
        intransitive += got[0] == "preorder" and len(got[1]) == 4
    assert intransitive >= 10


def test_quotient_matches_reference():
    """The sum's classes, labels and order against the dense quotient of
    the reference pre-sum, on every system (one-view ones have R = P) and
    on every mutant whose pre-sum is a preorder; and on the canonical
    system of a relabelled 2^6, there against the quotient of the dense
    relation `build_presum` gives, as the loop would take seconds."""
    b6 = build_canonical_rs(as_orthoposet(shuffled(boolean_algebra(6), random.Random(6))), cap=64).rs
    cases = [(n, rs, presum_outcome(rs)) for n, rs, _ in systems()] + [(n, rs, presum_outcome(rs)) for n, rs, _, _ in mutants()]
    ps = build_presum(b6)
    cases.append(("boolean_64_shuffled", b6, ("ok", (ps.pairs, ps.rel))))
    compared = 0
    for name, rs, want in cases:
        if want[0] != "ok":
            continue
        s = quotient_sum(build_presum(rs))
        klass, labels, leq = reference_quotient_sum(*want[1])
        assert np.array_equal(s.klass, klass) and s.order.elements == labels and np.array_equal(s.order.leq, leq), name
        compared += 1
    assert compared >= 30


EDGES = (63, 64, 65, 127, 128, 129)


@lru_cache(maxsize=None)
def edge_system(size):
    """(rs, orthos): a system with exactly `size` pairs, made of views of a
    relabelled 2^5's canonical system (any family of its views satisfies
    every law, which holds view triple by view triple). Views of 8, 4 and
    2 elements make up the even part; an odd size adds a one-element view
    Z, first for 65 and 129, else last, whose tables send every view to
    Z's one element and Z to every view's top. Z keeps the rs axioms and
    the pre-sum a preorder, but breaks the ortho-adjunction (0 = 1 there,
    so f_(V|Z)(0') = 1_V)."""
    brs = build_canonical_rs(as_orthoposet(shuffled(boolean_algebra(5), random.Random(5))))
    by_size = {n: [k for k, p in enumerate(brs.rs.posets) if p.n == n] for n in (2, 4, 8)}
    even = size - size % 2
    eights = even // 8 - 2
    fours = (even % 8) // 4 + 4
    rng = random.Random(size)
    picked = sorted(rng.sample(by_size[8], eights) + rng.sample(by_size[4], fours) + by_size[2][: (even % 4) // 2])
    views = [brs.rs.views[k] for k in picked]
    posets = [brs.rs.posets[k] for k in picked]
    orthos = [brs.orthos[k] for k in picked]
    tables = {(i, j): brs.rs.transforms[(i, j)] for i in views for j in views}
    if size % 2:
        z = OrthoPoset(FinitePoset(("z",), np.ones((1, 1), bool)), (0,))
        for v, o in zip(views, orthos):
            tables[(v, "Z")] = (o.greatest,)
            tables[("Z", v)] = (0,) * o.n
        at = 0 if size in (65, 129) else len(views)
        views.insert(at, "Z")
        posets.insert(at, z.poset)
        orthos.insert(at, z)
    rs = make_rs(views, posets, tables)
    assert sum(p.n for p in rs.posets) == size
    return rs, tuple(orthos)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(EDGES), st.integers(0, 2), st.data())
def test_row_decisions_match_reference_at_word_edges(size, edits, data):
    """Zero, one or two table entries rewired: the rs axioms, the boolean
    battery and the pre-sum give the loops' verdict, code and witness."""
    rs, orthos = edge_system(size)
    transforms = dict(rs.transforms)
    for _ in range(edits):
        i, j = data.draw(st.sampled_from(sorted(transforms)))
        table = list(transforms[(i, j)])
        table[data.draw(st.integers(0, len(table) - 1))] = data.draw(st.integers(0, rs.poset_of(i).n - 1))
        transforms[(i, j)] = tuple(table)
    mutant = make_rs(rs.views, rs.posets, transforms)
    assert outcome(check_rs_axioms, mutant) == ("ok", reference_rs_axioms(mutant))
    assert same_presum(outcome(build_presum, mutant), presum_outcome(mutant))
    assert outcome(check_boolean_rs_axioms, mutant, orthos) == ("ok", reference_boolean_rs_axioms(mutant, orthos))


def test_edge_systems_pass_their_laws():
    for size in EDGES:
        rs, orthos = edge_system(size)
        assert check_rs_axioms(rs) and rs.monotony and rs.composition
        assert presum_outcome(rs)[0] == "ok"
        want = reference_boolean_rs_axioms(rs, orthos)
        assert outcome(check_boolean_rs_axioms, rs, orthos) == ("ok", want)
        assert want[:2] == ((False, "ortho-adjunction") if size % 2 else (True, ""))


SUBFAMILY_HOSTS = tuple(as_orthoposet(m) for m in (
    boolean_algebra(3), boolean_algebra(4), mo(2), mo(3), double_chain(2), double_chain(3),
    greechie_cycle(4), greechie_cycle(5), greechie_cycle(6)))


@lru_cache(maxsize=None)
def canonical_with_carriers(k):
    o = SUBFAMILY_HOSTS[k]
    subs = enumerate_boolean_subalgebras(o)
    return subs, build_canonical_rs(o, subs=subs)


def subfamily(rs, keep):
    """The system of views keep of a canonical system rs, with their
    tables: its pairs are those of the kept views, and its columns those
    of rs restricted to the kept views, at the columns these pairs use."""
    pairs = np.concatenate([np.arange(rs.off[v], rs.off[v + 1]) for v in keep])
    used, cid = np.unique(rs.cid[pairs], return_inverse=True)
    return RepresentationSystem(tuple(rs.views[v] for v in keep), tuple(rs.posets[v] for v in keep), rs.G[np.ix_(keep, used)], cid, {})


@settings(max_examples=64, deadline=None, derandomize=True, database=None)
@given(st.integers(0, len(SUBFAMILY_HOSTS) - 1), st.data())
def test_view_subfamilies_satisfy_the_theorems(k, data):
    """Every system law quantifies over views and pairs of views, so any
    nonempty family of a canonical system's views, with their tables, is
    again a boolean system, built here from its columns (`subfamily`). Its
    sum need not be its host, and the paper's theorems must still hold:
    both batteries pass, as in the loops; the classes are the distinct
    columns, one per host element the views cover; the shared-view
    condition makes the sum an OMP, and with the preferred-view condition
    an OML whose & satisfies its axioms."""
    subs, brs = canonical_with_carriers(k)
    rs = brs.rs
    keep = sorted(data.draw(st.sets(st.integers(0, len(rs.views) - 1), min_size=1)))
    sub = subfamily(rs, keep)
    pairs = len(sub.cid)
    orthos = tuple(brs.orthos[v] for v in keep)
    assert outcome(check_rs_axioms, sub) == ("ok", reference_rs_axioms(sub)) == ("ok", (True, "", ()))
    assert outcome(check_boolean_rs_axioms, sub, orthos) == ("ok", reference_boolean_rs_axioms(sub, orthos)) == ("ok", (True, "", ()))
    covered = len({x for v in keep for x in subs[v].carrier})
    s = quotient_sum(build_presum(sub))
    assert sub.G.shape[1] == s.order.n == covered <= pairs
    so = sum_as_orthoposet(s, BooleanRepresentationSystem(sub, orthos))
    if check_condition_omp(s, sub):
        assert is_orthomodular_poset(so)
        if check_condition_oml(s, sub):
            assert is_orthomodular_lattice(so)
            assert verify_amp_axioms(build_amp(s, sub), so).ok


def test_ortho_over_another_order_is_decided_by_the_scan():
    # an ortho over a relabelling of the square 0 < a, b < 1 that swaps the
    # bottom with an atom and the top with the other atom: on the system's
    # own orders the identity tables pass both laws, on the orthos' they
    # preserve no join
    o = as_orthoposet(boolean_algebra(2))
    perm = [1, 0, 3, 2]
    other = OrthoPoset(FinitePoset(o.elements, o.poset.leq[np.ix_(perm, perm)]), [perm.index(o.ortho[k]) for k in perm])
    rs = make_rs(["V", "W"], [o.poset, o.poset], {("V", "W"): tuple(range(4)), ("W", "V"): tuple(range(4))})
    assert check_boolean_rs_axioms(rs, (o, o)) == OK
    got = outcome(check_boolean_rs_axioms, rs, (o, other))
    assert got == ("ok", reference_boolean_rs_axioms(rs, (o, other)))
    assert got[1][1] == "join-preservation"
    # tables without the identity law, on which both laws, read on the
    # system's orders, would name an ortho-adjunction failure instead
    tables = {("V", "V"): (3, 3, 3, 3), ("W", "W"): (1, 3, 1, 3), ("V", "W"): (0, 3, 3, 3), ("W", "V"): (1, 0, 3, 2)}
    rs = make_rs(["V", "W"], [o.poset, o.poset], tables)
    got = outcome(check_boolean_rs_axioms, rs, (other, o))
    assert got == ("ok", reference_boolean_rs_axioms(rs, (other, o))) == ("ok", (False, "join-preservation", ("V", "W", "s00", "s01")))
    # tables preserving the joins of the orthos' orders, whose first
    # adjunction failure on the system's orders is (V, W, s01, s01)
    rs = make_rs(["V", "W"], [o.poset, o.poset], {("V", "W"): (1, 1, 3, 3), ("W", "V"): (3, 0, 3, 3)})
    got = outcome(check_boolean_rs_axioms, rs, (other, o))
    assert got == ("ok", reference_boolean_rs_axioms(rs, (other, o))) == ("ok", (False, "ortho-adjunction", ("V", "W", "s01", "s00")))


def test_boolean_64_roundtrip():
    """2^6, relabelled, at cap 64: Bell(6) = 203 views, 2430 pairs (the sum
    of 2^m over the set partitions of six atoms into m blocks), 64 classes."""
    o = as_orthoposet(shuffled(boolean_algebra(6), random.Random(6)))
    result = roundtrip_check(o, cap=64)
    assert result.ok and len(result.isomorphism) == 64
    brs = build_canonical_rs(o, cap=64)
    assert len(brs.views) == 203 and len(build_presum(brs.rs).pairs) == 2430


def closure_cases():
    """(name, rs, sum): every system with its own sum, every mutant with
    the sum of the system it was made from."""
    cases = [(n, rs, rs) for n, rs, _ in systems()] + [(n, rs, orig) for n, rs, _, orig in mutants()]
    return [(name, rs, quotient_sum(build_presum(orig))) for name, rs, orig in cases]


def test_closure_table_and_properties_match_reference():
    """The table is gathered on the K distinct (class, column) of the
    pairs: K = R for a system's own sum, and K > R for some mutant paired
    with its parent's sum."""
    seen, wider = set(), 0
    for name, rs, s in closure_cases():
        assert same_outcome(outcome(closure_table, s, rs), outcome(reference_closure_table, s, rs)), name
        got = outcome(verify_closure_properties, s, rs)
        want = outcome(reference_closure_properties, s, rs)
        assert got == want, name
        seen.add(got[1][1] if got[0] == "ok" else got[0])
        wider += len(set(zip(s.klass.tolist(), rs.cid.tolist()))) > rs.G.shape[1]
    assert {"", "ill-defined-closure", "extension"} <= seen and wider >= 3


def test_each_system_paired_with_a_sum_gets_its_own_arrays():
    """The arrays kept on a sum are keyed by the system, which hashes by
    identity: a mutant paired with its parent's sum, after the parent's
    table is kept there, gets its own table, or its own ill-defined-closure,
    and the kept arrays cannot be written."""
    import orthoview.conditions as cond

    seen = set()
    for name, rs, _, orig in mutants():
        s = quotient_sum(build_presum(orig))
        table = closure_table(s, orig)
        assert not table.flags.writeable, name
        got = outcome(closure_table, s, rs)
        assert same_outcome(got, outcome(reference_closure_table, s, rs)), name
        assert closure_table(s, orig) is table
        seen.add(got[0])
    assert {"ok", "ill-defined-closure"} <= seen
    for name, rs, _ in systems():
        s = quotient_sum(build_presum(rs))
        pref = cond._preferred_views(s, rs)
        with pytest.raises(ValueError):
            pref[0, 0] = 0
        if check_condition_omp(s, rs) and check_condition_oml(s, rs):
            amp = build_amp(s, rs)
            assert not (amp.table.flags.writeable or amp.chosen_view.flags.writeable), name


def subfamily_cases():
    """(name, rs, sum): six random view subfamilies of each canonical
    system of `SUBFAMILY_HOSTS`, each with its own sum."""
    rng = random.Random(32)
    cases = []
    for k in range(len(SUBFAMILY_HOSTS)):
        rs = canonical_with_carriers(k)[1].rs
        for _ in range(6):
            sub = subfamily(rs, sorted(rng.sample(range(len(rs.views)), rng.randint(1, len(rs.views)))))
            cases.append((f"subfamily {k}", sub, quotient_sum(build_presum(sub))))
    return cases


def test_conditions_match_reference():
    """Both condition verdicts are the plain scans', on every system paired
    with a sum and on view subfamilies of canonical systems, where
    comparable classes can lack a shared view; each set reaches every
    verdict."""
    for cases in (closure_cases(), subfamily_cases()):
        seen = set()
        for name, rs, s in cases:
            try:
                table = reference_closure_table(s, rs)
            except InternalCheckError:
                continue
            for check, reference in ((check_condition_omp, reference_condition_omp), (check_condition_oml, reference_condition_oml)):
                got = outcome(check, s, rs)
                assert got == ("ok", reference(s, table)), name
                seen.add(got[1][1])
        assert {"", "no-shared-view", "no-preferred-view"} <= seen


def test_preferred_views_match_reference_on_every_pair():
    """The preferred view of every pair (a, b), read as the least closure of
    b, is the view the plain scan `_preferred` picks, or -1 where it finds
    none: on every system paired with a sum, and on view subfamilies of
    canonical systems; both sets reach pairs with no preferred view."""
    import orthoview.conditions as cond

    for cases in (closure_cases(), subfamily_cases()):
        failing = 0
        for name, rs, s in cases:
            try:
                table = reference_closure_table(s, rs)
            except InternalCheckError:
                continue
            n, leq = s.order.n, s.order.leq
            want = [[_preferred(leq, table, _fixing(table, a), b) for b in range(n)] for a in range(n)]
            pref = cond._preferred_views(s, rs)
            assert pref.tolist() == [[-1 if v is None else v for v in row] for row in want], name
            failing += int((pref < 0).sum())
        assert failing > 0


def test_build_amp_matches_reference():
    built = 0
    for name, rs, _ in systems():
        s = quotient_sum(build_presum(rs))
        if not (check_condition_omp(s, rs) and check_condition_oml(s, rs)):
            continue
        amp = build_amp(s, rs)
        want = reference_build_amp(s, closure_table(s, rs))
        assert np.array_equal(amp.table, want[0]) and np.array_equal(amp.chosen_view, want[1]), name
        built += 1
    assert built >= 6


def test_build_amp_internal_failures_match_reference(monkeypatch):
    # with one view fixing every class both conditions hold and
    # a & b = a ^ b, which the sum of greechie_cycle_4 (no lattice) lacks
    # for some pair
    import orthoview.conditions as cond

    rs = system("greechie_cycle_4")
    s = quotient_sum(build_presum(rs))
    table = np.arange(s.order.n)[None]
    monkeypatch.setattr(cond, "closure_table", lambda *a: table)
    got = outcome(build_amp, s, rs)
    assert got[0] == "amp-meet-missing" and got == outcome(reference_build_amp, s, table)


def amp_cases():
    """(name, & table, sum orthoposet): the built & of every system whose
    sum satisfies both conditions, and a random table on the sum of the
    Greechie 5-cycle, which breaks every axiom more than WITNESS_CAP times."""
    out = []
    for name, rs, orthos in systems():
        if orthos is None:
            continue
        s = quotient_sum(build_presum(rs))
        if check_condition_omp(s, rs) and check_condition_oml(s, rs):
            out.append((name, build_amp(s, rs), sum_as_orthoposet(s, BooleanRepresentationSystem(rs, orthos))))
    so = next(so for name, _, so in out if name == "greechie_cycle_5")
    rng = np.random.default_rng(5)
    out.append(("random", AmpOperation(rng.integers(0, so.n, (so.n, so.n)), None), so))
    return out


def test_amp_axioms_match_reference():
    for name, amp, so in amp_cases():
        report = verify_amp_axioms(amp, so)
        counts, violations, checked = reference_amp_axioms(amp.table, so, WITNESS_CAP)
        assert (report.counts, report.violations, report.checked) == (counts, violations, checked), name
        assert report.ok == (name != "random")
    assert min(counts.values()) > WITNESS_CAP
    assert all(len(v) == WITNESS_CAP for v in violations.values())


def test_derived_meet_table_matches_one_pair_calls():
    for name, amp, so in amp_cases():
        calls = [[outcome(derived_meet, amp, so, x, y) for y in range(so.n)] for x in range(so.n)]
        failures = [c for row in calls for c in row if c[0] != "ok"]
        got = outcome(derived_meet_table, amp, so)
        if failures:
            assert got == failures[0], name
        else:
            assert got[0] == "ok" and got[1].tolist() == [[c[1] for c in row] for row in calls], name
    assert failures and failures[0][0] == "not-a-meet"


def square(a, b):
    """The four-element boolean algebra 0 < a, b < 1."""
    leq = np.array([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=bool)
    return OrthoPoset(FinitePoset(("0", a, b, "1"), leq), (3, 2, 1, 0))


def sum_ortho_cases():
    """(name, sum, boolean system): every system with boolean views and the
    canonical system of every random host, with its own sum; three squares
    whose tables break the ortho adjunction, so that the complements of two
    classes land in two classes each; a system without views; and the
    pre-sum of those squares with nothing identified, whose bottoms stay
    apart."""
    brss = [(name, BooleanRepresentationSystem(rs, orthos)) for name, rs, orthos in systems() if orthos is not None]
    brss += [(name, build_canonical_rs(o)) for name, o in hosts() if name.startswith("random")]
    squares = square("p", "q"), square("r", "s"), square("u", "v")
    # p ~ r and q ~ u, but q, s apart and p, v apart; every other image is the top
    tables = {("Y", "X"): (0, 1, 3, 3), ("X", "Y"): (0, 1, 3, 3), ("Z", "X"): (0, 3, 1, 3), ("X", "Z"): (0, 2, 3, 3)}
    tables |= {("Z", "Y"): (0, 3, 3, 3), ("Y", "Z"): (0, 3, 3, 3)}
    rs = make_rs(("X", "Y", "Z"), [o.poset for o in squares], tables)
    assert check_rs_axioms(rs) and check_boolean_rs_axioms(rs, squares).code == "ortho-adjunction"
    brss += [("broken-adjunction", BooleanRepresentationSystem(rs, squares))]
    brss += [("no-views", BooleanRepresentationSystem(make_rs((), (), {}), ()))]
    cases = [(name, quotient_sum(build_presum(brs.rs)), brs) for name, brs in brss]
    pairs = build_presum(rs).pairs
    apart = quotient_sum(PreSum(pairs, np.arange(len(pairs)), np.eye(len(pairs), dtype=bool)))
    return cases + [("apart", apart, BooleanRepresentationSystem(rs, squares))]


def test_sum_as_orthoposet_matches_reference():
    seen = set()
    for name, s, brs in sum_ortho_cases():
        got = outcome(lambda *a: sum_as_orthoposet(*a).ortho, s, brs)
        assert got == outcome(lambda *a: reference_sum_as_orthoposet(*a).ortho, s, brs), name
        seen.add(got[0])
    assert seen == {"ok", "ill-defined-ortho", "ill-defined-bounds", "not-bounded"}


def roundtrip(o):
    result = roundtrip_check(o)
    return result.ok, result.stage, result.witness, result.isomorphism


def test_roundtrip_matches_reference():
    for name, o in hosts():
        brs = build_canonical_rs(o)
        s = quotient_sum(build_presum(brs.rs))
        assert roundtrip(o) == reference_roundtrip(o, s, sum_as_orthoposet(s, brs)), name


def test_every_roundtrip_stage_matches_reference(monkeypatch):
    """The roundtrip of MO2 against sums with two classes merged, a class
    split in two, two classes swapped, and against complements with the
    atoms a and b swapped."""
    import orthoview.decompose as dec

    o = build_orthoposet(zoo_model("MO2").doc)
    brs = build_canonical_rs(o)
    s = quotient_sum(build_presum(brs.rs))
    so = sum_as_orthoposet(s, brs)
    n, klass = s.order.n, s.klass
    a, b, zero = s.class_of("B1", "a"), s.class_of("B2", "b"), s.class_of("B0", "0")
    lo, hi = sorted((a, b))
    merged = replace(s, klass=np.where(klass == hi, lo, klass))
    moved = s.pairs.index(("B2", "0"))
    leq = np.pad(s.order.leq, ((0, 1), (0, 1)))
    leq[n, n] = True
    split = replace(s, klass=np.where(np.arange(len(klass)) == moved, n, klass), order=FinitePoset(s.order.elements + ("B2/0",), leq))
    perm = np.arange(n)
    perm[[zero, a]] = perm[[a, zero]]
    swapped = replace(s, klass=perm[klass])
    sigma = np.arange(n)
    for u, v in (("a", "b"), ("a'", "b'")):
        cu, cv = s.class_of("B1", u), s.class_of("B2", v)
        sigma[[cu, cv]] = sigma[[cv, cu]]
    crossed = OrthoPoset(s.order, sigma[np.array(so.ortho)])
    cases = [
        (merged, so, "well-defined", (s.label(lo), "a", "b")),
        (split, so, "bijective", ()),
        (swapped, so, "order", None),
        (s, crossed, "ortho", None),
    ]
    for doctored, doctored_ortho, stage, witness in cases:
        with monkeypatch.context() as m:
            m.setattr(dec, "quotient_sum", lambda ps: doctored)
            m.setattr(dec, "sum_as_orthoposet", lambda s, brs: doctored_ortho)
            got = roundtrip(o)
        assert got == reference_roundtrip(o, doctored, doctored_ortho)
        assert got[:2] == (False, stage) and witness in (None, got[2]), stage
