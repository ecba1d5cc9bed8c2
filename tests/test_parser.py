"""The .oml parser: pinned error sites, the scanner against the seed's
per-character scan, totality, the id rule, parse/serialize roundtrips and
the parser against the token-stream reference parser."""

import gc
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orthoview import (
    InternalCheckError,
    ParseError,
    build_canonical_rs,
    build_repsys,
    doc_from_orthoposet,
    modelio,
    parse,
    serialize,
    zoo,
)
from orthoview.cli import main
from orthoview.modelio import MapSpec, ModelDocument, _Parser, _scan

from _models import as_orthoposet, boolean_algebra, greechie_cycle, reference_parse, reference_tokenize, shuffled

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _outcome(parser, text):
    """The document, or the message, line and column of the ParseError."""
    try:
        return parser(text)
    except ParseError as e:
        return str(e), e.line, e.col


def _read_by_runs(text):
    """parse(text) with the error walk switched off: every map block is
    read by the run reader, or the parse fails."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Parser, "refuse_maps", None)
        return parse(text)


V = "view V = poset { elements x y ; covers x<y }"
U = "view U = poset { elements u }"

# (document, str(err), line, col) for every ParseError site of the parser.
ERROR_CASES = [
    ("", "line 1, column 1: unexpected end of input (wanted a token)", 1, 1),
    ("poset", "line 1, column 6: unexpected end of input (wanted a token)", 1, 6),
    ("poset p", "line 1, column 8: unexpected end of input (wanted {)", 1, 8),
    ("poset p elements x", "line 1, column 9: expected '{', found 'elements'", 1, 9),
    ("lattice p { elements x }", "line 1, column 1: unknown model kind 'lattice'", 1, 1),
    ("poset p { elements x ; covers x!y }", "line 1, column 31: malformed cover 'x!y' (expected A<B)", 1, 31),
    ("poset p {\n elements x ;\n covers x<\n}", "line 3, column 9: malformed cover 'x<' (expected A<B)", 3, 9),
    ("orthoposet o { elements x y ; ortho x:y:z }", "line 1, column 37: malformed ortho pair 'x:y:z' (expected A:B)", 1, 37),
    ("poset p { elements x", "line 1, column 21: unterminated block", 1, 21),
    ("poset p { elements x ;\n", "line 1, column 23: unterminated block", 1, 23),
    ("poset p { elements x ; elements y }", "line 1, column 24: duplicate elements section", 1, 24),
    ("poset p { elements x ; covers ; covers }", "line 1, column 33: duplicate covers section", 1, 33),
    ("orthoposet o { elements x ; ortho x:x ; ortho x:x }", "line 1, column 41: duplicate ortho section", 1, 41),
    ("poset p { elements x ; ortho x:x }", "line 1, column 24: unknown section 'ortho' in poset", 1, 24),
    ("poset p { covers }", "line 1, column 19: poset 'p' lacks an elements section", 1, 19),
    ("poset p {\n  covers\n} extra", "line 3, column 3: poset 'p' lacks an elements section", 3, 3),
    ("poset p { elements x y x }", "line 1, column 27: duplicate element 'x'", 1, 27),
    ("poset p { elements x ; covers x<y }\n", "line 1, column 36: unknown element 'y' in 'p'", 1, 36),
    ("orthoposet o { elements x ; ortho x:q } trailing", "line 1, column 41: unknown element 'q' in 'o'", 1, 41),
    (f"repsys r {{ {V} ; map {{ }} }}", "line 1, column 63: map needs a target<source header", 1, 63),
    (f"repsys r {{ {V} ; map V {{ * -> x }} }}", "line 1, column 63: malformed map header 'V'", 1, 63),
    (f"repsys r {{ {V} ; map V<V<V {{ * -> x }} }}", "line 1, column 63: malformed map header 'V<V<V'", 1, 63),
    (f"repsys r {{ {V} ; map V<W {{ * -> x }} }}", "line 1, column 63: map references unknown view 'W'", 1, 63),
    (f"repsys r {{ {V} ; map V<V {{ * -> x ", "line 1, column 76: unterminated map block", 1, 76),
    (f"repsys r {{ {V} ; map V<V", "line 1, column 66: unexpected end of input (wanted {)", 1, 66),
    (f"repsys r {{ {V} ; map V<V {{ x }} }}", "line 1, column 69: malformed map entry 'x'", 1, 69),
    (f"repsys r {{ {V} ; map V<V {{ x-> }} }}", "line 1, column 69: malformed map entry 'x->'", 1, 69),
    (f"repsys r {{ {V} ; {U} ; map V<U {{ q->x }} }}", "line 1, column 101: map entry uses unknown 'U' element 'q'", 1, 101),
    (f"repsys r {{ {V} ; {U} ; map V<U {{ u->zz }} }}", "line 1, column 101: map entry uses unknown 'V' element 'zz'", 1, 101),
    (f"repsys r {{ {V} ; {U} ; map V<U {{ * -> x ; * -> y }} }}", "line 1, column 110: duplicate default entry", 1, 110),
    (f"repsys r {{ {V}", "line 1, column 56: unterminated repsys block", 1, 56),
    (f"repsys r {{ {V} ; view V = poset {{ elements z }} }}", "line 1, column 59: duplicate view 'V'", 1, 59),
    ("repsys r { view", "line 1, column 16: unexpected end of input (wanted a token)", 1, 16),
    ("repsys r { view V", "line 1, column 18: unexpected end of input (wanted a token)", 1, 18),
    ("repsys r { view V =", "line 1, column 20: unexpected end of input (wanted a token)", 1, 20),
    ("repsys r { view V = poset", "line 1, column 26: unexpected end of input (wanted {)", 1, 26),
    ("repsys r { view V : poset { elements x } }", "line 1, column 19: expected '=', found ':'", 1, 19),
    ("repsys r { view V = repsys { } }", "line 1, column 21: view must be a poset or orthoposet, not 'repsys'", 1, 21),
    ("repsys r { view V = poset elements x }", "line 1, column 27: expected '{', found 'elements'", 1, 27),
    (f"repsys r {{ {V} ; {U} ;\n  map V<U {{ u->x }} ;\n\tmap V < U {{ u->y }} }}", "line 3, column 2: duplicate map V<U", 3, 2),
    ("repsys r { edge V }", "line 1, column 12: unknown section 'edge' in repsys", 1, 12),
    ("poset p { elements x } poset q { elements y }", "line 1, column 24: trailing input 'poset'", 1, 24),
    ("poset p { elements x ; covers x<x\r\n ; bogus }", "line 2, column 4: unknown section 'bogus' in poset", 2, 4),
    ("# comment only\n\x0cposet p { elements x ;\x85 covers y<x }", "line 4, column 14: unknown element 'y' in 'p'", 4, 14),
    ("poset p {\x0b elements　x ; # x<y\n covers x<z }", "line 3, column 14: unknown element 'z' in 'p'", 3, 14),
]


@pytest.mark.parametrize("text, message, line, col", ERROR_CASES)
def test_parse_error_sites_are_pinned(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == (line, col)
    assert _outcome(reference_parse, text) == (message, line, col)


# Element ids and view names may not contain '<', ':' or '->', nor be '*'.
ID_RULE_CASES = [
    ("poset p { elements x a<b }", "line 1, column 22: illegal element id 'a<b' (ids may not contain '<', ':' or '->')", 1, 22),
    ("orthoposet o {\n  elements 0 a:b 1 ; ortho 0:1 }", "line 2, column 14: illegal element id 'a:b' (ids may not contain '<', ':' or '->')", 2, 14),
    (f"repsys r {{ view V = poset {{ elements x a->b }} }}", "line 1, column 40: illegal element id 'a->b' (ids may not contain '<', ':' or '->')", 1, 40),
    (f"repsys r {{ {V} ; view V<W = poset {{ elements z }} }}", "line 1, column 64: illegal view name 'V<W' (ids may not contain '<', ':' or '->')", 1, 64),
    ("repsys r { view V:W = poset { elements z } }", "line 1, column 17: illegal view name 'V:W' (ids may not contain '<', ':' or '->')", 1, 17),
    ("repsys r { view ->W = poset { elements z } }", "line 1, column 17: illegal view name '->W' (ids may not contain '<', ':' or '->')", 1, 17),
    (f"repsys r {{ {V} ;\n view U = poset {{ elements u * }} ; map V<U {{ *->x ; u->y }} }}", "line 2, column 30: illegal element id '*' (ids may not be '*', which marks a map default)", 2, 30),
]


@pytest.mark.parametrize("text, message, line, col", ID_RULE_CASES)
def test_id_rule_is_enforced_at_the_token(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == (line, col)
    assert _outcome(reference_parse, text) == (message, line, col)


REPRO = (
    "repsys r { view V = poset { elements a<b } ; view W = poset { elements p q ; covers p<q } ;"
    " map V<W { * -> a<b } ; map W<V { * -> q } }"
)


def test_emitted_sum_parses_back(tmp_path, capsys):
    """parse -> sum -> emit -> parse: a document orthoview accepts never
    yields a sum model it cannot read; an id that would break the emitted
    covers is refused where it is declared."""
    for text in (REPRO, REPRO.replace("a<b", "ab"), zoo()["firefly"].text):
        path = tmp_path / "system.oml"
        path.write_text(text)
        code = main(["sum", "--emit-model", str(path)])
        out = capsys.readouterr()
        if code == 2:
            assert out.err == "parse error: line 1, column 38: illegal element id 'a<b' (ids may not contain '<', ':' or '->')\n"
            continue
        assert code == 0
        emitted = tmp_path / "sum.oml"
        emitted.write_text(out.out)
        assert parse(out.out).kind == "poset"
        assert main(["validate", str(emitted)]) == 0
        capsys.readouterr()
    with pytest.raises(ParseError) as err:
        parse(REPRO)
    assert (err.value.line, err.value.col) == (1, 38)


# -- the scanner against the seed's per-character scan -------------------------

_ODD = ["\r\n", "\r", "\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\xa0", " ", " ",
        "　", "​", "\t", " ", "#", "{", "}", ";", "<", ":", "->", "*", "x", "y'", "0"]
odd_text = st.lists(st.sampled_from(_ODD) | st.text(max_size=3), max_size=40).map("".join)


def _scan_and_places(text):
    """The token texts of text, and the (line, column) at which `fail`
    places each token index, then the end of input."""
    places = []
    parser = _Parser(text)
    for at in range(len(parser.tokens) + 1):
        with pytest.raises(ParseError) as err:
            parser.fail("here", at)
        places.append((err.value.line, err.value.col))
    return parser.tokens, places


def _reference_scan_and_places(text):
    tokens = reference_tokenize(text)
    lines = text.splitlines()
    end = (len(lines) or 1, len(lines[-1]) + 1 if lines else 1)
    return [t.text for t in tokens], [(t.line, t.col) for t in tokens] + [end]


@PROPERTY
@given(odd_text)
def test_scan_and_fail_match_reference(text):
    assert _scan_and_places(text) == _reference_scan_and_places(text)


def test_scan_and_fail_end_comments_where_lines_end():
    breaks = [c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) == 2] + ["\r\n"]
    assert len(breaks) == 11
    for br in breaks:
        text = f"x #c{br}y;# {{{br}}}"
        assert _scan_and_places(text) == _reference_scan_and_places(text)
        assert _scan(text) == ["x", "y", ";", "}"]


def test_scan_and_fail_match_reference_on_the_zoo():
    for m in zoo().values():
        text = m.text.replace("\n", "\r\n") + "# trailing comment"
        assert _scan_and_places(text) == _reference_scan_and_places(text)


# -- totality: nothing but ParseError ------------------------------------------

_WORDS = ["poset", "orthoposet", "repsys", "view", "map", "elements", "covers", "ortho", "=", "{", "}",
          ";", "x", "y", "x<y", "y<x", "x:y", "x->y", "* -> x", "V", "W", "V<W", "W<V", "#", "\n", "*", "->"]
word_text = st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join)


def _parse_or_parse_error(text):
    try:
        parse(text)
    except ParseError as e:
        assert isinstance(e.line, int) and isinstance(e.col, int)


@PROPERTY
@given(odd_text | word_text)
def test_parse_is_total(text):
    _parse_or_parse_error(text)


def _edited(text, data, words=_WORDS):
    """The tokens of text after one to three drops, inserts or replacements
    by one of words."""
    tokens = _scan(text)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(tokens)))
        edit = data.draw(st.sampled_from(["drop", "insert", "replace"]))
        word = data.draw(st.sampled_from(words))
        if edit == "drop":
            del tokens[i:i + 1]
        elif edit == "insert":
            tokens.insert(i, word)
        else:
            tokens[i:i + 1] = [word]
    return tokens


@PROPERTY
@given(st.sampled_from(sorted(zoo())), st.data())
def test_parse_is_total_on_edited_zoo_documents(name, data):
    _parse_or_parse_error(" ".join(_edited(zoo()[name].text, data)))


# -- parse(serialize(d)) == d ---------------------------------------------------

# Ids over an alphabet with '-', '>', '*', "'" and '/' but never '<', ':' or
# '->'; the id '*' itself is drawn too, and refused.
ids = st.text("abxy01'_->/.*", min_size=1, max_size=4).filter(lambda s: "->" not in s)


@st.composite
def structures(draw, kind, name):
    elements = tuple(draw(st.lists(ids, unique=True, max_size=6)))
    pairs = st.lists(st.tuples(st.sampled_from(elements), st.sampled_from(elements)), max_size=6) if elements else st.just([])
    covers = tuple(draw(pairs))
    ortho = tuple(draw(pairs)) if kind == "orthoposet" else ()
    return ModelDocument(kind, name, elements, covers, ortho)


@st.composite
def documents(draw, kinds=("poset", "orthoposet", "repsys")):
    kind = draw(st.sampled_from(kinds))
    name = draw(ids)
    if kind != "repsys":
        return draw(structures(kind, name))
    names = draw(st.lists(ids, unique=True, max_size=3))
    views = tuple((v, draw(structures(draw(st.sampled_from(["poset", "orthoposet"])), v))) for v in names)
    docs = dict(views)
    maps = []
    keys = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), unique=True)) if names else []
    for target, source in keys:
        dst, src = range(len(docs[target].elements)), range(len(docs[source].elements))
        if not dst:
            maps.append(MapSpec(target, source, (), ()))
            continue
        entries = draw(st.lists(st.tuples(st.sampled_from(src), st.sampled_from(dst)), max_size=4)) if src else []
        default = draw(st.none() | st.sampled_from(dst))
        maps.append(MapSpec(target, source, tuple(a for a, _ in entries), tuple(b for _, b in entries), default))
    return ModelDocument(kind, name, views=views, maps=tuple(maps))


def _ids_of(doc):
    """The element ids and view names of a document."""
    return set(doc.elements).union(*(set(v.elements) | {name} for name, v in doc.views))


@PROPERTY
@given(documents())
def test_parse_serialize_roundtrip(doc):
    if "*" in _ids_of(doc):
        with pytest.raises(ParseError, match=r"illegal (element id|view name) '\*' \(ids may not be '\*'"):
            parse(serialize(doc))
    else:
        assert parse(serialize(doc)) == doc == _read_by_runs(serialize(doc))


def test_parse_serialize_roundtrip_on_shuffled_canonical_systems():
    """The canonical systems of 2^4 and of Greechie cycle 5, written as
    documents whose views list their elements in a shuffled order and whose
    maps list their entries shuffled, half of them with one entry left to a
    default: the index columns come back from parse(serialize(doc)) as they
    went in, and build_repsys makes the system's tables from them."""
    rng = random.Random(31)
    for model in (boolean_algebra(4), greechie_cycle(5)):
        brs = build_canonical_rs(as_orthoposet(shuffled(model, rng)))
        rs = brs.rs
        views, position = [], {}
        for v, o in zip(rs.views, brs.orthos):
            vdoc = doc_from_orthoposet(v, o)
            order = rng.sample(range(o.n), o.n)
            views.append((v, replace(vdoc, elements=tuple(vdoc.elements[k] for k in order))))
            position[v] = {k: new for new, k in enumerate(order)}
        maps = []
        for i in rs.views:
            for j in rs.views:
                table = rs.transform(i, j).tolist()
                xs = rng.sample(range(len(table)), len(table))
                default = position[i][table[xs.pop()]] if rng.random() < 0.5 else None
                sources, images = tuple(position[j][x] for x in xs), tuple(position[i][table[x]] for x in xs)
                maps.append(MapSpec(i, j, sources, images, default))
        rng.shuffle(maps)
        doc = ModelDocument("repsys", "shuffled", views=tuple(views), maps=tuple(maps))
        assert parse(serialize(doc)) == doc == _read_by_runs(serialize(doc))
        built, _ = build_repsys(doc)
        for i in rs.views:
            for j in rs.views:
                want = dict(zip(rs.poset_of(j).elements, (rs.poset_of(i).elements[t] for t in rs.transform(i, j))))
                got = dict(zip(built.poset_of(j).elements, (built.poset_of(i).elements[t] for t in built.transform(i, j))))
                assert got == want, (i, j)


# -- the parser against the token-stream reference -----------------------------


@PROPERTY
@given(odd_text | word_text)
def test_parse_matches_reference(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


_SEPARATORS = [" ", "\n", "\t", " # note\n", "\r\n  ", "\x85"]


@PROPERTY
@given(st.sampled_from(sorted(zoo())).map(lambda name: zoo()[name].text) | documents(["repsys"]).map(serialize), st.data())
def test_parse_matches_reference_on_edited_documents(text, data):
    """Zoo and generated documents under token edits (words of the
    grammar, or tokens of the document itself, which make duplicates and
    unknown references), rejoined over line breaks and comments."""
    tokens = _edited(text, data, _WORDS + _scan(text))
    seps = data.draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
    edited = "".join(t + sep for t, sep in zip(tokens, seps))
    assert _outcome(parse, edited) == _outcome(reference_parse, edited)


# Entries written as three tokens, so that one edit can also make a second
# default, or an entry naming an id of the other view.
_SPACED = """repsys s {  # two views
  view A = orthoposet { elements 0 a a' 1 ; covers 0<a 0<a' a<1 a'<1 ; ortho 0:1 a:a' } ;
  view B = poset { elements 0 b 1 ; covers 0<b b<1 } ;
  map B<A { 0 -> 0 ; a -> b ;
            * -> 1 } ;
  map A<B { b -> a ; * -> 1 }
}
"""


def test_parse_matches_reference_on_every_single_edit():
    """Every drop, and every insert or replacement by a word of the grammar
    or a token of the document, at every token of two systems."""
    for text in (zoo()["firefly"].text, _SPACED):
        tokens = _scan(text)
        words = sorted(set(_WORDS) | set(tokens))
        for i in range(len(tokens) + 1):
            edits = [tokens[:i] + tokens[i + 1:]]
            edits += [tokens[:i] + [w] + tokens[i + j:] for w in words for j in (0, 1)]
            for edit in edits:
                edited = "".join(t + ("\n" if k % 4 == 3 else " ") for k, t in enumerate(edit))
                assert _outcome(parse, edited) == _outcome(reference_parse, edited), edited


# -- map bodies read as a stride of the token list -----------------------------

# Every map body is one-token entries with no default, with and without a
# trailing ';', so the unedited maps are read as a stride; the ids 'a-' and
# '>b' make entries such as 'a-->>b' that split only at their one '->'.
_STRIDED = """repsys t {
  view A = poset { elements 0 a- 1 ; covers 0<a- a-<1 } ;
  view B = poset { elements 0 >b 1 ; covers 0<>b >b<1 } ;
  map B<A { 0->0 ; a-->>b ; 1->1 } ;
  map A<B { >b->a- ; 0->0 ; 1->1 ; }
}
"""


# Two runs of map blocks split by a view: strided bodies beside a spaced
# default and a header written as three tokens; the second run repeats the
# key A<B of the first, which an edit of either header can undo.
_RUNS = """repsys u {
  view A = poset { elements 0 a- 1 ; covers 0<a- a-<1 } ;
  view B = poset { elements 0 >b 1 ; covers 0<>b >b<1 } ;
  map B<A { 0->0 ; a-->>b ; 1->1 } ;
  map A < B { >b->a- ; * -> 1 } ;
  view C = poset { elements c } ;
  map C<A { 0->c ; a-->c ; 1->c } ;
  map A<B { 0->0 ; * -> a- }
}
"""


def test_parse_matches_reference_on_every_single_edit_of_strided_maps():
    """Every drop, and every insert or replacement by a word of the grammar
    or a token of the document, at every token of a system whose maps are
    all read as a stride, and of one whose maps form two runs. An edit that
    parses reads each of its map blocks in a run."""
    assert parse(_STRIDED) == reference_parse(_STRIDED)
    for text in (_STRIDED, _RUNS):
        tokens = _scan(text)
        words = sorted(set(_WORDS) | set(tokens) | {"a->b->c", "0->>b", "a--->1"})
        for i in range(len(tokens) + 1):
            edits = [tokens[:i] + tokens[i + 1:]]
            edits += [tokens[:i] + [w] + tokens[i + j:] for w in words for j in (0, 1)]
            for edit in edits:
                edited = "".join(t + ("\n" if k % 4 == 3 else " ") for k, t in enumerate(edit))
                got = _outcome(parse, edited)
                assert got == _outcome(reference_parse, edited), edited
                if isinstance(got, ModelDocument):
                    assert _read_by_runs(edited) == got, edited


def test_runs_cut_after_any_block_parse_as_the_reference_does(monkeypatch):
    """map_run reads at most _RUN_BLOCKS map blocks as one run. Cut after
    every block, or every two or three, systems parse as whole runs do; cut
    after every block, so that each refused block is a run of its own and
    a repeated key lies in an earlier run, every single edit of _RUNS parses
    as the reference parses it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import documents, structures

    canonical = documents.canonical_repsys_text(structures.boolean_algebra(4), random.Random(0))[0]
    runs = []
    read = _Parser.map_run
    monkeypatch.setattr(_Parser, "map_run", lambda self, index, maps: runs.append(len(maps)) or read(self, index, maps))
    for blocks in (3, 2, 1):
        monkeypatch.setattr(modelio, "_RUN_BLOCKS", blocks)
        for text in (zoo()["firefly"].text, _STRIDED, _RUNS.replace("map A<B", "map A<A"), canonical):
            assert parse(text) == reference_parse(text) == _read_by_runs(text)
        runs.clear()
        assert len(parse(canonical).maps) == 210 and runs == list(range(0, 210, blocks))
    tokens = _scan(_RUNS)
    words = sorted(set(_WORDS) | set(tokens))
    for i in range(len(tokens) + 1):
        edits = [tokens[:i] + tokens[i + 1:]]
        edits += [tokens[:i] + [w] + tokens[i + j:] for w in words for j in (0, 1)]
        for edit in edits:
            edited = " ".join(edit)
            assert _outcome(parse, edited) == _outcome(reference_parse, edited), edited


def test_edits_reach_both_outcomes_of_the_run_document():
    """_RUNS itself is refused at its repeated key; an edit of that header
    gives a document whose maps form two runs."""
    assert _outcome(parse, _RUNS) == _outcome(reference_parse, _RUNS) == ("line 8, column 3: duplicate map A<B", 8, 3)
    text = _RUNS.replace("map A<B", "map A<A")
    doc = parse(text)
    assert doc == reference_parse(text) == _read_by_runs(text)
    assert [m[:2] for m in doc.maps] == [("B", "A"), ("A", "B"), ("C", "A"), ("A", "A")]
    assert doc.maps[1] == MapSpec("A", "B", (1,), (1,), 2)  # >b -> a- ; * -> 1


def test_a_run_refused_without_an_error_is_internal(monkeypatch, tmp_path, capsys):
    """The walk that names the error of a refused run finds none when the
    run reader refuses a valid run: parse raises InternalCheckError, and
    the CLI exits 3 with its one-line message and no traceback."""
    monkeypatch.setattr(_Parser, "map_run", lambda self, ids, maps: False)
    text = zoo()["firefly"].text
    with pytest.raises(InternalCheckError) as err:
        parse(text)
    assert err.value.code == "map-run"
    path = tmp_path / "firefly.oml-model"
    path.write_text(text)
    assert main(["validate", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("internal consistency failure [map-run]: ")
    assert "Traceback" not in out.err and out.err.count("\n") == 1


def test_parse_leaves_the_collector_as_it_found_it(monkeypatch):
    """parse pauses the cyclic collector while it runs, and leaves it on or
    off as the caller had it, after a document and after a ParseError."""
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            assert parse(zoo()["firefly"].text).kind == "repsys"
            assert gc.isenabled() is enabled
            with pytest.raises(ParseError):
                parse(f"repsys r {{ {V} ; map V<V {{ x }} }}")
            assert gc.isenabled() is enabled
            with monkeypatch.context() as mp:
                mp.setattr(modelio, "_parse", lambda text: gc.isenabled())
                assert parse("") is False
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


_MAP_VIEWS = "view A = poset { elements 0 a- a 1 } ; view B = poset { elements 0 >b b 1 }"
# ids of A, of B, of neither, and '*'
_MAP_IDS = ["0", "1", "a-", "a", ">b", "b", "q", "*"]


@st.composite
def map_items(draw):
    """One item of a map body: an entry written as one token or spaced, or
    an item no entry can be."""
    lhs, rhs = draw(st.sampled_from(_MAP_IDS)), draw(st.sampled_from(_MAP_IDS))
    arrow = draw(st.sampled_from(["->", " -> ", "-> ", " ->"]))
    junk = st.sampled_from(["", ";", "{", "a->b->c", "a-->b", "a->>b", "->", "x", "0->", "->1", "- >", "* ->"])
    return draw(st.just(lhs + arrow + rhs) | junk)


@st.composite
def map_bodies(draw):
    """Items joined by ';' (or by nothing, a missing ';'), with optional
    leading and trailing ';'."""
    items = draw(st.lists(map_items(), max_size=6))
    seps = draw(st.lists(st.sampled_from([" ; ", " ; ", " ;\n", " ;; ", " "]), min_size=len(items), max_size=len(items)))
    body = "".join(item + sep for item, sep in zip(items, seps))
    lead, trail = draw(st.sampled_from(["", "; "])), draw(st.sampled_from(["", " ;", " }"]))
    return lead + body.removesuffix(" ; ") + trail


@PROPERTY
@given(map_bodies(), map_bodies())
def test_parse_matches_reference_on_map_bodies(forth, back):
    text = f"repsys r {{ {_MAP_VIEWS} ;\n map B<A {{ {forth} }} ;\n map A<B {{ {back} }} }}"
    got = _outcome(parse, text)
    assert got == _outcome(reference_parse, text)
    if isinstance(got, ModelDocument):
        assert _read_by_runs(text) == got


def test_parse_matches_reference_on_canonical_systems(monkeypatch):
    """The canonical systems of 2^4 and of Greechie cycles 6 and 7 as the
    benchmark writes them: every map body one-token entries, one a line."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import documents, structures

    for s in (structures.boolean_algebra(4), structures.greechie_cycle(6), structures.greechie_cycle(7)):
        text, views, _ = documents.canonical_repsys_text(s, random.Random(0))
        doc = parse(text)
        assert doc == reference_parse(text) == _read_by_runs(text)
        assert len(doc.maps) == views * (views - 1)
