"""The .oml parser: pinned error sites, the scanner against the seed's
per-character scan, totality, the id rule, parse/serialize roundtrips and
the parser against the token-stream reference parser."""

import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from orthoview import ParseError, parse, serialize, zoo
from orthoview.cli import main
from orthoview.modelio import MapSpec, ModelDocument, _scan, _tokenize

from _models import reference_parse, reference_tokenize

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _outcome(parser, text):
    """The document, or the message, line and column of the ParseError."""
    try:
        return parser(text)
    except ParseError as e:
        return str(e), e.line, e.col


V = "view V = poset { elements x y ; covers x<y }"
U = "view U = poset { elements u }"

# (document, str(err), line, col) for every ParseError site of the parser.
ERROR_CASES = [
    ("", "line 0, column 1: unexpected end of input (wanted a token)", 0, 1),
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


@PROPERTY
@given(odd_text)
def test_tokenize_matches_reference(text):
    assert [(t.text, t.line, t.col) for t in _tokenize(text)] == reference_tokenize(text)
    assert _scan(text) == [t.text for t in _tokenize(text)]


def test_scan_ends_comments_where_lines_end():
    breaks = [c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) == 2] + ["\r\n"]
    assert len(breaks) == 11
    for br in breaks:
        text = f"x #c{br}y;# {{{br}}}"
        assert _scan(text) == [t.text for t in _tokenize(text)] == ["x", "y", ";", "}"]


def test_tokenize_matches_reference_on_the_zoo():
    for m in zoo().values():
        text = m.text.replace("\n", "\r\n") + "# trailing comment"
        assert [(t.text, t.line, t.col) for t in _tokenize(text)] == reference_tokenize(text)


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
    tokens = [t.text for t in _tokenize(text)]
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
        dst, src = docs[target].elements, docs[source].elements
        if not dst:
            maps.append(MapSpec(target, source, ()))
            continue
        entries = draw(st.lists(st.tuples(st.sampled_from(src), st.sampled_from(dst)), max_size=4)) if src else []
        default = draw(st.none() | st.sampled_from(dst))
        maps.append(MapSpec(target, source, tuple(entries), default))
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
        assert parse(serialize(doc)) == doc


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
    tokens = _edited(text, data, _WORDS + [t.text for t in _tokenize(text)])
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
        tokens = [t.text for t in _tokenize(text)]
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


def test_parse_matches_reference_on_every_single_edit_of_strided_maps():
    """Every drop, and every insert or replacement by a word of the grammar
    or a token of the document, at every token of a system whose maps are
    all read as a stride."""
    assert parse(_STRIDED) == reference_parse(_STRIDED)
    tokens = [t.text for t in _tokenize(_STRIDED)]
    words = sorted(set(_WORDS) | set(tokens) | {"a->b->c", "0->>b", "a--->1"})
    for i in range(len(tokens) + 1):
        edits = [tokens[:i] + tokens[i + 1:]]
        edits += [tokens[:i] + [w] + tokens[i + j:] for w in words for j in (0, 1)]
        for edit in edits:
            edited = "".join(t + ("\n" if k % 4 == 3 else " ") for k, t in enumerate(edit))
            assert _outcome(parse, edited) == _outcome(reference_parse, edited), edited


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
    assert _outcome(parse, text) == _outcome(reference_parse, text)


def test_parse_matches_reference_on_canonical_systems(monkeypatch):
    """The canonical systems of 2^4 and of Greechie cycles 6 and 7 as the
    benchmark writes them: every map body one-token entries, one a line."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import documents, structures

    for s in (structures.boolean_algebra(4), structures.greechie_cycle(6), structures.greechie_cycle(7)):
        text, views, _ = documents.canonical_repsys_text(s, random.Random(0))
        doc = parse(text)
        assert doc == reference_parse(text)
        assert len(doc.maps) == views * (views - 1)
