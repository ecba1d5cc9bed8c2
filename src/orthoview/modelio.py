"""The .oml-model text format, the builtin model zoo, and check reports.

Grammar:

    poset NAME { elements e1 e2 ... ; covers a<b c<d ... }
    orthoposet NAME { elements ... ; covers ... ; ortho x:y ... }
    repsys NAME { view V = <inline poset or orthoposet body> ;
                  ... ;
                  map Vi<Vj { x->y ... ; * -> t } }

Tokens: each line (str.splitlines) is cut at its first '#'; what is left
splits into '{', '}', ';' and maximal runs of other non-whitespace
characters. Errors carry the 1-based line and column of their token.
Ids: element ids and view names are single tokens that must not contain
'<', ':' or '->', so that covers, ortho pairs, map headers and entries
split back into ids; a violation is a ParseError at the id's token.

Covers are Hasse/comparability pairs; the order is their reflexive-
transitive closure. Ortho entries list unordered complement pairs (a
self-pair parses but cannot validate). `map Vi<Vj` is the table
translating view Vj into view Vi; `* -> t` supplies the image of every
unlisted element; tables for Vi<Vi are implicit identities.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .poset import FinitePoset, ValidationError
from .ortho import OrthoPoset
from .repsys import make_rs


class ParseError(Exception):
    """Syntax or reference error, with 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class MapSpec:
    """One `map target<source` block: explicit entries plus optional default."""

    target: str
    source: str
    entries: tuple
    default: str = None


@dataclass(frozen=True)
class ModelDocument:
    kind: str
    name: str
    elements: tuple = ()
    covers: tuple = ()
    ortho_pairs: tuple = ()
    views: tuple = ()
    maps: tuple = ()


class _Token(NamedTuple):
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"[{};]|[^\s{};]+")


def _tokenize(text):
    return [
        _Token(m.group(), ln, m.start() + 1)
        for ln, line in enumerate(text.splitlines(), start=1)
        for m in _TOKEN.finditer(line.split("#", 1)[0])
    ]


class _Stream:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        lines = text.splitlines()
        self.end = (len(lines), len(lines[-1]) + 1 if lines else 1)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input (wanted {expect or 'a token'})", *self.end)
        self.pos += 1
        if expect is not None and tok.text != expect:
            raise ParseError(f"expected {expect!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def fail(self, message):
        tok = self.peek()
        if tok is None:
            raise ParseError(message, *self.end)
        raise ParseError(message, tok.line, tok.col)

    def upto(self, *stops):
        """The tokens before the next one in stops, which is not consumed."""
        start = self.pos
        while self.pos < len(self.tokens) and self.tokens[self.pos].text not in stops:
            self.pos += 1
        return self.tokens[start:self.pos]

    def items(self, what):
        """The first token of each ';'-separated item of a block, consumed;
        the block's closing '}' is consumed too."""
        while True:
            tok = self.peek()
            if tok is None:
                self.fail(f"unterminated {what}")
            self.pos += 1
            if tok.text == "}":
                return
            if tok.text != ";":
                yield tok


def _id(tok, what):
    if "<" in tok.text or ":" in tok.text or "->" in tok.text:
        raise ParseError(f"illegal {what} {tok.text!r} (ids may not contain '<', ':' or '->')", tok.line, tok.col)
    return tok.text


def _split_pair(tok, sep, what):
    parts = tok.text.split(sep)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"malformed {what} {tok.text!r} (expected A{sep}B)", tok.line, tok.col)
    return parts[0], parts[1]


# section name -> the parser of each of its tokens
_SECTIONS = {
    "elements": lambda t: _id(t, "element id"),
    "covers": lambda t: _split_pair(t, "<", "cover"),
    "ortho": lambda t: _split_pair(t, ":", "ortho pair"),
}


def _parse_structure_body(ts, kind, name):
    sections = {}
    for head in ts.items("block"):
        body = ts.upto(";", "}")
        if head.text not in _SECTIONS or head.text == "ortho" and kind != "orthoposet":
            raise ParseError(f"unknown section {head.text!r} in {kind}", head.line, head.col)
        if head.text in sections:
            raise ParseError(f"duplicate {head.text} section", head.line, head.col)
        sections[head.text] = tuple(map(_SECTIONS[head.text], body))
    if "elements" not in sections:
        ts.fail(f"{kind} {name!r} lacks an elements section")
    elements = sections["elements"]
    seen = set()
    for e in elements:
        if e in seen:
            ts.fail(f"duplicate element {e!r}")
        seen.add(e)
    covers, ortho = sections.get("covers", ()), sections.get("ortho", ())
    for pair in covers + ortho:
        for e in pair:
            if e not in seen:
                ts.fail(f"unknown element {e!r} in {name!r}")
    return ModelDocument(kind, name, elements, covers, ortho)


def _parse_map(ts, views):
    header = ts.upto("{")
    if not header:
        ts.fail("map needs a target<source header")
    at = header[0].line, header[0].col
    joined = "".join(t.text for t in header)
    parts = joined.split("<")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"malformed map header {joined!r}", *at)
    target, source = parts
    for v in (target, source):
        if v not in views:
            raise ParseError(f"map references unknown view {v!r}", *at)
    src_els = set(views[source].elements)
    dst_els = set(views[target].elements)
    ts.next("{")
    entries = []
    default = None
    for head in ts.items("map block"):
        at = head.line, head.col
        joined = head.text + "".join(t.text for t in ts.upto(";", "}"))
        parts = joined.split("->")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"malformed map entry {joined!r}", *at)
        lhs, rhs = parts
        if lhs != "*" and lhs not in src_els:
            raise ParseError(f"map entry uses unknown {source!r} element {lhs!r}", *at)
        if rhs not in dst_els:
            raise ParseError(f"map entry uses unknown {target!r} element {rhs!r}", *at)
        if lhs != "*":
            entries.append((lhs, rhs))
        elif default is not None:
            raise ParseError("duplicate default entry", *at)
        else:
            default = rhs
    return MapSpec(target, source, tuple(entries), default)


def parse(text):
    """Parse one model document; raises ParseError with line/column."""
    ts = _Stream(_tokenize(text), text)
    kind_tok = ts.next()
    if kind_tok.text not in ("poset", "orthoposet", "repsys"):
        raise ParseError(f"unknown model kind {kind_tok.text!r}", kind_tok.line, kind_tok.col)
    kind = kind_tok.text
    name = ts.next().text
    ts.next("{")
    if kind != "repsys":
        doc = _parse_structure_body(ts, kind, name)
    else:
        views = {}
        maps = {}
        for head in ts.items("repsys block"):
            if head.text == "view":
                vname = _id(ts.next(), "view name")
                if vname in views:
                    raise ParseError(f"duplicate view {vname!r}", head.line, head.col)
                eq = ts.next()
                if eq.text != "=":
                    raise ParseError(f"expected '=', found {eq.text!r}", eq.line, eq.col)
                vkind = ts.next()
                if vkind.text not in ("poset", "orthoposet"):
                    raise ParseError(f"view must be a poset or orthoposet, not {vkind.text!r}", vkind.line, vkind.col)
                ts.next("{")
                views[vname] = _parse_structure_body(ts, vkind.text, vname)
            elif head.text == "map":
                mspec = _parse_map(ts, views)
                key = mspec.target, mspec.source
                if key in maps:
                    raise ParseError(f"duplicate map {mspec.target}<{mspec.source}", head.line, head.col)
                maps[key] = mspec
            else:
                raise ParseError(f"unknown section {head.text!r} in repsys", head.line, head.col)
        doc = ModelDocument(kind, name, views=tuple(views.items()), maps=tuple(maps.values()))
    trailing = ts.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing.text!r}", trailing.line, trailing.col)
    return doc


def _structure_lines(doc, indent=""):
    lines = [f"{indent}  elements {' '.join(doc.elements)}"]
    if doc.covers:
        lines[-1] += " ;"
        lines.append(f"{indent}  covers {' '.join(f'{a}<{b}' for a, b in doc.covers)}")
    if doc.ortho_pairs:
        lines[-1] += " ;"
        lines.append(f"{indent}  ortho {' '.join(f'{a}:{b}' for a, b in doc.ortho_pairs)}")
    return lines


def serialize(doc):
    """Canonical text for a document; parse(serialize(doc)) == doc."""
    if doc.kind in ("poset", "orthoposet"):
        return "\n".join([f"{doc.kind} {doc.name} {{"] + _structure_lines(doc) + ["}"]) + "\n"
    lines = [f"repsys {doc.name} {{"]
    chunks = []
    for vname, vdoc in doc.views:
        body = "\n".join(_structure_lines(vdoc, indent="  "))
        chunks.append(f"  view {vname} = {vdoc.kind} {{\n{body}\n  }}")
    for m in doc.maps:
        entries = [f"    {a}->{b}" for a, b in m.entries]
        if m.default is not None:
            entries.append(f"    * -> {m.default}")
        body = " ;\n".join(entries)
        chunks.append(f"  map {m.target}<{m.source} {{\n{body}\n  }}")
    lines.append(" ;\n".join(chunks))
    lines.append("}")
    return "\n".join(lines) + "\n"


def tokens_of(text):
    """Token texts, for whitespace/comment-insensitive comparisons."""
    return [t.text for t in _tokenize(text)]


# -- building core structures from documents --------------------------------


def build_poset(doc):
    if doc.kind not in ("poset", "orthoposet"):
        raise ValidationError("wrong-kind", f"cannot build a poset from a {doc.kind!r} document", (doc.kind,))
    return FinitePoset.from_covers(doc.elements, doc.covers)


def build_orthoposet(doc):
    if doc.kind != "orthoposet":
        raise ValidationError("wrong-kind", f"cannot build an orthoposet from a {doc.kind!r} document", (doc.kind,))
    p = build_poset(doc)
    comp = {}
    for a, b in doc.ortho_pairs:
        comp[a] = b
        comp[b] = a
    missing = [e for e in doc.elements if e not in comp]
    if missing:
        raise ValidationError("ortho-incomplete", f"no complement listed for {missing[0]!r}", (missing[0],))
    return OrthoPoset(p, [p.idx(comp[e]) for e in doc.elements])


def build_repsys(doc):
    """Build (RepresentationSystem, per-view ortho or None) from a document.

    Map entries are completed with the declared default; a missing entry
    with no default is rejected. Identity tables are implicit.
    """
    if doc.kind != "repsys":
        raise ValidationError("wrong-kind", f"cannot build a repsys from a {doc.kind!r} document", (doc.kind,))
    names = [v for v, _ in doc.views]
    posets = []
    orthos = []
    for _, vdoc in doc.views:
        if vdoc.kind == "orthoposet":
            o = build_orthoposet(vdoc)
            posets.append(o.poset)
            orthos.append(o)
        else:
            posets.append(build_poset(vdoc))
            orthos.append(None)
    by_name = dict(zip(names, posets))
    transforms = {}
    for m in doc.maps:
        src, dst = by_name[m.source], by_name[m.target]
        table = [None] * src.n
        for a, b in m.entries:
            table[src.idx(a)] = dst.idx(b)
        if m.default is not None:
            d = dst.idx(m.default)
            table = [d if t is None else t for t in table]
        holes = [src.elements[i] for i, t in enumerate(table) if t is None]
        if holes:
            raise ValidationError(
                "incomplete-map",
                f"map {m.target}<{m.source} misses {holes[0]!r} and has no default",
                (m.target, m.source, holes[0]),
            )
        transforms[(m.target, m.source)] = tuple(table)
    rs = make_rs(names, posets, transforms)
    return rs, tuple(orthos)


def build(doc):
    if doc.kind == "poset":
        return build_poset(doc)
    if doc.kind == "orthoposet":
        return build_orthoposet(doc)
    return build_repsys(doc)


# -- emitting documents for computed structures ------------------------------


def doc_from_poset(name, p):
    covers = tuple((p.elements[i], p.elements[j]) for i, j in p.covers())
    return ModelDocument("poset", name, tuple(p.elements), covers)


def doc_from_orthoposet(name, o):
    base = doc_from_poset(name, o.poset)
    pairs = tuple(
        (o.elements[i], o.elements[o.ortho[i]]) for i in range(o.n) if i <= o.ortho[i]
    )
    return ModelDocument("orthoposet", name, base.elements, base.covers, pairs)


# -- the builtin zoo ---------------------------------------------------------


@dataclass(frozen=True)
class ZooModel:
    name: str
    kind: str
    text: str
    expected: dict = None
    note: str = ""

    @property
    def doc(self):
        return parse(self.text)


def _flags(boolean, ortholattice, omp, oml):
    return {
        "is_boolean": boolean,
        "is_ortholattice": ortholattice,
        "is_omp": omp,
        "is_oml": oml,
    }


def _greechie_cycle_text(k):
    """A cycle of k three-atom boolean blocks, adjacent blocks sharing one
    atom: shared atoms a0..a{k-1}, private atoms b0..b{k-1}, block i being
    {a_i, b_i, a_(i+1 mod k)}."""
    atoms = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
    blocks = [(f"a{i}", f"b{i}", f"a{(i + 1) % k}") for i in range(k)]
    elements = ["0"] + atoms + [x + "'" for x in atoms] + ["1"]
    covers = [f"0<{x}" for x in atoms] + [f"{x}'<1" for x in atoms]
    for block in blocks:
        for x in block:
            for y in block:
                if x != y:
                    covers.append(f"{x}<{y}'")
    ortho = ["0:1"] + [f"{x}:{x}'" for x in atoms]
    return (
        f"orthoposet greechie_cycle_{k} {{\n"
        f"  elements {' '.join(elements)} ;\n"
        f"  covers {' '.join(covers)} ;\n"
        f"  ortho {' '.join(ortho)}\n"
        f"}}\n"
    )


_FIREFLY_TEXT = """repsys firefly {
  view X = poset {
    elements Top NotSeen Seen Left Right ;
    covers Left<Seen Right<Seen Seen<Top NotSeen<Top
  } ;
  view Y = poset {
    elements Top NotSeen Seen Up Down ;
    covers Up<Seen Down<Seen Seen<Top NotSeen<Top
  } ;
  map Y<X {
    Left->Seen ;
    Right->Down ;
    * -> Top
  } ;
  map X<Y {
    Up->Top ;
    Down->Seen ;
    * -> Top
  }
}
"""

_ZOO_SOURCES = (
    ZooModel(
        "boolean_2",
        "orthoposet",
        "orthoposet boolean_2 {\n  elements 0 1 ;\n  covers 0<1 ;\n  ortho 0:1\n}\n",
        _flags(True, True, True, True),
        "the two-element boolean algebra",
    ),
    ZooModel(
        "boolean_4",
        "orthoposet",
        "orthoposet boolean_4 {\n  elements 0 a a' 1 ;\n  covers 0<a 0<a' a<1 a'<1 ;\n  ortho 0:1 a:a'\n}\n",
        _flags(True, True, True, True),
        "the four-element boolean algebra (two atoms)",
    ),
    ZooModel(
        "boolean_8",
        "orthoposet",
        "orthoposet boolean_8 {\n"
        "  elements 0 a b c a' b' c' 1 ;\n"
        "  covers 0<a 0<b 0<c a<b' a<c' b<a' b<c' c<a' c<b' a'<1 b'<1 c'<1 ;\n"
        "  ortho 0:1 a:a' b:b' c:c'\n"
        "}\n",
        _flags(True, True, True, True),
        "the eight-element boolean algebra (three atoms)",
    ),
    ZooModel(
        "MO2",
        "orthoposet",
        "orthoposet MO2 {\n"
        "  elements 0 a a' b b' 1 ;\n"
        "  covers 0<a 0<a' 0<b 0<b' a<1 a'<1 b<1 b'<1 ;\n"
        "  ortho 0:1 a:a' b:b'\n"
        "}\n",
        _flags(False, True, True, True),
        "two incompatible two-atom blocks glued at the bounds",
    ),
    ZooModel(
        "hexagon_O6",
        "orthoposet",
        "orthoposet hexagon_O6 {\n"
        "  elements 0 a b b' a' 1 ;\n"
        "  covers 0<a a<b b<1 0<b' b'<a' a'<1 ;\n"
        "  ortho 0:1 a:a' b:b'\n"
        "}\n",
        _flags(False, True, False, False),
        "the benzene ring: an ortholattice that is not orthomodular",
    ),
    ZooModel(
        "greechie_cycle_4",
        "orthoposet",
        _greechie_cycle_text(4),
        _flags(False, False, True, False),
        "four pasted blocks in a cycle: orthomodular poset, not a lattice",
    ),
    ZooModel(
        "greechie_cycle_5",
        "orthoposet",
        _greechie_cycle_text(5),
        _flags(False, True, True, True),
        "five pasted blocks in a cycle: an orthomodular lattice",
    ),
    ZooModel(
        "firefly",
        "repsys",
        _FIREFLY_TEXT,
        None,
        "two observers, each seeing one split of a four-sector box",
    ),
)

_ALIASES = {"o6": "hexagon_O6"}


def zoo():
    """All builtin models, keyed by canonical name, in a stable order."""
    return {m.name: m for m in _ZOO_SOURCES}

def zoo_model(name):
    models = zoo()
    if name in models:
        return models[name]
    lowered = name.lower()
    for canonical in models:
        if canonical.lower() == lowered:
            return models[canonical]
    if lowered in _ALIASES:
        return models[_ALIASES[lowered]]
    raise ValidationError("unknown-model", f"no zoo model {name!r}", (name,))


# -- check records -----------------------------------------------------------


@dataclass(frozen=True)
class Record:
    """One line of the structured report stream.

    Serialized as a JSON object with sorted keys, so identical inputs
    produce byte-identical streams: check (str), verdict (bool), code
    (str, empty when ok), witness (list of ids), counts (name -> int),
    data (check-specific extras).
    """

    check: str
    verdict: bool
    code: str = ""
    witness: tuple = ()
    counts: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def to_json(self):
        payload = {
            "check": self.check,
            "verdict": self.verdict,
            "code": self.code,
            "witness": list(self.witness),
            "counts": self.counts,
            "data": self.data,
        }
        return json.dumps(payload, sort_keys=True)


def record_from_verdict(check, verdict, counts=None, data=None):
    return Record(
        check,
        verdict.ok,
        verdict.code,
        tuple(str(w) for w in verdict.witness),
        counts or {},
        data or {},
    )


def emit_report(records):
    """(human summary, machine stream) for a list of records."""
    human = []
    for r in records:
        status = "pass" if r.verdict else "FAIL"
        extra = ""
        if not r.verdict:
            extra = f"  [{r.code}]" + (f" witness={','.join(r.witness)}" if r.witness else "")
        human.append(f"{status}  {r.check}{extra}")
    machine = "".join(r.to_json() + "\n" for r in records)
    return "\n".join(human) + ("\n" if human else ""), machine
