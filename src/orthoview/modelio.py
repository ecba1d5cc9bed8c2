"""The .oml-model text format, the builtin model zoo, and check reports.

Grammar:

    poset NAME { elements e1 e2 ... ; covers a<b c<d ... }
    orthoposet NAME { elements ... ; covers ... ; ortho x:y ... }
    repsys NAME { view V = <inline poset or orthoposet body> ;
                  ... ;
                  map Vi<Vj { x->y ... ; * -> t } }

Tokens: '#' starts a comment that ends at the next line break (one of
those str.splitlines splits at); the rest splits into '{', '}', ';' and
maximal runs of other non-whitespace characters. The parser works on the
token texts alone, as plain strings, and reads each section and map body
as one slice of them: the entries of a map body whose every other token is
';' (one-token entries, as `serialize` writes them) are a stride of it, and
those of any other body are its tokens joined and cut at each ';'. Errors
carry the 1-based line and column of their token, which the positioned
scanner `_tokenize` computes only once an error is raised.
Ids: element ids and view names are single tokens that must not contain
'<', ':' or '->', so that covers, ortho pairs, map headers and entries
split back into ids, and must not be '*', which a map entry reads as its
default; a violation is a ParseError at the id's token.

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
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .poset import FinitePoset, ValidationError, _closed_stack, _pair_indices, size_groups
from .ortho import OrthoPoset, ortho_stack
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
# '#' to the next line break of str.splitlines
_COMMENT = re.compile(r"#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def _tokenize(text):
    """The tokens with their 1-based line and column."""
    return [
        _Token(m.group(), ln, m.start() + 1)
        for ln, line in enumerate(text.splitlines(), start=1)
        for m in _TOKEN.finditer(line.split("#", 1)[0])
    ]


def _scan(text):
    """The token texts of _tokenize(text), from the whole text at once:
    str.split and the regex's \\s split at the same code points."""
    text = _COMMENT.sub("", text)
    return text.replace("{", " { ").replace("}", " } ").replace(";", " ; ").split()


def _find(tokens, stop, lo, hi):
    """The index of the first stop in tokens[lo:hi], or hi."""
    try:
        return tokens.index(stop, lo, hi)
    except ValueError:
        return hi


def _split_pairs(items, sep):
    """(lefts, rights) of items that each split at exactly one sep into two
    nonempty parts, or None if some item does not."""
    if not items:
        return (), ()
    lefts, _, rights = zip(*map(str.partition, items, repeat(sep)))
    # an item without sep has an empty right part; partition splits at the
    # first sep, so a second one is left in a right part
    if "" in lefts or "" in rights or sep in " ".join(rights):
        return None
    return lefts, rights


class _Parser:
    """A cursor over the token texts of one document. Sections and map
    bodies are read as whole slices of the token list; the line and column
    of a token are found only when an error is raised at it."""

    def __init__(self, text):
        self.text = text
        self.tokens = _scan(text)
        self.pos = 0

    def fail(self, message, at=None):
        """Raise a ParseError at token `at` (default: the next one), or at
        the end of the input if there is no such token."""
        at = self.pos if at is None else at
        if at < len(self.tokens):
            tok = _tokenize(self.text)[at]
            raise ParseError(message, tok.line, tok.col)
        lines = self.text.splitlines()
        raise ParseError(message, len(lines), len(lines[-1]) + 1 if lines else 1)

    def next(self, expect=None):
        if self.pos == len(self.tokens):
            self.fail(f"unexpected end of input (wanted {expect or 'a token'})")
        tok = self.tokens[self.pos]
        if expect is not None and tok != expect:
            self.fail(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok

    def items(self, end):
        """(index, tokens) of each nonempty ';'-separated item before end."""
        out = []
        i = self.pos
        while i < end:
            j = _find(self.tokens, ";", i, end)
            if j > i:
                out.append((i, self.tokens[i:j]))
            i = j + 1
        return out

    def ids(self, names, what, at):
        """names, the tokens from index at, as ids; the first that breaks the
        id rule is refused at its token."""
        joined = " ".join(names)
        if "<" in joined or ":" in joined or "->" in joined or "*" in names:
            for k, name in enumerate(names):
                if "<" in name or ":" in name or "->" in name:
                    self.fail(f"illegal {what} {name!r} (ids may not contain '<', ':' or '->')", at + k)
                if name == "*":
                    self.fail(f"illegal {what} '*' (ids may not be '*', which marks a map default)", at + k)
        return tuple(names)

    def pairs(self, body, sep, what, at):
        """The (A, B) pair of each token A{sep}B of body, the tokens from
        index at; the first malformed one is refused at its token."""
        split = _split_pairs(body, sep)
        if split is None:
            k = next(k for k, tok in enumerate(body) if _split_pairs([tok], sep) is None)
            self.fail(f"malformed {what} {body[k]!r} (expected A{sep}B)", at + k)
        return tuple(zip(*split))

    def structure(self, kind, name):
        # blocks nest nothing: the first '}' closes this one
        end = _find(self.tokens, "}", self.pos, len(self.tokens))
        sections = {}
        for at, (head, *body) in self.items(end):
            if head not in ("elements", "covers", "ortho") or head == "ortho" and kind != "orthoposet":
                self.fail(f"unknown section {head!r} in {kind}", at)
            if head in sections:
                self.fail(f"duplicate {head} section", at)
            if head == "elements":
                sections[head] = self.ids(body, "element id", at + 1)
            elif head == "covers":
                sections[head] = self.pairs(body, "<", "cover", at + 1)
            else:
                sections[head] = self.pairs(body, ":", "ortho pair", at + 1)
        if end == len(self.tokens):
            self.fail("unterminated block", end)
        self.pos = end + 1
        if "elements" not in sections:
            self.fail(f"{kind} {name!r} lacks an elements section")
        elements = sections["elements"]
        seen = set(elements)
        if len(seen) != len(elements):
            seen = set()
            self.fail(f"duplicate element {next(e for e in elements if e in seen or seen.add(e))!r}")
        covers, ortho = sections.get("covers", ()), sections.get("ortho", ())
        if not seen.issuperset(chain.from_iterable(covers + ortho)):
            named = chain.from_iterable(covers + ortho)
            self.fail(f"unknown element {next(e for e in named if e not in seen)!r} in {name!r}")
        return ModelDocument(kind, name, elements, covers, ortho)

    def map(self, ids):
        """The map block whose header is at the cursor; ids holds the
        (ids and '*', ids) sets of each view read so far."""
        tokens, at = self.tokens, self.pos
        n = len(tokens)
        b = _find(tokens, "{", at, n) + 1
        if b == at + 1:
            self.fail("map needs a target<source header")
        header = tokens[at] if b == at + 2 else "".join(tokens[at:b - 1])
        target, _, source = header.partition("<")
        if not target or not source or "<" in source:
            self.fail(f"malformed map header {header!r}", at)
        for v in (target, source):
            if v not in ids:
                self.fail(f"map references unknown view {v!r}", at)
        if b > n:
            self.fail("unexpected end of input (wanted {)", n)
        self.pos = b
        end = _find(tokens, "}", b, n)
        # one-token entries between ';' are every other token of the body;
        # otherwise an entry is the concatenation of its item's tokens
        items = tokens[b:end:2]
        if tokens[b + 1:end:2].count(";") != (end - b) // 2 or ";" in items:
            items = list(filter(None, "".join(tokens[b:end]).split(";")))
        split = _split_pairs(items, "->")
        src, dst = ids[source][0], ids[target][1]
        if split is None or not src.issuperset(split[0]) or not dst.issuperset(split[1]) or split[0].count("*") > 1:
            self.refuse_entry(end, source, target, src, dst)
        if end == n:
            self.fail("unterminated map block", n)
        self.pos = end + 1
        lefts, rights = split
        entries = tuple(zip(lefts, rights))
        if "*" not in lefts:
            return MapSpec(target, source, entries)
        k = lefts.index("*")
        return MapSpec(target, source, entries[:k] + entries[k + 1:], rights[k])

    def refuse_entry(self, end, source, target, src, dst):
        """Raise at the first entry before end that is malformed, names an
        element its view lacks, or repeats the default."""
        default = False
        for at, item in self.items(end):
            entry = "".join(item)
            if _split_pairs([entry], "->") is None:
                self.fail(f"malformed map entry {entry!r}", at)
            lhs, rhs = entry.split("->")
            if lhs not in src:
                self.fail(f"map entry uses unknown {source!r} element {lhs!r}", at)
            if rhs not in dst:
                self.fail(f"map entry uses unknown {target!r} element {rhs!r}", at)
            if lhs == "*" and default:
                self.fail("duplicate default entry", at)
            default = default or lhs == "*"

    def repsys(self, name):
        tokens = self.tokens
        views = {}
        ids = {}
        maps = {}
        while True:
            at = self.pos
            if at == len(tokens):
                self.fail("unterminated repsys block")
            head = tokens[at]
            self.pos = at + 1
            if head == "}":
                break
            if head == ";":
                continue
            if head == "view":
                vname = self.next()
                self.ids([vname], "view name", self.pos - 1)
                if vname in views:
                    self.fail(f"duplicate view {vname!r}", at)
                eq = self.next()
                if eq != "=":
                    self.fail(f"expected '=', found {eq!r}", self.pos - 1)
                vkind = self.next()
                if vkind not in ("poset", "orthoposet"):
                    self.fail(f"view must be a poset or orthoposet, not {vkind!r}", self.pos - 1)
                self.next("{")
                views[vname] = vdoc = self.structure(vkind, vname)
                ids[vname] = {"*", *vdoc.elements}, set(vdoc.elements)
            elif head == "map":
                mspec = self.map(ids)
                key = mspec.target, mspec.source
                if key in maps:
                    self.fail(f"duplicate map {mspec.target}<{mspec.source}", at)
                maps[key] = mspec
            else:
                self.fail(f"unknown section {head!r} in repsys", at)
        return ModelDocument("repsys", name, views=tuple(views.items()), maps=tuple(maps.values()))


def parse(text):
    """Parse one model document; raises ParseError with line/column."""
    p = _Parser(text)
    kind = p.next()
    if kind not in ("poset", "orthoposet", "repsys"):
        p.fail(f"unknown model kind {kind!r}", 0)
    name = p.next()
    p.next("{")
    doc = p.repsys(name) if kind == "repsys" else p.structure(kind, name)
    if p.pos < len(p.tokens):
        p.fail(f"trailing input {p.tokens[p.pos]!r}")
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
    return _scan(text)


# -- building core structures from documents --------------------------------


def build_poset(doc):
    if doc.kind not in ("poset", "orthoposet"):
        raise ValidationError("wrong-kind", f"cannot build a poset from a {doc.kind!r} document", (doc.kind,))
    return FinitePoset.from_covers(doc.elements, doc.covers)


def build_orthoposet(doc):
    if doc.kind != "orthoposet":
        raise ValidationError("wrong-kind", f"cannot build an orthoposet from a {doc.kind!r} document", (doc.kind,))
    p = build_poset(doc)
    return OrthoPoset(p, _complements(doc, p._index))


def _complements(doc, index):
    """The complement of every element of an orthoposet document, read
    from its ortho pairs, as a position under index ({element: position}).
    Raises ortho-conflict for the first element listed with a second
    partner, then ortho-incomplete for the first element without one, then
    unknown-element for the first partner that is not an element."""
    comp = {}
    for a, b in doc.ortho_pairs:
        if comp.setdefault(a, b) != b or comp.setdefault(b, a) != a:
            x, y = (a, b) if comp[a] != b else (b, a)
            raise ValidationError(
                "ortho-conflict", f"{x!r} is listed with two complements, {comp[x]!r} and {y!r}", (x, comp[x], y)
            )
    try:
        return [index[comp[e]] for e in doc.elements]
    except KeyError:
        for e in doc.elements:
            if e not in comp:
                raise ValidationError("ortho-incomplete", f"no complement listed for {e!r}", (e,)) from None
        unknown = next(comp[e] for e in doc.elements if comp[e] not in index)
        raise ValidationError("unknown-element", f"no element {unknown!r}", (unknown,)) from None


def _view_stacks(vdocs):
    """(posets, orthoposets or None) of the view documents, the views of one
    size built as one stack: their cover relations are closed together and
    each law is decided once over the stack (`_closed_stack`, `ortho_stack`).
    A failing view raises its own error, but not always the first failing
    view in document order (see `build_repsys`)."""
    posets, orthos = [None] * len(vdocs), [None] * len(vdocs)
    for n, ks in size_groups([len(v.elements) for v in vdocs]).items():
        docs = [vdocs[k] for k in ks]
        indices = [{e: i for i, e in enumerate(d.elements)} for d in docs]
        # the view and the two ends of every cover
        cover_at, cover_ends = [], []
        for k, (d, index) in enumerate(zip(docs, indices)):
            cover_at += [k] * len(d.covers)
            cover_ends += _pair_indices(index, d.covers)
        below, above = np.array(cover_ends, dtype=np.intp).reshape(-1, 2).T
        rel = np.zeros((len(docs), n, n), dtype=bool)
        rel[cover_at, below, above] = True
        ps = _closed_stack([d.elements for d in docs], rel)
        rows = [j for j, d in enumerate(docs) if d.kind == "orthoposet"]
        comp = np.array([_complements(docs[j], indices[j]) for j in rows], dtype=np.intp).reshape(len(rows), n)
        for k, p in zip(ks, ps):
            posets[k] = p
        for j, o in zip(rows, ortho_stack([ps[j] for j in rows], comp) if rows else []):
            orthos[ks[j]] = o
    return posets, orthos


def build_repsys(doc):
    """Build (RepresentationSystem, per-view ortho or None) from a document.

    Map entries are completed with the declared default; a missing entry
    with no default is rejected. Identity tables are implicit. The views
    are built in stacks (`_view_stacks`); when a stack fails, the views are
    built again one at a time, in document order, so that the first
    failing view raises its own error.
    """
    if doc.kind != "repsys":
        raise ValidationError("wrong-kind", f"cannot build a repsys from a {doc.kind!r} document", (doc.kind,))
    names = [v for v, _ in doc.views]
    vdocs = [vdoc for _, vdoc in doc.views]
    try:
        posets, orthos = _view_stacks(vdocs)
    except ValidationError:
        for vdoc in vdocs:
            (build_orthoposet if vdoc.kind == "orthoposet" else build_poset)(vdoc)
        raise
    by_name = dict(zip(names, posets))
    tables = {}
    for m in doc.maps:
        src, dst = by_name[m.source]._index, by_name[m.target]._index
        table = [None] * len(src)
        try:
            for a, b in m.entries:
                table[src[a]] = dst[b]
            if m.default is not None:
                d = dst[m.default]
                table = [d if t is None else t for t in table]
        except KeyError as e:
            # an id one of the two views lacks: idx raises unknown-element
            by_name[m.source].idx(e.args[0])
            by_name[m.target].idx(e.args[0])
        if None in table:
            hole = by_name[m.source].elements[table.index(None)]
            raise ValidationError(
                "incomplete-map",
                f"map {m.target}<{m.source} misses {hole!r} and has no default",
                (m.target, m.source, hole),
            )
        tables[(m.target, m.source)] = table
    rs = make_rs(names, posets, tables)
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
