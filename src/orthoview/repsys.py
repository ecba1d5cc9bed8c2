"""Indexed families of view posets linked by transformation tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType

import numpy as np

from .poset import OK, ValidationError, Verdict
from .ortho import is_boolean_algebra, stack_boolean


def _table_error(i, j, code):
    """missing-transform, or bad-transform, for the table (i, j)."""
    if code == "missing-transform":
        return ValidationError(code, f"no table for ({i!r}, {j!r})", (i, j))
    return ValidationError(code, f"table ({i!r}, {j!r}) does not map {j!r} into {i!r}", (i, j))


@dataclass(frozen=True, eq=False)
class RepresentationSystem:
    """Views, one poset per view, and a total element map f_(i|j) for every
    ordered pair of views, all held as the distinct columns of their tables.

    Pairs (view k, element x) are numbered a = off[k] + x, by view and then
    by element (the pre-sum order). Column G[:, cid[a]] is how every view
    sees pair a: G[i, cid[a]] is the view-i index of the translation of
    pair a, so G[i, cid[off[j]:off[j + 1]]] is the table f_(i|j). G is
    V x R: pairs share a column iff every view sees them alike, and every
    column is some pair's. The constructor refuses any other (G, cid) as
    bad-columns. `holes` maps each table (i, j) that was absent, or did not
    have one entry per element of view j, to missing-transform or
    bad-transform; its entries read -1. `make_rs` builds a system from a
    {(i, j): table} mapping. G, cid and holes are read-only, and systems
    compare and hash by identity.

    Each law is decided and named on the columns (`_first_failure`):
    `monotony` and `composition` are the verdicts of those two laws, and
    together they make the pre-sum transitive: (k, x) <= (j, y) <= (i, z)
    gives f_(i|k)(x) <= f_(i|j)(f_(j|k)(x)) <= f_(i|j)(y) <= z.
    """

    views: tuple
    posets: tuple
    G: np.ndarray
    cid: np.ndarray
    holes: dict

    def __post_init__(self):
        G, cid = self.G, self.cid
        G.flags.writeable = cid.flags.writeable = False
        object.__setattr__(self, "holes", MappingProxyType(dict(self.holes)))
        if G.ndim != 2 or len(G) != len(self.views) or cid.shape != (self.off[-1],):
            raise ValidationError("bad-columns", f"G {G.shape} and cid {cid.shape} do not fit {len(self.views)} views and {self.off[-1]} pairs")
        R = G.shape[1]
        bad = np.flatnonzero((cid < 0) | (cid >= R))
        if bad.size:
            raise ValidationError("bad-columns", f"pair {bad[0]} has no column", (int(bad[0]),))
        bad = np.flatnonzero(np.bincount(cid, minlength=R) == 0)
        if bad.size:
            raise ValidationError("bad-columns", f"column {bad[0]} is no pair's", (int(bad[0]),))
        _, first, inverse = np.unique(_column_keys(G), return_index=True, return_inverse=True)
        bad = np.flatnonzero(first[inverse] != np.arange(R))
        if bad.size:
            r, s = int(first[inverse[bad[0]]]), int(bad[0])
            raise ValidationError("bad-columns", f"columns {r} and {s} are equal", (r, s))

    def view_index(self, view):
        try:
            return self.views.index(view)
        except ValueError:
            raise ValidationError("unknown-view", f"no view {view!r}", (view,)) from None

    def poset_of(self, view):
        return self.posets[self.view_index(view)]

    @cached_property
    def off(self):
        """off[k] is the number of view k's first pair; off[-1] counts the pairs."""
        return np.cumsum([0] + [p.n for p in self.posets], dtype=np.intp)

    def transform(self, i, j):
        """The table f_(i|j), translating view j into view i, read-only; its
        hole's code, or bad-transform if an entry lies outside view i."""
        vi, vj = self.view_index(i), self.view_index(j)
        t = self.G[vi, self.cid[self.off[vj]:self.off[vj + 1]]]
        if (i, j) in self.holes or ((t < 0) | (t >= self.posets[vi].n)).any():
            raise _table_error(i, j, self.holes.get((i, j), "bad-transform"))
        t.flags.writeable = False
        return t

    @cached_property
    def transforms(self):
        """The tables as a read-only {(i, j): tuple} mapping, built on first
        read. Missing tables are left out; a bad one reads as its block of -1."""
        off, rows = self.off.tolist(), self.G[:, self.cid].tolist()
        return MappingProxyType({
            (i, j): tuple(row[off[k]:off[k + 1]])
            for i, row in zip(self.views, rows) for k, j in enumerate(self.views)
            if self.holes.get((i, j)) != "missing-transform"})

    @cached_property
    def stacked(self):
        """off, once every table is known to map view j into view i.

        Raises missing-transform or bad-transform for the first table, in
        row-major (i, j) order, that is a hole or holds an index outside
        view i.
        """
        off, G, cid = self.off, self.G, self.cid
        out = (G < 0) | (G >= np.diff(off)[:, None])
        at = {v: k for k, v in enumerate(self.views)}
        faults = [(at[i], at[j]) for i, j in self.holes]
        for vi in np.flatnonzero(out.any(axis=1))[:1]:
            faults.append((int(vi), int(np.searchsorted(off, out[vi, cid].argmax(), "right")) - 1))
        if faults:
            i, j = (self.views[k] for k in min(faults))
            raise _table_error(i, j, self.holes.get((i, j), "bad-transform"))
        return off

    @cached_property
    def monotony(self):
        """The verdict of monotony, f_(i|j)(x) <= f_(i|j)(y) for x <= y in
        view j, naming the first failure of a scan over i, j, x, y. Item
        (a, b) of the scan, a pair of pairs of one view, holds in view i by
        the view-i entries of its two columns alone."""
        self.stacked  # raises for a missing or bad table
        G, cid = self.G, self.cid
        leqs = [p.leq for p in self.posets]
        a, b = _within_views(self, np.concatenate([m.ravel() for m in leqs] + [np.empty(0, bool)]))
        hit = _first_failure(G, cid[np.stack([a, b])], lambda i, v: leqs[i][v[0], v[1]])
        if hit is None:
            return OK
        i, bad = hit
        k = bad.argmax()
        (j, x), (_, y) = self.pair(a[k]), self.pair(b[k])
        return Verdict(False, "monotony", (self.views[i], j, x, y))

    @cached_property
    def composition(self):
        """The verdict of composition, f_(i|k)(x) <= f_(i|j)(f_(j|k)(x)),
        naming the first failure of a scan over i, j, k, x. For a = (k, x)
        in column r, f_(j|k)(x) is pair off[j] + G[j, r], so item (j, a)
        holds in view i by (j, r) alone: V x R items, not V x P."""
        off, G, cid = self.stacked, self.G, self.cid
        leqs = [p.leq for p in self.posets]
        routed = cid[off[:-1, None] + G]  # routed[j, r]: the column of f_(j|k)(x) for (k, x) in column r
        items = np.stack([np.broadcast_to(np.arange(G.shape[1]), G.shape).ravel(), routed.ravel()])
        hit = _first_failure(G, items, lambda i, v: leqs[i][v[0], v[1]])
        if hit is None:
            return OK
        i, bad = hit
        bad = bad.reshape(G.shape)
        j = int(bad.any(axis=1).argmax())
        return Verdict(False, "composition", (self.views[i], self.views[j]) + self.pair(int(bad[j, cid].argmax())))

    def pair(self, a):
        """(view, element id) of pair a in the `stacked` numbering."""
        off = self.off
        k = int(np.searchsorted(off, a, "right")) - 1
        return self.views[k], self.posets[k].elements[a - off[k]]


def make_rs(views, posets, tables):
    """Assemble a RepresentationSystem from a {(i, j): table} mapping, each
    table the view-i index of every element of view j. Absent identity tables
    are materialized; any other absent table, or one of the wrong length, is
    recorded as a hole, whose entries read -1. The distinct columns of the
    tables laid out as one V x P array are kept."""
    views, posets = tuple(views), tuple(posets)
    holes, blocks = {}, []
    for i in views:
        for j, src in zip(views, posets):
            t = tables.get((i, j), range(src.n) if i == j else None)
            if t is None or len(t) != src.n:
                holes[(i, j)] = "missing-transform" if t is None else "bad-transform"
                t = repeat(-1, src.n)
            blocks.append(t)
    pairs = sum(p.n for p in posets)
    g = np.fromiter(chain.from_iterable(blocks), np.intp, len(views) * pairs).reshape(len(views), pairs)
    _, first, cid = np.unique(_column_keys(g), return_index=True, return_inverse=True)
    return RepresentationSystem(views, posets, g[:, first], cid, holes)


def _column_keys(g):
    """The columns of g as byte strings, in the narrowest dtype holding g."""
    narrow = np.result_type(*map(np.min_scalar_type, (g.min(initial=0), g.max(initial=0))))
    cols = np.ascontiguousarray(g.T, narrow)
    return cols.view(np.dtype((np.void, cols.itemsize * cols.shape[1]))).ravel()


def apply_transform(rs, i, j, x):
    """Translate element id x of view j into view i; returns an element id."""
    src = rs.poset_of(j)
    dst = rs.poset_of(i)
    return dst.elements[rs.transform(i, j)[src.idx(x)]]


def _within_views(rs, cells):
    """Pair indices (a, b) of the set entries of cells, one n_k x n_k
    boolean matrix per view, raveled and laid end to end: in view and then
    row-major order, the order of a scan over k, x, y."""
    off, sizes = rs.off, np.diff(rs.off)
    ends = np.cumsum(sizes * sizes)
    e = np.flatnonzero(cells)
    k = np.searchsorted(ends, e, "right")  # the view of cell e
    x, y = np.divmod(e - (ends - sizes * sizes)[k], sizes[k])
    return off[k] + x, off[k] + y


def _first_failure(G, items, holds):
    """The first view i, in view order, at which some scan item fails, and
    the failure mask of every item there; None when every item holds in
    every view.

    items is an m x N array: column k holds the m columns of G on which
    scan item k depends, and holds(i, v) is the mask of the tuples whose
    view-i entries are v, an m x D array, that satisfy the law there. Each
    distinct tuple is evaluated once per view, one view at a time."""
    key = np.zeros(items.shape[1], np.int64)
    for col in items:
        key = key * G.shape[1] + col
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    tuples = items[:, first]
    for i, row in enumerate(G):
        ok = holds(i, row[tuples])
        if not ok.all():
            return i, ~ok[inverse]
    return None


def check_rs_axioms(rs):
    """Exhaustive check of the three transformation-table laws.

    Identity is read off the `stacked` tables, then monotony and composition
    come from `RepresentationSystem.monotony` and `composition`, decided on
    the system's distinct columns. Witnesses carry view and element ids in
    a fixed order so a failure can be re-verified by direct formula
    evaluation.
    """
    try:
        off = rs.stacked
    except ValidationError as e:
        return Verdict(False, e.code, e.witness)
    owner = np.repeat(np.arange(len(rs.views)), np.diff(off))
    bad = np.flatnonzero(rs.G[owner, rs.cid] != np.arange(off[-1]) - off[owner])  # f_(k|k)(x) != x for a = (k, x)
    if bad.size:
        return Verdict(False, "identity", rs.pair(bad[0]))
    return rs.monotony and rs.composition


def validate_rs(rs):
    """check_rs_axioms, raising on the first violation."""
    v = check_rs_axioms(rs)
    if not v:
        raise ValidationError(v.code, f"transformation tables violate {v.code}", v.witness)
    return rs


@dataclass(frozen=True)
class BooleanRepresentationSystem:
    """A representation system whose views are boolean algebras and whose
    tables preserve joins and satisfy the orthocomplement adjunction.
    orthos[k] carries the ortho-structure of posets[k].
    """

    rs: RepresentationSystem
    orthos: tuple

    @property
    def views(self):
        return self.rs.views

    def ortho_of(self, view):
        return self.orthos[self.rs.view_index(view)]


def _above(posets, G):
    """above[r, b]: the view-k entry of column r lies below y in posets[k],
    for b = (k, y); row cid[a] is pair a's row of the pre-sum relation."""
    return np.hstack([p.leq[t] for p, t in zip(posets, G)] + [np.empty((G.shape[1], 0), bool)])


def check_boolean_rs_axioms(rs, orthos):
    """Booleanness of every view, join preservation, and the adjunction
    f_(i|j)(x) <= y  =>  f_(j|i)(y') <= x', all checked exhaustively on the
    orthos' orders, each naming the first failure of a scan over i, j, x, y.

    The views of one size are decided boolean as one stack
    (`ortho.stack_boolean`), which also builds their join tables; a view
    failing there is checked on its own, to name the failure.
    Join preservation is decided on the distinct columns (`_first_failure`):
    item (x, y) of view j holds in view i by the view-i entries of the
    columns of (j, x), (j, y) and (j, x v y). Only x < y are scanned, since
    the law is symmetric in x and y and holds at x = y.
    The adjunction is rel[a, b] => rel[c(b), c(a)] on the pre-sum of the
    orthos' orders, with c(k, x) = (k, x'). Row rel[a] is above[cid[a]], so
    with every[s, r] the AND of rel[s, c(a)] over the pairs a of column r,
    the law fails at (column r, b) iff above[r, b] and not every[cid[c(b)],
    r]. Only the view of the first such b is scanned pair by pair, to name
    the witness.
    """
    stack_boolean(orthos)
    for v, o in zip(rs.views, orthos):
        b = is_boolean_algebra(o)
        if not b:
            return Verdict(False, "view-not-boolean", (v, b.code) + b.witness)
    off, G, cid = rs.stacked, rs.G, rs.cid
    tables = [o.poset.tables()[0] for o in orthos]
    joins = np.concatenate([jn.ravel() for jn in tables] + [np.empty(0, np.intp)])
    x, y = _within_views(rs, np.ones(len(joins), bool))
    upper = x < y
    x, y = x[upper], y[upper]
    xy = np.repeat(off[:-1], np.diff(off))[x] + joins[upper]  # the pair of x v y
    hit = _first_failure(G, cid[np.stack([x, y, xy])], lambda i, v: tables[i][v[0], v[1]] == v[2])
    if hit is not None:
        i, bad = hit
        k = bad.argmax()
        (j, u), (_, v) = rs.pair(x[k]), rs.pair(y[k])
        return Verdict(False, "join-preservation", (rs.views[i], j, u, v))
    comp = np.concatenate([start + np.asarray(o.ortho, dtype=np.intp) for start, o in zip(off, orthos)] + [np.empty(0, np.intp)])
    above = _above([o.poset for o in orthos], G)
    order = np.argsort(cid, kind="stable")
    every = np.logical_and.reduceat(above[:, comp[order]], np.flatnonzero(np.diff(cid[order], prepend=-1)), axis=1)
    failing = (above & ~every.T[:, cid[comp]]).any(axis=0)
    if not failing.any():
        return OK
    i = int(np.searchsorted(off, failing.argmax(), "right")) - 1
    b = np.arange(off[i], off[i + 1])
    a, y = np.argwhere(above[cid[:, None], b] & ~above[cid[comp[b]]][:, comp].T)[0]
    return Verdict(False, "ortho-adjunction", (rs.views[i],) + rs.pair(a) + (orthos[i].elements[y],))


def validate_boolean_rs(rs, orthos):
    """Both axiom batteries, raising on the first violation."""
    validate_rs(rs)
    orthos = tuple(orthos)
    for view, p, o in zip(rs.views, rs.posets, orthos):
        if o.poset is not p and (o.poset.elements != p.elements or not np.array_equal(o.poset.leq, p.leq)):
            raise ValidationError("ortho-poset-mismatch", f"the orthocomplement of view {view!r} is over another poset", (view,))
    v = check_boolean_rs_axioms(rs, orthos)
    if not v:
        raise ValidationError(v.code, f"boolean system axioms violated: {v.code}", v.witness)
    return BooleanRepresentationSystem(rs, orthos)
