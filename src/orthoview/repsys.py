"""Indexed families of view posets linked by transformation tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType

import numpy as np

from .poset import OK, ValidationError, Verdict, _packed
from .ortho import is_boolean_algebra, stack_boolean

_CHUNK = 8 << 20  # bytes gathered at once by the row tests


def _chunks(n, row_bytes):
    """Slices covering range(n), each gathering about _CHUNK bytes of rows
    that are row_bytes long."""
    step = max(1, _CHUNK // max(row_bytes, 1))
    return [slice(s, s + step) for s in range(0, n, step)]


def _table_error(i, j, code):
    """missing-transform, or bad-transform, for the table (i, j)."""
    if code == "missing-transform":
        return ValidationError(code, f"no table for ({i!r}, {j!r})", (i, j))
    return ValidationError(code, f"table ({i!r}, {j!r}) does not map {j!r} into {i!r}", (i, j))


@dataclass(frozen=True, eq=False)
class RepresentationSystem:
    """Views, one poset per view, and a total element map f_(i|j) for every
    ordered pair of views, all held in one read-only index array g.

    Pairs (view k, element x) are numbered a = off[k] + x, by view and then
    by element (the pre-sum order), and g[i, a] is the view-i index of the
    translation of pair a, so g[i, off[j]:off[j + 1]] is the table f_(i|j).
    `holes`, read-only too, maps each table (i, j) that was absent, or did
    not have one entry per element of view j, to missing-transform or
    bad-transform; its block of g holds -1. `make_rs` builds a system from
    a {(i, j): table} mapping. Tables never change after construction, and
    systems compare and hash by identity.

    `presum_rows` packs the pre-sum: row a = (k, x) restricted to view i's
    block is the up-set of f_(i|k)(x). `monotone` and `composes` decide
    those two laws on it exactly, and together they make the pre-sum
    transitive: (k, x) <= (j, y) <= (i, z) gives
    f_(i|k)(x) <= f_(i|j)(f_(j|k)(x)) <= f_(i|j)(y) <= z.
    """

    views: tuple
    posets: tuple
    g: np.ndarray
    holes: dict

    def __post_init__(self):
        self.g.flags.writeable = False
        object.__setattr__(self, "holes", MappingProxyType(dict(self.holes)))

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
        """The table f_(i|j), translating view j into view i: a slice of g."""
        vi, vj = self.view_index(i), self.view_index(j)
        if (i, j) in self.holes:
            raise _table_error(i, j, self.holes[(i, j)])
        return self.g[vi, self.off[vj]:self.off[vj + 1]]

    @cached_property
    def transforms(self):
        """The tables as a read-only {(i, j): tuple} mapping, built on first
        read. Missing tables are left out; a bad one reads as its block of -1."""
        off, rows = self.off.tolist(), self.g.tolist()
        return MappingProxyType({
            (i, j): tuple(row[off[k]:off[k + 1]])
            for i, row in zip(self.views, rows) for k, j in enumerate(self.views)
            if self.holes.get((i, j)) != "missing-transform"})

    @cached_property
    def stacked(self):
        """(off, g), once every table is known to map view j into view i.

        Raises missing-transform or bad-transform for the first table, in
        row-major (i, j) order, that is a hole or holds an index outside
        view i.
        """
        off, g = self.off, self.g
        out = (g < 0) | (g >= np.diff(off)[:, None])
        at = {v: k for k, v in enumerate(self.views)}
        faults = [(at[i], at[j]) for i, j in self.holes]
        for vi in np.flatnonzero(out.any(axis=1))[:1]:
            faults.append((int(vi), int(np.searchsorted(off, out[vi].argmax(), "right")) - 1))
        if faults:
            i, j = (self.views[k] for k in min(faults))
            raise _table_error(i, j, self.holes.get((i, j), "bad-transform"))
        return off, g

    @cached_property
    def presum_rows(self):
        """The pre-sum relation as packed rows (`poset._packed`), built on
        first use in row chunks from `stacked`: bit b of row a is set iff
        pair a <= pair b, that is, iff f_(j|k)(x) <= y in view j for
        a = (k, x) and b = (j, y). Read-only."""
        off, g = self.stacked
        n = int(off[-1])
        rows = np.empty((n, -(-n // 64)), dtype="<u8")
        for c in _chunks(n, n):
            rows[c] = _packed(np.hstack([p.leq[t[c]] for p, t in zip(self.posets, g)]))
        rows.flags.writeable = False
        return rows

    @cached_property
    def monotone(self):
        """Monotony of every table, decided on `presum_rows`: f_(i|j)(x) <=
        f_(i|j)(y) for every i iff row(j, y) is a subset of row(j, x), for
        every x <= y in view j."""
        rows = self.presum_rows
        below = _within_views(self, [p.leq for p in self.posets])
        return not any((rows[below[c, 1]] & ~rows[below[c, 0]]).any() for c in _chunks(len(below), rows.itemsize * rows.shape[1]))

    @cached_property
    def composes(self):
        """The composition law, decided on `presum_rows`: f_(i|k)(x) <=
        f_(i|j)(f_(j|k)(x)) for every i iff row(j, f_(j|k)(x)) is a subset of
        row(k, x). One gather of the pre-sum rows per view j."""
        off, g = self.stacked
        rows = self.presum_rows
        for c in _chunks(len(rows), rows.itemsize * rows.shape[1]):
            outside = ~rows[c]
            if any((rows[start + t[c]] & outside).any() for start, t in zip(off, g)):
                return False
        return True

    def pair(self, a):
        """(view, element id) of pair a in the `stacked` numbering."""
        off = self.off
        k = int(np.searchsorted(off, a, "right")) - 1
        return self.views[k], self.posets[k].elements[a - off[k]]


def make_rs(views, posets, tables):
    """Assemble a RepresentationSystem from a {(i, j): table} mapping, each
    table the view-i index of every element of view j. Absent identity tables
    are materialized; any other absent table, or one of the wrong length, is
    recorded as a hole, and its block of g holds -1."""
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
    g = np.fromiter(chain.from_iterable(blocks), np.intp, len(views) * pairs)
    return RepresentationSystem(views, posets, g.reshape(len(views), pairs), holes)


def apply_transform(rs, i, j, x):
    """Translate element id x of view j into view i; returns an element id."""
    src = rs.poset_of(j)
    dst = rs.poset_of(i)
    return dst.elements[rs.transform(i, j)[src.idx(x)]]


def _within_views(rs, mats):
    """Pair indices (a, b) of the set entries of mats[k], one n_k x n_k
    boolean matrix per view, in view and then row-major order: the order of
    a scan over k, x, y."""
    off = rs.off
    return np.concatenate([np.argwhere(m) + off[k] for k, m in enumerate(mats)] + [np.empty((0, 2), np.intp)])


def check_rs_axioms(rs):
    """Exhaustive check of the three transformation-table laws.

    Identity is read off the `stacked` tables. Monotony and composition are
    decided on the packed pre-sum rows (`RepresentationSystem.monotone`,
    `composes`), with no dense pair x pair matrix. Only when one fails does
    its scan run, one gather per target view i, to name the first failure of
    a scan over i, j, (k,) x, (y). Witnesses carry view and element ids in a
    fixed order so a failure can be re-verified by direct formula evaluation.
    """
    try:
        off, g = rs.stacked
    except ValidationError as e:
        return Verdict(False, e.code, e.witness)
    for i, p, t, start in zip(rs.views, rs.posets, g, off):
        bad = np.flatnonzero(t[start:start + p.n] != np.arange(p.n))
        if bad.size:
            return Verdict(False, "identity", (i, p.elements[bad[0]]))
    if not rs.monotone:
        below = _within_views(rs, [p.leq for p in rs.posets])
        for i, dst, t in zip(rs.views, rs.posets, g):
            bad = np.flatnonzero(~dst.leq[t[below[:, 0]], t[below[:, 1]]])
            if bad.size:
                (j, x), (_, y) = map(rs.pair, below[bad[0]])
                return Verdict(False, "monotony", (i, j, x, y))
    if not rs.composes:
        for i, dst, t in zip(rs.views, rs.posets, g):
            routed = t[off[:-1, None] + g]  # routed[j, a] = f_(i|j)(f_(j|k)(x)) for a = (k, x)
            bad = np.argwhere(~dst.leq[t, routed])
            if len(bad):
                j, a = bad[0]
                return Verdict(False, "composition", (i, rs.views[j]) + rs.pair(a))
    return OK


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


def _joins_preserved(rs, tables):
    """Join preservation on `presum_rows`, given each view's join table:
    row(j, x v y) == row(j, x) & row(j, y) for the index pairs x < y of
    every view j. Both sides are symmetric in x and y and agree at x = y,
    so half the pairs decide it."""
    off, rows = rs.off, rs.presum_rows
    x, y, xy = [], [], []
    upper = {}  # the index pairs x < y, once per view size
    for start, jn in zip(off, tables):
        if len(jn) not in upper:
            upper[len(jn)] = np.triu_indices(len(jn), 1)
        u, v = upper[len(jn)]
        x.append(start + u)
        y.append(start + v)
        xy.append(start + jn[u, v])
    x, y, xy = (np.concatenate(a + [np.empty(0, np.intp)]) for a in (x, y, xy))
    return all(np.array_equal(rows[xy[c]], rows[x[c]] & rows[y[c]]) for c in _chunks(len(x), rows.itemsize * rows.shape[1]))


def _adjoint(rs, orthos):
    """The ortho-adjunction on `presum_rows`: for a = (k, x) and b = (j, y),
    rel[a, b] is f_(j|k)(x) <= y and rel[c(b), c(a)], with c(k, x) =
    (k, x'), is f_(k|j)(y') <= x', so the law is rel[a, b] => rel[c(b),
    c(a)] for every a, b. The rows of view k are checked against
    leq_k[f_(k|j)(y'), x'], one n_k x pairs gather per view."""
    off, g = rs.stacked
    rows = rs.presum_rows
    n = int(off[-1])
    comp = np.concatenate([start + np.asarray(o.ortho, dtype=np.intp) for start, o in zip(off, orthos)] + [np.empty(0, np.intp)])
    for start, stop, p, o, t in zip(off, off[1:], rs.posets, orthos, g):
        back = p.leq[t[comp]][:, o.ortho].T  # back[x, b] = rel[c(b), (k, x')]
        rel = np.unpackbits(rows[start:stop].view(np.uint8), axis=1, count=n, bitorder="little").view(bool)
        if (rel & ~back).any():
            return False
    return True


def check_boolean_rs_axioms(rs, orthos):
    """Booleanness of every view, join preservation, and the adjunction
    f_(i|j)(x) <= y  =>  f_(j|i)(y') <= x', all checked exhaustively.

    The views of one size are decided boolean as one stack
    (`ortho.stack_boolean`), which also builds their join tables; a view
    failing there is checked on its own, to name the failure.
    Where every ortho's order is its view's, both laws are decided on the
    packed pre-sum rows. Restricted to view i's block, row(j, x v y) is the
    up-set of f_(i|j)(x v y) and, view i being a lattice, row(j, x) &
    row(j, y) is that of f_(i|j)(x) v f_(i|j)(y); so join preservation holds
    iff the two rows are equal for all x, y of every view j
    (`_joins_preserved`). The adjunction is rel[a, b] => rel[c(b), c(a)]
    with c(k, x) = (k, x') (`_adjoint`).
    Only when a row test fails, or an ortho is over another order, does the
    scan below run, one gather per target view i, deciding and naming the
    first failure of a scan over i, j, x, y on the orthos' orders.
    """
    stack_boolean(orthos)
    for v, o in zip(rs.views, orthos):
        b = is_boolean_algebra(o)
        if not b:
            return Verdict(False, "view-not-boolean", (v, b.code) + b.witness)
    off, g = rs.stacked
    own = all(o.poset is p or np.array_equal(o.poset.leq, p.leq) for p, o in zip(rs.posets, orthos))
    tables = [o.poset.tables()[0] for o in orthos]
    if not (own and _joins_preserved(rs, tables)):
        pairs = _within_views(rs, [np.ones(jn.shape, bool) for jn in tables])
        joined = np.concatenate([jn.ravel() + off[k] for k, jn in enumerate(tables)] + [np.empty(0, np.intp)])
        for i, oi, t, jn in zip(rs.views, orthos, g, tables):
            bad = np.flatnonzero(t[joined] != jn[t[pairs[:, 0]], t[pairs[:, 1]]])
            if bad.size:
                (j, x), (_, y) = map(rs.pair, pairs[bad[0]])
                return Verdict(False, "join-preservation", (i, j, x, y))
    if own and _adjoint(rs, orthos):
        return OK
    # the source orders as one flat array: leq_k[u, v] = flat[base[k] + u * n_k + v]
    sizes = np.diff(off)
    flat = np.concatenate([o.poset.leq.ravel() for o in orthos] + [np.empty(0, bool)])
    base = np.concatenate(([0], np.cumsum(sizes * sizes)))[:-1]
    owner = np.repeat(np.arange(len(rs.views)), sizes)
    comp = np.concatenate([np.array(o.ortho, dtype=np.intp) for o in orthos] + [np.empty(0, np.intp)])
    row = base[owner] + comp  # row[a] + u * n_k addresses leq_k[u, x'] for a = (k, x)
    for vi, (i, oi, t) in enumerate(zip(rs.views, orthos, g)):
        back = g[owner[:, None], off[vi] + np.array(oi.ortho)]  # back[a, y] = f_(k|i)(y') for a = (k, x)
        bad = np.argwhere(oi.poset.leq[t] & ~flat[row[:, None] + back * sizes[owner][:, None]])
        if len(bad):
            a, y = bad[0]
            return Verdict(False, "ortho-adjunction", (i,) + rs.pair(a) + (oi.elements[y],))
    return OK


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
