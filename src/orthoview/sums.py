"""Merging all views into one poset: pre-sum, quotient sum, view closures."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps

import numpy as np

from .poset import OK, FinitePoset, InternalCheckError, ValidationError, Verdict
from .ortho import OrthoPoset, _cached
from .repsys import _above


@dataclass(frozen=True, eq=False)
class PreSum:
    """Tagged union of all view elements under the translated order:
    (i, x) <= (j, y) iff the view-j translation of x sits below y.
    The relation is a preorder, not a partial order: distinct pairs may be
    mutually comparable. Pair a's row of it is above[cid[a]], with cid the
    system's `cid` and above an R x P array (`repsys._above`), both read-only."""

    pairs: tuple
    cid: np.ndarray
    above: np.ndarray

    @property
    def rel(self):
        """The dense P x P relation matrix, built on each read."""
        return self.above[self.cid]


def build_presum(rs):
    """Materialize the tagged pairs and their factored relation. Pairs are
    in the `stacked` order of the system's tables.

    The relation must be a preorder; a failure here means an invalid system
    slipped past validation. Reflexivity is read off the diagonal.
    Monotony and composition imply transitivity: if (k, x) <= (j, y) <=
    (i, z), then f_(i|k)(x) <= f_(i|j)(f_(j|k)(x)) <= f_(i|j)(y) <= z. So
    when the system's verdicts `monotony` and `composition` both hold, the
    relation is transitive; otherwise it is checked on the columns, which
    decides and names the first intransitive (a, b).
    """
    rs.stacked  # raises for a missing or bad table
    G, cid = rs.G, rs.cid
    pairs = tuple((v, e) for v, p in zip(rs.views, rs.posets) for e in p.elements)
    above = _above(rs.posets, G)
    reflexive = above[cid, np.arange(len(cid))]
    if not reflexive.all():
        raise InternalCheckError("preorder", "pre-sum relation is not reflexive", pairs[reflexive.argmin()])
    if not (rs.monotony and rs.composition):
        # reach[r, s]: some pair of column s lies in row r, so row cid[a] of
        # extra is row a of (rel @ rel) & ~rel, read at its first entry
        reach = np.zeros((len(above), len(above)), dtype=bool)
        np.logical_or.at(reach.T, cid, above.T)
        extra = (reach @ above) & ~above
        bad = extra.any(axis=1)[cid]
        if bad.any():
            a = int(bad.argmax())
            raise InternalCheckError("preorder", "pre-sum relation is not transitive", pairs[a] + pairs[extra[cid[a]].argmax()])
    above.flags.writeable = False
    return PreSum(pairs, cid, above)


def _label(pair):
    return f"{pair[0]}/{pair[1]}"


@dataclass(frozen=True, eq=False)
class SumPoset:
    """Quotient of the pre-sum by mutual comparability.

    Pairs (view k, element x) are numbered a = off[k] + x, as in
    `RepresentationSystem.stacked` (the pre-sum order): pairs[a] is pair a
    as (view, element id) and klass[a], a read-only index array, its class.
    order is the induced poset on the classes, each labelled by and
    ordered as its first member. _cache holds what `_per_system` computes.
    """

    pairs: tuple
    klass: np.ndarray
    order: FinitePoset
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def _pair_index(self):
        return {pair: a for a, pair in enumerate(self.pairs)}

    def class_of(self, view, element):
        """The class of pair (view, element); unknown-view for a view no
        pair has, else unknown-element for an element the view lacks."""
        a = self._pair_index.get((view, element))
        if a is not None:
            return int(self.klass[a])
        if all(v != view for v, _ in self.pairs):
            raise ValidationError("unknown-view", f"no view {view!r}", (view,))
        raise ValidationError("unknown-element", f"no element {element!r} in view {view!r}", (view, element))

    def label(self, c):
        """The name of class c; unknown-element outside 0..n-1."""
        self.order._check_index(c)
        return self.order.elements[c]


def _per_system(fn):
    """fn(s, rs) for a sum s and a system rs, computed on the first call and
    kept on the sum under (fn's name, rs). Systems hash by identity, so each
    system paired with s gets its own entries."""
    return wraps(fn)(lambda s, rs: _cached(s, (fn.__name__, rs), lambda: fn(s, rs)))


def quotient_sum(ps):
    """Group mutually comparable pairs and order the classes, each class
    named after and ordered by its first member. In a preorder, pairs are
    mutually comparable iff their rows are equal, so iff their columns are:
    up-sets in a poset are equal only for equal elements."""
    first = np.unique(ps.cid, return_index=True)[1][ps.cid]
    reps, klass = np.unique(first, return_inverse=True)
    klass.flags.writeable = False
    order = FinitePoset([_label(ps.pairs[r]) for r in reps], ps.above[ps.cid[reps]][:, reps])
    return SumPoset(ps.pairs, klass, order)


def _ill_defined_closure(s, view, c):
    return InternalCheckError(
        "ill-defined-closure",
        f"closure of class {s.label(c)!r} under view {view!r} depends on the representative",
        (view, s.label(c)),
    )


def view_closure(s, rs, view, c):
    """Best approximation of class c visible from the given view.

    The view's image of every member of the class is taken and asserted
    to land in one class; a disagreement means the system was invalid.
    A class c outside 0..n-1 raises unknown-element first."""
    s.order._check_index(c)
    vi = rs.view_index(view)
    off = rs.stacked
    results = np.unique(s.klass[off[vi] + rs.G[vi, rs.cid[s.klass == c]]])
    if len(results) != 1:
        raise _ill_defined_closure(s, view, c)
    return int(results[0])


@_per_system
def closure_table(s, rs):
    """view_closure for every (view, class), as a read-only views x classes array.

    One gather of the class of the view-i image of each of the K distinct
    (class, column) of the pairs (K = R for the system's own sum), compared
    across each class; the first ill-defined (view, class) in row-major order raises."""
    off, R = rs.stacked, rs.G.shape[1]
    klass, col = np.divmod(np.unique(s.klass * R + rs.cid, return_inverse=True)[0], R)
    images = s.klass[off[:-1, None] + rs.G[:, col]]
    table = np.empty((len(rs.views), s.order.n), dtype=np.intp)
    table[:, klass] = images
    i, k = np.nonzero(images != table[:, klass])
    if len(i):
        i, c = min(zip(i.tolist(), klass[k].tolist()))
        raise _ill_defined_closure(s, rs.views[i], c)
    table.flags.writeable = False
    return table


def verify_closure_properties(s, rs):
    """Every view closure must be inflationary, idempotent and order-preserving;
    per view, the first class failing either of the first two, then the
    first pair failing monotony."""
    n = s.order.n
    leq = s.order.leq
    rho = closure_table(s, rs)
    extension = ~leq[np.arange(n), rho]
    idempotence = np.take_along_axis(rho, rho, axis=1) != rho
    for v, r, ext, idem in zip(rs.views, rho, extension, idempotence):
        bad = np.flatnonzero(ext | idem)
        if bad.size:
            c = bad[0]
            return Verdict(False, "extension" if ext[c] else "idempotence", (v, s.label(c)))
        bad = np.argwhere(leq & ~leq[np.ix_(r, r)])
        if len(bad):
            c, d = bad[0]
            return Verdict(False, "monotony", (v, s.label(c), s.label(d)))
    return OK


def sum_as_orthoposet(s, brs):
    """Carry the per-view complements and bounds over to the sum classes.

    The class map (k, x) -> (k, x') must not depend on the representative,
    and the bottom/top classes must not depend on the view; both facts are
    asserted exhaustively, the first class failing the first, before the
    result is validated as an orthoposet. A system without views has an
    empty sum, which that validation refuses as `not-bounded`.
    `ill-defined-bounds` fires only for a hand-built sum: (i, 1_i) <=
    (j, 1_j) always puts the tops in one class, whose complements are the
    bottoms, so bottoms in two classes fail `ill-defined-ortho` there first.
    """
    off = brs.rs.stacked[:-1]
    klass = s.klass
    comp = np.concatenate([np.asarray(o.ortho) + k for k, o in zip(off, brs.orthos)] + [np.empty(0, np.intp)])
    images = klass[comp]
    ortho = np.empty(s.order.n, dtype=np.intp)
    ortho[klass] = images
    bad = klass[images != ortho[klass]]
    if bad.size:
        c = int(bad.min())
        raise InternalCheckError(
            "ill-defined-ortho",
            f"complement of class {s.label(c)!r} depends on the representative",
            (s.label(c),),
        )
    ends = klass[off[:, None] + np.array([(o.least, o.greatest) for o in brs.orthos], np.intp).reshape(-1, 2)]
    if len(ends) and (ends != ends[0]).any():
        raise InternalCheckError("ill-defined-bounds", "sum bounds depend on the view", ())
    return OrthoPoset(s.order, ortho)
