"""Indexed families of view posets linked by transformation tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poset import OK, ValidationError, Verdict
from .ortho import is_boolean_algebra


@dataclass(frozen=True)
class RepresentationSystem:
    """Views, one poset per view, and a total element map for every ordered
    pair of views. transforms[(i, j)][x] is the index, in view i's poset, of
    the translation of element x of view j. Tables are fully materialized;
    any completion rule is applied before construction.
    """

    views: tuple
    posets: tuple
    transforms: dict

    def view_index(self, view):
        try:
            return self.views.index(view)
        except ValueError:
            raise ValidationError("unknown-view", f"no view {view!r}", (view,)) from None

    def poset_of(self, view):
        return self.posets[self.view_index(view)]

    def transform(self, i, j):
        """The table translating view j descriptions into view i."""
        self.view_index(i)
        self.view_index(j)
        try:
            return self.transforms[(i, j)]
        except KeyError:
            raise ValidationError("missing-transform", f"no table for ({i!r}, {j!r})", (i, j)) from None


def make_rs(views, posets, transforms, fill_identity=True):
    """Assemble a RepresentationSystem, materializing identity tables."""
    views = tuple(views)
    posets = tuple(posets)
    transforms = dict(transforms)
    if fill_identity:
        for v, p in zip(views, posets):
            transforms.setdefault((v, v), tuple(range(p.n)))
    return RepresentationSystem(views, posets, transforms)


def apply_transform(rs, i, j, x):
    """Translate element id x of view j into view i; returns an element id."""
    src = rs.poset_of(j)
    dst = rs.poset_of(i)
    return dst.elements[rs.transform(i, j)[src.idx(x)]]


def check_rs_axioms(rs):
    """Exhaustive check of the three transformation-table laws.

    Witnesses carry view and element ids in a fixed order so a failure can
    be re-verified by direct formula evaluation.
    """
    for i in rs.views:
        for j in rs.views:
            if (i, j) not in rs.transforms:
                return Verdict(False, "missing-transform", (i, j))
            table = rs.transforms[(i, j)]
            src, dst = rs.poset_of(j), rs.poset_of(i)
            if len(table) != src.n or any(not 0 <= t < dst.n for t in table):
                return Verdict(False, "bad-transform", (i, j))
    for i in rs.views:
        table = rs.transforms[(i, i)]
        p = rs.poset_of(i)
        for x in range(p.n):
            if table[x] != x:
                return Verdict(False, "identity", (i, p.elements[x]))
    for i in rs.views:
        for j in rs.views:
            table = rs.transforms[(i, j)]
            src, dst = rs.poset_of(j), rs.poset_of(i)
            for x in range(src.n):
                for y in range(src.n):
                    if src.leq[x, y] and not dst.leq[table[x], table[y]]:
                        return Verdict(False, "monotony", (i, j, src.elements[x], src.elements[y]))
    for i in rs.views:
        for j in rs.views:
            for k in rs.views:
                direct = rs.transforms[(i, k)]
                first = rs.transforms[(j, k)]
                second = rs.transforms[(i, j)]
                src, dst = rs.poset_of(k), rs.poset_of(i)
                for x in range(src.n):
                    if not dst.leq[direct[x], second[first[x]]]:
                        return Verdict(False, "composition", (i, j, k, src.elements[x]))
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


def check_boolean_rs_axioms(rs, orthos):
    """Booleanness of every view, join preservation, and the adjunction
    f_(i|j)(x) <= y  =>  f_(j|i)(y') <= x', all checked exhaustively."""
    for v, o in zip(rs.views, orthos):
        b = is_boolean_algebra(o)
        if not b:
            return Verdict(False, "view-not-boolean", (v, b.code) + b.witness)
    for i, oi in zip(rs.views, orthos):
        for j, oj in zip(rs.views, orthos):
            t = np.array(rs.transforms[(i, j)])
            bad = t[oj.poset.tables()[0]] != oi.poset.tables()[0][np.ix_(t, t)]
            if bad.any():
                x, y = (oj.elements[k] for k in np.argwhere(bad)[0])
                return Verdict(False, "join-preservation", (i, j, x, y))
    for i, oi in zip(rs.views, orthos):
        for j, oj in zip(rs.views, orthos):
            fwd = rs.transforms[(i, j)]
            back = rs.transforms[(j, i)]
            src, dst = oj, oi
            for x in range(src.n):
                for y in range(dst.n):
                    if dst.poset.leq[fwd[x], y] and not src.poset.leq[back[dst.ortho[y]], src.ortho[x]]:
                        return Verdict(False, "ortho-adjunction", (i, j, src.elements[x], dst.elements[y]))
    return OK


def validate_boolean_rs(rs, orthos):
    """Both axiom batteries, raising on the first violation."""
    validate_rs(rs)
    orthos = tuple(orthos)
    for view, p, o in zip(rs.views, rs.posets, orthos):
        if o.poset is not p and o.poset.elements != p.elements:
            raise ValidationError("ortho-poset-mismatch", f"the orthocomplement of view {view!r} is over another poset", (view,))
    v = check_boolean_rs_axioms(rs, orthos)
    if not v:
        raise ValidationError(v.code, f"boolean system axioms violated: {v.code}", v.witness)
    return BooleanRepresentationSystem(rs, orthos)
