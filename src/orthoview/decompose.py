"""Decomposing a bounded orthoposet into its boolean subalgebras."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .poset import InternalCheckError, ValidationError, _as_index, poset_stack, size_groups
from .ortho import _foulis_holland, distributivity_failure, ortho_stack
from .repsys import BooleanRepresentationSystem, RepresentationSystem, check_boolean_rs_axioms, validate_rs
from .sums import build_presum, quotient_sum, sum_as_orthoposet


@dataclass(frozen=True)
class BooleanSubalgebra:
    """A subset of a host orthoposet that forms a boolean algebra.

    The carrier holds host element indices, sorted; it contains the host
    bounds, is closed under the host complement, every pair has host join
    and meet inside the carrier, and the induced order is boolean with
    exactly 2^len(atoms) elements. In a finite host every such subalgebra
    is automatically complete.
    """

    carrier: tuple
    atoms: tuple

    def __contains__(self, i):
        return i in self.carrier

    @property
    def size(self):
        return len(self.carrier)


def subalgebra(o, carrier):
    """Validate a carrier set and package it as a BooleanSubalgebra, raising
    the first law it breaks: unknown-element, naming the given value (one
    that `poset._as_index` reads as no index in 0..n-1), missing-bounds,
    not-ortho-closed, join-meet-missing or not-closed (the first pair in
    carrier order), then not-boolean. A carrier that holds the bounds, its
    complements and the host joins and meets of its pairs is an
    ortholattice whose joins and meets are the host's, so Foulis-Holland
    on the host tables restricted to it decides whether it is boolean, and
    then it has 2^|atoms| elements; a non-boolean carrier is named by its
    first non-distributive triple."""
    els, n = o.elements, o.n
    given = [(_as_index(v), v) for v in carrier]
    unknown = [(i, v if i == -1 else i) for i, v in given if not 0 <= i < n]
    if unknown:
        v = min(unknown, key=lambda iv: iv[0])[1]  # the least index, a value that is none reading as -1
        raise ValidationError("unknown-element", f"no element at index {v}", (v,))
    c = np.array(sorted({i for i, _ in given}), dtype=np.intp)
    for b in (o.least, o.greatest):
        if b not in c:
            raise ValidationError("missing-bounds", f"carrier lacks bound {els[b]!r}", (els[b],))
    local = np.full(n, -1, dtype=np.intp)  # local[x]: the position of x in the carrier, or -1
    local[c] = np.arange(len(c))
    lortho = local[np.array(o.ortho, dtype=np.intp)[c]]
    if (lortho < 0).any():
        x = els[c[(lortho < 0).argmax()]]
        raise ValidationError("not-ortho-closed", f"complement of {x!r} missing", [x])
    jn, mt = (t[np.ix_(c, c)] for t in o.poset.tables())
    ljn, lmt, missing = local[jn], local[mt], (jn < 0) | (mt < 0)
    bad = missing | (ljn < 0) | (lmt < 0)
    if bad.any():
        at = tuple(np.argwhere(bad)[0].tolist())
        x, y = ids = [els[i] for i in c[list(at)]]
        if missing[at]:
            raise ValidationError("join-meet-missing", f"{x!r}, {y!r} lack a host join or meet", ids)
        raise ValidationError("not-closed", f"join/meet of {x!r}, {y!r} leaves the carrier", ids)
    if not _foulis_holland(ljn, lmt, lortho):
        witness = tuple(els[x] for x in c[list(distributivity_failure(ljn, lmt))])
        raise ValidationError("not-boolean", "induced order is not boolean: not-distributive", witness)
    atoms = o.poset.leq[np.ix_(c, c)].sum(axis=0) == 2  # only the bottom strictly below them in the carrier
    return BooleanSubalgebra(tuple(c.tolist()), tuple(c[atoms].tolist()))


def _atom_joins(join, ortho, least, atoms):
    """The host joins of every subset of atoms, read from the join table as
    nested lists and the complements as a list, c[X] the join of those in
    the bitmask X, as a sorted carrier; None at the first missing join or
    if the complement of some c[X] is not c[-1 - X], the join of the others.
    While every join exists they are distinct (an atom below the join of
    others is below its complement too), so c never outgrows 2n."""
    c = [least]
    for a in atoms:
        if min(j := list(map(join[a].__getitem__, c))) < 0:
            return None
        c += j
    return None if [ortho[x] for x in c] != c[::-1] else tuple(sorted(set(c)))


def enumerate_boolean_subalgebras(o, cap=32):
    """All boolean subalgebras, in (size, carrier) order.

    A depth-first search over atom sets in index order proposes them: a
    node (last atom, host join j so far, atoms) grows by each a > last in
    j's ascending list of candidates, the a != 0 with a <= j' (orthogonal to
    every atom chosen) and a host join with j. The lists and the join table
    are Python lists made before the search, so no numpy call runs inside
    it. At j = 1 the candidate is the host joins of the atoms' subsets,
    admitted with the search's atoms unless `_atom_joins` refuses it.

    The host must be an orthoposet that passed its laws, as every
    `OrthoPoset` did (`__init__` and `ortho_stack` check them). Then a
    candidate c is a boolean algebra of 2^|A| elements with atoms A:
    c[X] v c[Y] is c[X | Y], since an upper bound of both lies above every
    atom of X | Y and so above their iterated join; the meets are c[X & Y],
    by de Morgan through the complement check; and no two c[X] coincide,
    since an atom below the join of other atoms would lie below its own
    complement.

    The search is complete. A subalgebra's sorted atoms are pairwise
    orthogonal and its joins, meets and complement are the host's, so every
    prefix join exists, the last is 1, and the subalgebra is the joins of
    its atoms' subsets, each complemented by the join of the others; its
    atoms are its candidate's, so none comes twice.
    """
    if o.n > cap:
        raise ValidationError("cap-exceeded", f"{o.n} elements exceeds the cap of {cap}")
    join, ortho = o.poset.tables()[0], list(o.ortho)
    fit = o.poset.leq.T[ortho] & (join >= 0)  # fit[x, a]: a <= x' and x v a exists
    fit[:, o.least] = False
    ends, cands = [0, *fit.sum(axis=1).cumsum().tolist()], np.nonzero(fit)[1].tolist()
    rows, join = [cands[i:j] for i, j in zip(ends, ends[1:])], join.tolist()
    found, stack = [], [(-1, o.least, ())]
    while stack:
        last, cur, atoms = stack.pop()
        if cur != o.greatest:
            row, jc = rows[cur], join[cur]
            stack.extend((a, jc[a], atoms + (a,)) for a in reversed(row[bisect_right(row, last):]))
        elif (c := _atom_joins(join, ortho, o.least, atoms)) is not None:
            found.append(BooleanSubalgebra(c, atoms))
    return tuple(sorted(found, key=lambda s: (s.size, s.carrier)))


def _projections(o, carriers, xs):
    """proj[k, i]: the local position in carriers[k] of the least carrier
    element above host element xs[i], the carriers of one size read as one
    stack. A carrier element u above x is least iff the carrier elements
    above u are exactly those above x, which their counts decide. Where
    there is no such u, the first carrier, then its first element of xs,
    raises bad-projection."""
    leq = o.poset.leq
    xs = np.asarray(xs, dtype=np.intp)
    proj = np.zeros((len(carriers), len(xs)), dtype=np.intp)
    found = np.zeros(proj.shape, dtype=bool)
    for s, ks in size_groups([len(c) for c in carriers]).items():
        c = np.array([carriers[k] for k in ks], dtype=np.intp).reshape(len(ks), s)
        above = leq[xs[:, None], c[:, None, :]]  # above[k, i, u]: xs[i] <= u
        ups = leq[c[:, :, None], c[:, None, :]].sum(axis=-1)  # the carrier elements above each u
        least = above & (ups[:, None, :] == above.sum(axis=-1, keepdims=True))
        found[ks], proj[ks] = least.any(axis=-1), least.argmax(axis=-1)
    if not found.all():
        x = o.elements[xs[np.argwhere(~found)[0][1]]]
        raise InternalCheckError("bad-projection", f"no least carrier element above {x!r}", (x,))
    return proj


def upper_projection(o, sub, x):
    """Least element of the subalgebra dominating x, checked to dominate x
    and to lie below every carrier element that does. An index x outside
    0..n-1 raises unknown-element first."""
    o.poset._check_index(x)
    return sub.carrier[int(_projections(o, [sub.carrier], [x])[0, 0])]


def _views(o, subs):
    """(posets, orthoposets) induced on the carriers of subs, those of one
    size built as one stack (`poset_stack`, `ortho_stack`): the host order
    and complement, gathered on the carriers and renumbered to carrier
    positions."""
    els = np.array(o.elements, dtype=object)
    posets, orthos = [None] * len(subs), [None] * len(subs)
    for n, ks in size_groups([sub.size for sub in subs]).items():
        carriers = np.array([subs[k].carrier for k in ks], dtype=np.intp)
        rows = np.arange(len(ks))[:, None]
        local = np.zeros((len(ks), o.n), dtype=np.intp)  # local[k, x]: the position of x in carrier k
        local[rows, carriers] = np.arange(n)
        comp = local[rows, np.array(o.ortho, dtype=np.intp)[carriers]]
        ps = poset_stack([tuple(c) for c in els[carriers].tolist()], o.poset.leq[carriers[:, :, None], carriers[:, None, :]])
        for k, p, q in zip(ks, ps, ortho_stack(ps, comp)):
            posets[k], orthos[k] = p, q
    return posets, orthos


def build_canonical_rs(o, cap=32, subs=None):
    """The decomposition system of a bounded orthoposet.

    One view per boolean subalgebra (named B0, B1, ... in enumeration
    order), the induced order as the view poset, and the upper projection
    restricted to the source carrier as every transformation table, held
    as columns: pair (B, x) reads column x, every view's projection of host
    element x. The result is validated against both axiom
    batteries before it is returned; a failure would disprove the
    construction and surfaces as an error.
    """
    if subs is None:
        subs = enumerate_boolean_subalgebras(o, cap=cap)
    views = tuple(f"B{k}" for k in range(len(subs)))
    posets, orthos = _views(o, subs)
    proj = _projections(o, [sub.carrier for sub in subs], np.arange(o.n))
    carriers = np.concatenate([sub.carrier for sub in subs] + [np.empty(0, np.intp)])
    # the columns are distinct: x in carrier B projects to x there, so x
    # and y read alike in every view only if x <= y <= x
    used, cid = np.unique(carriers, return_inverse=True)
    rs = RepresentationSystem(views, tuple(posets), proj[:, used], cid, {})
    validate_rs(rs)
    v = check_boolean_rs_axioms(rs, tuple(orthos))
    if not v:
        raise ValidationError(v.code, f"canonical system failed validation: {v.code}", v.witness)
    return BooleanRepresentationSystem(rs, tuple(orthos))


def compatible(o, x, y, subs):
    """True iff some boolean subalgebra of o in subs, the result of
    `enumerate_boolean_subalgebras(o)`, contains both elements. An index
    outside 0..n-1 raises unknown-element first."""
    o.poset._check_index(x, y)
    return any(x in sub and y in sub for sub in subs)


@dataclass(frozen=True)
class RoundtripResult:
    """Outcome of rebuilding an orthoposet from its decomposition's sum."""

    ok: bool
    stage: str = ""
    witness: tuple = ()
    isomorphism: tuple = ()


def roundtrip_check(o, cap=32):
    """Decompose, sum, and match the sum back onto the host.

    The canonical map sends the class of (B, x) to x. Checked in stages:
    well-defined (all members of a class carry the same element), bijective,
    order-preserving in both directions, and complement-preserving.
    """
    subs = enumerate_boolean_subalgebras(o, cap=cap)
    brs = build_canonical_rs(o, cap=cap, subs=subs)
    s = quotient_sum(build_presum(brs.rs))
    sum_ortho = sum_as_orthoposet(s, brs)
    els = o.elements
    # carried[c, x]: some pair of class c carries host element x; pair a
    # carries the a-th entry of the carriers laid end to end
    carried = np.zeros((s.order.n, o.n), dtype=bool)
    carried[s.klass, np.concatenate([sub.carrier for sub in subs])] = True
    bad = np.flatnonzero(carried.sum(axis=1) != 1)
    if bad.size:
        witness = sorted(els[x] for x in np.flatnonzero(carried[bad[0]]))
        return RoundtripResult(False, "well-defined", (s.label(bad[0]), *witness))
    t = carried.argmax(axis=1)  # the host element of every class
    if not np.array_equal(np.sort(t), np.arange(o.n)):
        return RoundtripResult(False, "bijective", tuple(sorted(set(els) ^ {els[x] for x in t})))
    bad = np.argwhere(s.order.leq != o.poset.leq[np.ix_(t, t)])
    if len(bad):
        return RoundtripResult(False, "order", tuple(s.label(c) for c in bad[0]))
    bad = np.flatnonzero(t[np.array(sum_ortho.ortho)] != np.array(o.ortho)[t])
    if bad.size:
        return RoundtripResult(False, "ortho", (s.label(bad[0]),))
    return RoundtripResult(True, isomorphism=tuple(zip(s.order.elements, (els[x] for x in t))))
