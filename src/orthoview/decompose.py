"""Decomposing a bounded orthoposet into its boolean subalgebras."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poset import InternalCheckError, ValidationError, poset_stack, size_groups
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
    """Validate a carrier set and package it as a BooleanSubalgebra: the
    one-carrier case of `_check_carriers`, raising the first law it breaks.

    An index outside 0..n-1 raises unknown-element before any law is read.
    Once the carrier holds the bounds, its complements and the host joins
    and meets of its pairs, its induced order is an ortholattice whose joins
    and meets are the host's, so distributivity and 2^|atoms| elements, read
    from the host tables restricted to it, decide whether it is boolean; a
    non-distributive carrier is named by its first failing triple."""
    carrier = tuple(sorted(set(int(i) for i in carrier)))
    (sub,) = _check_carriers(o, [carrier], name=True)
    if isinstance(sub, ValidationError):
        raise sub
    return sub


def _check_carriers(o, carriers, name=False):
    """`subalgebra`'s laws, in its order, decided for every carrier (a
    sorted tuple of distinct indices), those of one size s as one stack: an
    (m, s, s) gather of the host join, meet and order tables, renumbered to
    carrier positions for the Foulis-Holland test (see
    `is_boolean_algebra`). Returns per carrier its BooleanSubalgebra or, if
    it breaks a law, None; with name, the ValidationError of its first
    broken law and that law's first witness in index order.

    Every law is read on every carrier of a stack, so those after a
    carrier's first broken law read values that are in range but
    meaningless; only the first broken law counts."""
    els, n = o.elements, o.n
    join, meet = o.poset.tables()
    ortho = np.array(o.ortho, dtype=np.intp)
    bounds = np.array([o.least, o.greatest], dtype=np.intp)
    out = [None] * len(carriers)
    for s, ks in size_groups([len(c) for c in carriers]).items():
        given = np.array([carriers[k] for k in ks], dtype=np.intp).reshape(len(ks), s)
        unknown = (given < 0) | (given >= n)
        c = np.where(unknown, 0, given)
        rows = np.arange(len(ks))[:, None]
        local = np.full((len(ks), n), -1, dtype=np.intp)  # local[k, x]: the position of x in carrier k, or -1
        local[rows, c] = np.arange(s)
        grid = (c[:, :, None], c[:, None, :])
        jn, mt = join[grid], meet[grid]
        ljn, lmt, lortho = local[rows[..., None], jn], local[rows[..., None], mt], local[rows, ortho[c]]
        missing = (jn < 0) | (mt < 0)
        atoms = o.poset.leq[grid].sum(axis=1) == 2  # only the bottom strictly below them in the carrier
        faults = {  # each law's failures on every carrier of the stack
            "unknown-element": unknown,
            "missing-bounds": local[:, bounds] < 0,
            "not-ortho-closed": lortho < 0,
            "not-closed": missing | (ljn < 0) | (lmt < 0),  # join-meet-missing where missing
            "not-boolean": ~_foulis_holland(ljn, lmt, lortho),
            "bad-cardinality": 2.0 ** atoms.sum(axis=1) != s,
        }
        laws = list(faults)
        broken = np.stack([f.reshape(len(ks), -1).any(axis=1) for f in faults.values()], axis=1)
        first = np.where(broken.any(axis=1), broken.argmax(axis=1), -1).tolist()

        def error(j, law):
            if law == "not-boolean":
                witness = tuple(els[x] for x in c[j, list(distributivity_failure(ljn[j], lmt[j]))])
                return ValidationError(law, "induced order is not boolean: not-distributive", witness)
            if law == "bad-cardinality":
                return ValidationError(law, f"|carrier|={s} != 2^{int(atoms[j].sum())}")
            at = tuple(np.argwhere(faults[law][j])[0].tolist())
            if law == "unknown-element":
                i = int(given[j, at[0]])
                return ValidationError(law, f"no element at index {i}", (i,))
            if law == "missing-bounds":
                b = els[bounds[at[0]]]
                return ValidationError(law, f"carrier lacks bound {b!r}", (b,))
            ids = [els[x] for x in c[j, at]]
            if law == "not-ortho-closed":
                return ValidationError(law, f"complement of {ids[0]!r} missing", ids)
            if missing[(j, *at)]:
                return ValidationError("join-meet-missing", f"{ids[0]!r}, {ids[1]!r} lack a host join or meet", ids)
            return ValidationError(law, f"join/meet of {ids[0]!r}, {ids[1]!r} leaves the carrier", ids)

        for j, (k, law) in enumerate(zip(ks, first)):
            if law < 0:
                out[k] = BooleanSubalgebra(carriers[k], tuple(c[j, atoms[j]].tolist()))
            elif name:
                out[k] = error(j, laws[law])
    return out


def _close(o, seed):
    """Closure of a set under complement and existing joins/meets, or None
    when some pair has no host join/meet (no subalgebra can contain it).
    Each round gathers the host tables over the whole current carrier."""
    join, meet = o.poset.tables()
    ortho = np.array(o.ortho)
    cur = np.zeros(o.n, dtype=bool)
    cur[[o.least, o.greatest, *seed]] = True
    while True:
        idx = np.flatnonzero(cur)
        jn, mt = join[idx[:, None], idx], meet[idx[:, None], idx]
        if min(jn.min(), mt.min()) < 0:
            return None
        nxt = cur.copy()
        nxt[ortho[idx]] = True
        nxt[jn] = True
        nxt[mt] = True
        if (nxt == cur).all():
            return frozenset(idx.tolist())
        cur = nxt


def _complements_are_joins(join, ortho, least, atoms):
    """Whether each atom's complement is the host join of the others: the
    join of its prefix and suffix joins. A missing join fails."""
    pre = [least]
    for a in atoms[:-1]:
        pre.append(join[pre[-1], a])
    suf = least
    for p, a in zip(reversed(pre), reversed(atoms)):
        if suf < 0 or join[p, suf] != ortho[a]:
            return False
        suf = join[a, suf]
    return True


def enumerate_boolean_subalgebras(o, cap=32):
    """All boolean subalgebras, in (size, carrier) order.

    A depth-first search over atom sets in index order proposes them: a
    node (last atom, host join j so far, atoms) grows by each a > last,
    a != 0, with a <= j' (orthogonal to every atom chosen) and a host join
    with j. At j = 1, atoms that pass `_complements_are_joins` are closed
    by `_close`, one candidate at a time. The closures are then admitted
    together by `_check_carriers`, which decides `subalgebra`'s laws on one
    stack per carrier size and drops the failures unnamed.

    This is complete on any host. A subalgebra's sorted atoms are pairwise
    orthogonal and its joins are the host's, so every prefix join exists,
    the last is 1 and each complement is the join of the other atoms; their
    closure is the subalgebra, each element being a join of atoms. The
    atoms of a boolean closure are its candidate's, so none comes twice.
    """
    if o.n > cap:
        raise ValidationError("cap-exceeded", f"{o.n} elements exceeds the cap of {cap}")
    join, _ = o.poset.tables()
    ortho = np.array(o.ortho)
    below = np.ascontiguousarray(o.poset.leq.T)  # below[y, a]: a <= y
    closed, stack = [], [(-1, o.least, ())]
    while stack:
        last, cur, atoms = stack.pop()
        if cur != o.greatest:
            nxt = below[ortho[cur]] & (join[cur] >= 0)
            nxt[:last + 1] = nxt[o.least] = False
            stack.extend((a, int(join[cur, a]), atoms + (a,)) for a in np.flatnonzero(nxt)[::-1].tolist())
        elif _complements_are_joins(join, ortho, o.least, atoms) and (c := _close(o, atoms)) is not None:
            closed.append(tuple(sorted(c)))
    found = [sub for sub in _check_carriers(o, closed) if sub is not None]
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
    `enumerate_boolean_subalgebras(o)`, contains both elements."""
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
