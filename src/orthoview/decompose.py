"""Decomposing a bounded orthoposet into its boolean subalgebras."""

from __future__ import annotations

from dataclasses import dataclass

from .poset import InternalCheckError, ValidationError
from .ortho import OrthoPoset, is_boolean_algebra
from .repsys import BooleanRepresentationSystem, check_boolean_rs_axioms, make_rs, validate_rs
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
    """Validate a carrier set and package it as a BooleanSubalgebra."""
    carrier = tuple(sorted(set(int(i) for i in carrier)))
    els = o.elements
    for b in (o.least, o.greatest):
        if b not in carrier:
            raise ValidationError("missing-bounds", f"carrier lacks bound {els[b]!r}", (els[b],))
    for i in carrier:
        if o.ortho[i] not in carrier:
            raise ValidationError("not-ortho-closed", f"complement of {els[i]!r} missing", (els[i],))
    for i in carrier:
        for j in carrier:
            jn, mt = o.join(i, j), o.meet(i, j)
            if jn is None or mt is None:
                raise ValidationError("join-meet-missing", f"{els[i]!r}, {els[j]!r} lack a host join or meet", (els[i], els[j]))
            if jn not in carrier or mt not in carrier:
                raise ValidationError("not-closed", f"join/meet of {els[i]!r}, {els[j]!r} leaves the carrier", (els[i], els[j]))
    induced = o.poset.induced(carrier)
    pos = {host: k for k, host in enumerate(carrier)}
    sub_ortho = OrthoPoset(induced, [pos[o.ortho[i]] for i in carrier])
    b = is_boolean_algebra(sub_ortho)
    if not b:
        raise ValidationError("not-boolean", f"induced order is not boolean: {b.code}", b.witness)
    atoms = tuple(
        i for i in carrier
        if i != o.least and all(not o.poset.leq[j, i] for j in carrier if j not in (i, o.least))
    )
    if len(carrier) != 2 ** len(atoms):
        raise ValidationError("bad-cardinality", f"|carrier|={len(carrier)} != 2^{len(atoms)}")
    return BooleanSubalgebra(carrier, atoms)


def _close(o, seed):
    """Closure of a set under complement and existing joins/meets, or None
    when some pair has no host join/meet (no subalgebra can contain it)."""
    cur = set(seed)
    cur.add(o.least)
    cur.add(o.greatest)
    while True:
        nxt = set(cur)
        for i in cur:
            nxt.add(o.ortho[i])
        for i in cur:
            for j in cur:
                jn, mt = o.join(i, j), o.meet(i, j)
                if jn is None or mt is None:
                    return None
                nxt.add(jn)
                nxt.add(mt)
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def enumerate_boolean_subalgebras(o, cap=32):
    """All boolean subalgebras, in (size, carrier) order.

    Seeds {0,1} and {0,x,x',1} are closed and then merged pairwise to a
    fixpoint; every union-closure that stays boolean is kept. Any subalgebra
    is reachable this way because it is the closure of its atom seeds and
    every intermediate union-closure is itself a subalgebra.
    """
    if o.n > cap:
        raise ValidationError("cap-exceeded", f"{o.n} elements exceeds the cap of {cap}")

    def admit(carrier):
        if carrier is None:
            return None
        try:
            subalgebra(o, carrier)
        except ValidationError:
            return None
        return carrier

    found = set()
    for x in range(o.n):
        c = admit(_close(o, {x}))
        if c is not None:
            found.add(c)
    changed = True
    while changed:
        changed = False
        pairs = [(a, b) for a in found for b in found if a != b]
        for a, b in pairs:
            c = admit(_close(o, a | b))
            if c is not None and c not in found:
                found.add(c)
                changed = True
    ordered = sorted(found, key=lambda c: (len(c), tuple(sorted(c))))
    return tuple(subalgebra(o, c) for c in ordered)


def upper_projection(o, sub, x):
    """Least element of the subalgebra dominating x.

    Folds host meets over every carrier element above x, mirroring the
    big-meet definition; the result is checked to dominate x and to be
    least among the candidates.
    """
    above = [y for y in sub.carrier if o.poset.leq[x, y]]
    acc = o.greatest
    for y in above:
        acc = o.meet(acc, y)
        if acc is None or acc not in sub.carrier:
            break
    else:
        if o.poset.leq[x, acc] and all(o.poset.leq[acc, y] for y in above):
            return acc
    raise InternalCheckError("bad-projection", f"no least carrier element above {o.elements[x]!r}", (o.elements[x],))


def build_canonical_rs(o, cap=32, subs=None):
    """The decomposition system of a bounded orthoposet.

    One view per boolean subalgebra (named B0, B1, ... in enumeration
    order), the induced order as the view poset, and the upper projection
    restricted to the source carrier as every transformation table. The
    result is validated against both axiom batteries before it is returned;
    a failure would disprove the construction and surfaces as an error.
    """
    if subs is None:
        subs = enumerate_boolean_subalgebras(o, cap=cap)
    views = tuple(f"B{k}" for k in range(len(subs)))
    posets = []
    orthos = []
    for sub in subs:
        induced = o.poset.induced(sub.carrier)
        pos = {host: k for k, host in enumerate(sub.carrier)}
        posets.append(induced)
        orthos.append(OrthoPoset(induced, [pos[o.ortho[i]] for i in sub.carrier]))
    transforms = {}
    for vi, bi in zip(views, subs):
        pos_i = {host: k for k, host in enumerate(bi.carrier)}
        for vj, bj in zip(views, subs):
            transforms[(vi, vj)] = tuple(pos_i[upper_projection(o, bi, x)] for x in bj.carrier)
    rs = make_rs(views, posets, transforms, fill_identity=False)
    validate_rs(rs)
    v = check_boolean_rs_axioms(rs, tuple(orthos))
    if not v:
        raise ValidationError(v.code, f"canonical system failed validation: {v.code}", v.witness)
    return BooleanRepresentationSystem(rs, tuple(orthos))


def compatible(o, x, y, subs=None):
    """True iff some boolean subalgebra contains both elements."""
    if subs is None:
        subs = enumerate_boolean_subalgebras(o)
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

    mapping = []
    for c, members in enumerate(s.classes):
        carried = {x for _, x in members}
        if len(carried) != 1:
            return RoundtripResult(False, "well-defined", (s.label(c),) + tuple(sorted(carried)))
        mapping.append((s.label(c), carried.pop()))
    targets = [x for _, x in mapping]
    if sorted(targets) != sorted(els):
        return RoundtripResult(False, "bijective", tuple(sorted(set(els) ^ set(targets))))
    t = [o.idx(x) for x in targets]
    for a in range(s.order.n):
        for b in range(s.order.n):
            if bool(s.order.leq[a, b]) != bool(o.poset.leq[t[a], t[b]]):
                return RoundtripResult(False, "order", (s.label(a), s.label(b)))
    for a in range(s.order.n):
        if t[sum_ortho.ortho[a]] != o.ortho[t[a]]:
            return RoundtripResult(False, "ortho", (s.label(a),))
    return RoundtripResult(True, isomorphism=tuple(mapping))
