"""Hand-built models and dumb oracles shared across the test suite.

Everything here is constructed directly from definitions (explicit order
rules, raw scans) so it can serve as an independent check on the library's
own algorithms.
"""

from typing import NamedTuple

import numpy as np

from orthoview import FinitePoset, OrthoPoset
from orthoview.modelio import MapSpec, ModelDocument, ParseError


# -- literal structures, built from order rules rather than cover closure ----


def boolean_algebra(k):
    """2^k as bitmask subsets: leq is inclusion, ortho is set complement."""
    n = 1 << k
    elements = [f"s{m:0{k}b}" for m in range(n)] if k else ["s"]
    leq = np.array([[(i | j) == j for j in range(n)] for i in range(n)], dtype=bool)
    ortho = [(n - 1) ^ i for i in range(n)]
    return elements, leq, ortho


def mo(k):
    """0 and 1 plus k incomparable complement pairs."""
    elements = ["0"] + [e for i in range(k) for e in (f"x{i}", f"x{i}'")] + ["1"]
    n = len(elements)
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    ortho = [n - 1] + [((i - 1) ^ 1) + 1 for i in range(1, n - 1)] + [0]
    return elements, leq, ortho


def double_chain(h):
    """0 < c1 < ... < ch < 1 next to the reversed chain of complements."""
    elements = ["0"] + [f"c{i}" for i in range(1, h + 1)] + [f"c{i}'" for i in range(1, h + 1)] + ["1"]
    n = len(elements)
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    for i in range(1, h + 1):
        for j in range(i, h + 1):
            leq[i, j] = True          # c_i <= c_j
            leq[h + j, h + i] = True  # c_j' <= c_i'
    ortho = [n - 1] + [h + i for i in range(1, h + 1)] + [i for i in range(1, h + 1)] + [0]
    return elements, leq, ortho


def greechie_pasting(blocks):
    """Paste three-atom boolean blocks: 0 < atoms < coatoms < 1, an atom
    sitting under a coatom iff the two atoms share a block."""
    atoms = sorted({a for b in blocks for a in b})
    elements = ["0"] + atoms + [a + "'" for a in atoms] + ["1"]
    n = len(elements)
    k = len(atoms)
    pos = {a: 1 + i for i, a in enumerate(atoms)}
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    for block in blocks:
        for x in block:
            for y in block:
                if x != y:
                    leq[pos[x], k + pos[y]] = True
    ortho = [n - 1] + [k + pos[a] for a in atoms] + [pos[a] for a in atoms] + [0]
    return elements, leq, ortho


def greechie_cycle(m):
    return greechie_pasting([(f"a{i}", f"b{i}", f"a{(i + 1) % m}") for i in range(m)])


def greechie_chain(m):
    return greechie_pasting([(f"a{i}", f"b{i}", f"a{i + 1}") for i in range(m)])


def product(model1, model2):
    els1, leq1, ortho1 = model1
    els2, leq2, ortho2 = model2
    elements = [f"{a}.{b}" for a in els1 for b in els2]
    n1, n2 = len(els1), len(els2)
    leq = np.kron(leq1, leq2).astype(bool)
    ortho = [ortho1[i] * n2 + ortho2[j] for i in range(n1) for j in range(n2)]
    return elements, leq, ortho


def shuffled(model, rng):
    """The same structure with a random element permutation applied."""
    els, leq, ortho = model
    n = len(els)
    perm = list(range(n))
    rng.shuffle(perm)
    new_els = [None] * n
    new_leq = np.zeros((n, n), dtype=bool)
    new_ortho = [0] * n
    for i in range(n):
        new_els[perm[i]] = els[i]
        new_ortho[perm[i]] = perm[ortho[i]]
        for j in range(n):
            new_leq[perm[i], perm[j]] = leq[i, j]
    return new_els, new_leq, new_ortho


def as_orthoposet(model):
    els, leq, ortho = model
    return OrthoPoset(FinitePoset(els, leq), ortho)


_FAMILIES = (
    lambda: boolean_algebra(1),
    lambda: boolean_algebra(2),
    lambda: boolean_algebra(3),
    lambda: mo(2),
    lambda: mo(3),
    lambda: mo(4),
    lambda: mo(5),
    lambda: double_chain(2),
    lambda: double_chain(3),
    lambda: double_chain(4),
    lambda: double_chain(5),
    lambda: greechie_chain(2),
    lambda: product(boolean_algebra(1), mo(2)),
    lambda: product(boolean_algebra(1), double_chain(2)),
    lambda: product(boolean_algebra(1), boolean_algebra(2)),
)


def random_orthoposet(rng):
    """A random bounded orthoposet with at most 12 elements: a random
    family member under a random relabelling."""
    model = rng.choice(_FAMILIES)()
    return as_orthoposet(shuffled(model, rng))


# -- dumb oracles -------------------------------------------------------------


def oracle_join(leq, i, j):
    n = len(leq)
    ub = [u for u in range(n) if leq[i, u] and leq[j, u]]
    least = [u for u in ub if all(leq[u, v] for v in ub)]
    return least[0] if least else None


def oracle_meet(leq, i, j):
    n = len(leq)
    lb = [u for u in range(n) if leq[u, i] and leq[u, j]]
    greatest = [u for u in lb if all(leq[v, u] for v in lb)]
    return greatest[0] if greatest else None


def oracle_is_lattice(leq):
    n = len(leq)
    return all(
        oracle_join(leq, i, j) is not None and oracle_meet(leq, i, j) is not None
        for i in range(n)
        for j in range(n)
    )


def oracle_distributive(leq):
    n = len(leq)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                jn = oracle_join(leq, y, z)
                my, mz = oracle_meet(leq, x, y), oracle_meet(leq, x, z)
                if oracle_meet(leq, x, jn) != oracle_join(leq, my, mz):
                    return False
    return True


def oracle_is_omp(leq, ortho):
    n = len(leq)
    for x in range(n):
        for y in range(n):
            if leq[x, ortho[y]] and oracle_join(leq, x, y) is None:
                return False
    for x in range(n):
        for y in range(n):
            if not leq[x, y]:
                continue
            m = oracle_meet(leq, y, ortho[x])
            if m is None or oracle_join(leq, x, m) != y:
                return False
    return True


def table_array(rs):
    """The V x P array of a system's tables, G[:, cid]: row i holds the
    view-i index of the translation of every pair, so its block of view j
    is the table f_(i|j)."""
    return rs.G[:, rs.cid]


def mutate_random_entry(rs, rng):
    """A copy of rs with one random transform entry rewired at random."""
    from orthoview import make_rs

    pair = rng.choice(sorted(rs.transforms))
    table = list(rs.transforms[pair])
    x = rng.randrange(len(table))
    table[x] = rng.randrange(rs.poset_of(pair[0]).n)
    transforms = dict(rs.transforms)
    transforms[pair] = tuple(table)
    return make_rs(rs.views, rs.posets, transforms)


def reverify_rs_witness(rs, verdict):
    """Check a transformation-law witness by direct formula evaluation."""
    code, w = verdict.code, verdict.witness
    if code == "identity":
        i, x = w
        p = rs.poset_of(i)
        return rs.transforms[(i, i)][p.idx(x)] != p.idx(x)
    if code == "monotony":
        i, j, x, y = w
        src, dst = rs.poset_of(j), rs.poset_of(i)
        t = rs.transforms[(i, j)]
        return src.le(src.idx(x), src.idx(y)) and not dst.le(t[src.idx(x)], t[src.idx(y)])
    if code == "composition":
        i, j, k, x = w
        src, dst = rs.poset_of(k), rs.poset_of(i)
        xi = src.idx(x)
        direct = rs.transforms[(i, k)][xi]
        routed = rs.transforms[(i, j)][rs.transforms[(j, k)][xi]]
        return not dst.le(direct, routed)
    return False


def brute_force_subalgebras(o):
    """Every carrier that passes the subalgebra laws, by filtering all
    element subsets. Only usable for small hosts."""
    n = o.n
    leq = o.poset.leq
    out = set()
    for mask in range(1 << n):
        sub = [i for i in range(n) if mask >> i & 1]
        inside = set(sub)
        if o.least not in inside or o.greatest not in inside:
            continue
        if any(o.ortho[i] not in inside for i in sub):
            continue
        ok = True
        for i in sub:
            for j in sub:
                jn, mt = oracle_join(leq, i, j), oracle_meet(leq, i, j)
                if jn is None or mt is None or jn not in inside or mt not in inside:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        induced = leq[np.ix_(sub, sub)]
        if not oracle_distributive(induced):
            continue
        out.add(frozenset(sub))
    return out


# -- reference scans ----------------------------------------------------------
# The library's law checks as plain loops over oracle join/meet tables, in
# the library's scan order. The array versions must report the same
# (ok, code, witness): the first failure in index order.


def reference_closure(rel):
    """Reflexive-transitive closure by repeated boolean squaring."""
    rel = rel | np.eye(len(rel), dtype=bool)
    while True:
        nxt = rel | (rel @ rel)
        if (nxt == rel).all():
            return nxt
        rel = nxt


def reference_least_bounds(leq):
    """t[i, j] = the least element above i and j, or -1. Row by row: each u
    in U = up(i) & up(j) has up(u) within U, with equality exactly when u is
    least in U."""
    up = leq.sum(axis=1)
    table = np.full(leq.shape, -1, dtype=np.intp)
    for i, row in enumerate(leq):
        common = row & leq
        least = common & (up == common.sum(axis=1, keepdims=True))
        found = least.any(axis=1)
        table[i, found] = least.argmax(axis=1)[found]
    table.flags.writeable = False
    return table


def _oracle_tables(leq):
    n = len(leq)
    join = [[oracle_join(leq, i, j) for j in range(n)] for i in range(n)]
    meet = [[oracle_meet(leq, i, j) for j in range(n)] for i in range(n)]
    return join, meet


def reference_is_lattice(leq, els):
    join, meet = _oracle_tables(leq)
    n = len(leq)
    for i in range(n):
        for j in range(i, n):
            if join[i][j] is None:
                return False, "no-join", (els[i], els[j])
            if meet[i][j] is None:
                return False, "no-meet", (els[i], els[j])
    return True, "", ()


def reference_distributivity(leq, els):
    """x ^ (y v z) = (x ^ y) v (x ^ z) over all triples of a lattice."""
    join, meet = _oracle_tables(leq)
    n = len(leq)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    return False, "not-distributive", (els[x], els[y], els[z])
    return True, "", ()


def reference_is_omp(leq, ortho, els):
    """Orthogonal joins exist, then x <= y forces y = x v (y ^ x')."""
    join, meet = _oracle_tables(leq)
    n = len(leq)
    for x in range(n):
        for y in range(n):
            if leq[x, ortho[y]] and join[x][y] is None:
                return False, "orthogonal-join-missing", (els[x], els[y])
    for x in range(n):
        for y in range(n):
            if not leq[x, y] or x == y:
                continue
            m = meet[y][ortho[x]]
            if m is None:
                return False, "law-meet-missing", (els[x], els[y])
            j = join[x][m]
            if j is None:
                return False, "law-join-missing", (els[x], els[y])
            if j != y:
                return False, "law-violation", (els[x], els[y])
    return True, "", ()


def reference_ortho_validation(leq, ortho, els):
    """The OrthoPoset constructor's checks on a complement map covering
    every element: bounds, involution, antitone, complement law."""
    n = len(leq)
    least = next((i for i in range(n) if leq[i].all()), None)
    greatest = next((i for i in range(n) if leq[:, i].all()), None)
    if least is None or greatest is None:
        return False, "not-bounded", ()
    for i in range(n):
        if ortho[ortho[i]] != i:
            return False, "not-involutive", (els[i],)
    for i in range(n):
        for j in range(n):
            if leq[i, j] and not leq[ortho[j], ortho[i]]:
                return False, "not-antitone", (els[i], els[j])
    for i in range(n):
        if oracle_meet(leq, i, ortho[i]) != least or oracle_join(leq, i, ortho[i]) != greatest:
            return False, "complement-law", (els[i],)
    return True, "", ()


def reference_boolean_rs_axioms(rs, orthos):
    """Join preservation, then the orthocomplement adjunction, as loops with
    oracle joins; every view must already be boolean."""
    for i, oi in zip(rs.views, orthos):
        for j, oj in zip(rs.views, orthos):
            t, src, dst = rs.transforms[(i, j)], oj.poset.leq, oi.poset.leq
            for x in range(len(src)):
                for y in range(len(src)):
                    if t[oracle_join(src, x, y)] != oracle_join(dst, t[x], t[y]):
                        return False, "join-preservation", (i, j, oj.elements[x], oj.elements[y])
    for i, oi in zip(rs.views, orthos):
        for j, oj in zip(rs.views, orthos):
            fwd, back = rs.transforms[(i, j)], rs.transforms[(j, i)]
            for x in range(oj.n):
                for y in range(oi.n):
                    if oi.poset.leq[fwd[x], y] and not oj.poset.leq[back[oi.ortho[y]], oj.ortho[x]]:
                        return False, "ortho-adjunction", (i, j, oj.elements[x], oi.elements[y])
    return True, "", ()


def reference_close(o, seed):
    """Closure of seed and the bounds under complement and host joins and
    meets, round by round; None once some pair has no join or meet."""
    cur = set(seed) | {o.least, o.greatest}
    while True:
        nxt = cur | {o.ortho[i] for i in cur}
        for i in cur:
            for j in cur:
                jn, mt = o.poset.join(i, j), o.poset.meet(i, j)
                if jn is None or mt is None:
                    return None
                nxt |= {jn, mt}
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def reference_boolean_carrier(o, carrier):
    """The seed's boolean check on a carrier closed under the bounds,
    complement and host joins and meets: distributivity of the induced
    order, then 2^|atoms| elements. Returns (ok, code, witness, atoms)."""
    carrier = sorted(carrier)
    leq = o.poset.leq[np.ix_(carrier, carrier)]
    ok, _, witness = reference_distributivity(leq, [o.elements[i] for i in carrier])
    if not ok:
        return False, "not-boolean", witness, ()
    atoms = tuple(i for k, i in enumerate(carrier) if sum(leq[:, k]) == 2)
    if len(carrier) != 2 ** len(atoms):
        return False, "bad-cardinality", (), ()
    return True, "", (), atoms


def reference_enumerate_boolean_subalgebras(o):
    """The seed-pair enumeration as plain loops: close {x} for every x, then
    re-close the union of every two distinct found carriers, round after
    round, until a round adds nothing. A closure is kept iff
    `reference_boolean_carrier` accepts it; the result is in
    (size, carrier) order."""
    from orthoview import BooleanSubalgebra

    def admit(carrier):
        if carrier is None or not reference_boolean_carrier(o, carrier)[0]:
            return None
        return carrier

    found = {c for c in (admit(reference_close(o, {x})) for x in range(o.n)) if c is not None}
    changed = True
    while changed:
        changed = False
        for a, b in [(a, b) for a in found for b in found if a != b]:
            c = admit(reference_close(o, a | b))
            if c is not None and c not in found:
                found.add(c)
                changed = True
    ordered = sorted(found, key=lambda c: (len(c), tuple(sorted(c))))
    return tuple(BooleanSubalgebra(tuple(sorted(c)), reference_boolean_carrier(o, c)[3]) for c in ordered)


def reference_worklist_subalgebras(o):
    """The pair-union worklist the atom-set search replaced: close every
    {x}, then the union of each found carrier with itself and with every
    carrier found before it, skipping unions already tried or already seen
    as a closure. Every closure `subalgebra` admits is kept; the result is
    in (size, carrier) order."""
    from orthoview import ValidationError, subalgebra

    found, tried, closures = [], set(), set()

    def consider(union):
        tried.add(union)
        c = reference_close(o, union)
        if c is None or c in closures:
            return
        closures.add(c)
        try:
            found.append((c, subalgebra(o, c)))
        except ValidationError:
            pass

    for x in range(o.n):
        consider(frozenset((x,)))
    for k, (c, _) in enumerate(found):  # grows while it is walked
        for d, _ in found[:k + 1]:
            if c | d not in tried and c | d not in closures:
                consider(c | d)
    return tuple(sorted((sub for _, sub in found), key=lambda sub: (sub.size, sub.carrier)))


def reference_subalgebra_pairs(o, carrier):
    """The pair scan `subalgebra` runs on an ortho-closed carrier holding the
    bounds, as loops with oracle joins and meets: the first pair in carrier
    order lacking a host join or meet, or whose join or meet leaves it."""
    carrier = sorted(carrier)
    leq, els = o.poset.leq, o.elements
    for i in carrier:
        for j in carrier:
            jn, mt = oracle_join(leq, i, j), oracle_meet(leq, i, j)
            if jn is None or mt is None:
                return False, "join-meet-missing", (els[i], els[j])
            if jn not in carrier or mt not in carrier:
                return False, "not-closed", (els[i], els[j])
    return True, "", ()


def reference_subalgebra(o, carrier):
    """Every law `subalgebra` checks, in its order, as plain loops: indices
    in 0..n-1, then the bounds, closure under the complement, the pair scan
    (`reference_subalgebra_pairs`) and the boolean check
    (`reference_boolean_carrier`). Returns (ok, code, witness, atoms)."""
    carrier = sorted(set(carrier))
    for i in carrier:
        if not 0 <= i < o.n:
            return False, "unknown-element", (i,), ()
    for b in (o.least, o.greatest):
        if b not in carrier:
            return False, "missing-bounds", (o.elements[b],), ()
    for i in carrier:
        if o.ortho[i] not in carrier:
            return False, "not-ortho-closed", (o.elements[i],), ()
    ok, code, witness = reference_subalgebra_pairs(o, carrier)
    if not ok:
        return False, code, witness, ()
    return reference_boolean_carrier(o, carrier)


# -- transformation tables, one pair of views at a time ------------------------
# The library builds a system's tables as one index array; these loops build
# each table on its own, as {(i, j): tuple} with the view-i index of every
# element of view j.


def reference_canonical_tables(o, subs):
    """The upper projection of every carrier onto every other, one pair of
    views at a time: the least element of carrier i above each element of
    carrier j, by a scan of the order matrix. Views are named B0, B1, ..."""
    leq = o.poset.leq.tolist()
    tables = {}
    for i, bi in enumerate(subs):
        for j, bj in enumerate(subs):
            table = []
            for x in bj.carrier:
                above = [c for c in bi.carrier if leq[x][c]]
                least = [c for c in above if all(leq[c][d] for d in above)]
                table.append(bi.carrier.index(least[0]))
            tables[(f"B{i}", f"B{j}")] = tuple(table)
    return tables


def reference_map_tables(doc):
    """The tables of a repsys document's maps, entry by entry: each listed
    source element takes its image, then every unlisted one the default.
    An element with neither is None. Identity tables are not listed."""
    views = dict(doc.views)
    tables = {}
    for m in doc.maps:
        table = [None] * len(views[m.source].elements)
        for a, b in zip(m.sources, m.images):
            table[a] = b
        if m.default is not None:
            table = [m.default if t is None else t for t in table]
        tables[(m.target, m.source)] = tuple(table)
    return tables


def reference_build_view(doc):
    """A poset or orthoposet view document built on its own, law by law:
    (elements, order matrix, complement tuple, least, greatest), the last
    three None for a poset view, whose ortho pairs are ignored; or the
    ValidationError of its first failure, with the library's code, witness
    and message. The order is the closure of the covers, checked for
    duplicate ids and antisymmetry; the complements come from a dict of the
    pairs, then the complement map is checked by
    `reference_ortho_validation`."""
    from orthoview import ValidationError

    els = tuple(doc.elements)
    index = {e: i for i, e in enumerate(els)}
    rel = np.zeros((len(els), len(els)), dtype=bool)
    for pair in doc.covers:
        for e in pair:
            if e not in index:
                raise ValidationError("unknown-element", f"pair mentions undeclared id {e!r}", (e,))
        rel[index[pair[0]], index[pair[1]]] = True
    leq = reference_closure(rel)
    for k, e in enumerate(els):
        if e in els[:k]:
            raise ValidationError("duplicate-element", f"duplicate element id {e!r}", (e,))
    # a closure is reflexive and transitive; only antisymmetry can fail
    for i, j in np.argwhere(leq & leq.T & ~np.eye(len(els), dtype=bool)):
        a, b = els[i], els[j]
        raise ValidationError("antisymmetry", f"cycle: {a!r} <= {b!r} <= {a!r}", (a, b))
    if doc.kind != "orthoposet":
        return els, leq, None, None, None
    comp = {}
    for a, b in doc.ortho_pairs:
        for x, y in ((a, b), (b, a)):
            if comp.setdefault(x, y) != y:
                raise ValidationError(
                    "ortho-conflict", f"{x!r} is listed with two complements, {comp[x]!r} and {y!r}", (x, comp[x], y)
                )
    for e in els:
        if e not in comp:
            raise ValidationError("ortho-incomplete", f"no complement listed for {e!r}", (e,))
    for e in els:
        if comp[e] not in index:
            raise ValidationError("unknown-element", f"no element {comp[e]!r}", (comp[e],))
    ortho = tuple(index[comp[e]] for e in els)
    ok, code, witness = reference_ortho_validation(leq, ortho, els)
    if not ok:
        messages = {
            "not-bounded": "no least/greatest element",
            "not-involutive": "({0!r}')' != {0!r}",
            "not-antitone": "{0!r} <= {1!r} but complements are not reversed",
            "complement-law": "{0!r} and its complement do not meet at 0 / join at 1",
        }
        raise ValidationError(code, messages[code].format(*witness), witness)
    least = next(i for i in range(len(els)) if leq[i].all())
    greatest = next(i for i in range(len(els)) if leq[:, i].all())
    return els, leq, ortho, least, greatest


# -- system-layer scans as plain loops -----------------------------------------
# Loops over the transformation tables, the pre-sum pairs and the sum
# classes, in the scan order the library's witnesses follow. The library
# runs them as gathers on the stacked tables and must agree on every
# verdict, witness and array.


def reference_rs_axioms(rs):
    """Missing or bad tables, then identity, monotony over (i, j, x, y) and
    composition over (i, j, k, x)."""
    for i in rs.views:
        for j in rs.views:
            if (i, j) not in rs.transforms:
                return False, "missing-transform", (i, j)
            table = rs.transforms[(i, j)]
            src, dst = rs.poset_of(j), rs.poset_of(i)
            if len(table) != src.n or any(not 0 <= t < dst.n for t in table):
                return False, "bad-transform", (i, j)
    for i in rs.views:
        table, p = rs.transforms[(i, i)], rs.poset_of(i)
        for x in range(p.n):
            if table[x] != x:
                return False, "identity", (i, p.elements[x])
    for i in rs.views:
        for j in rs.views:
            table = rs.transforms[(i, j)]
            src, dst = rs.poset_of(j), rs.poset_of(i)
            for x in range(src.n):
                for y in range(src.n):
                    if src.leq[x, y] and not dst.leq[table[x], table[y]]:
                        return False, "monotony", (i, j, src.elements[x], src.elements[y])
    for i in rs.views:
        for j in rs.views:
            for k in rs.views:
                direct, first, second = rs.transforms[(i, k)], rs.transforms[(j, k)], rs.transforms[(i, j)]
                src, dst = rs.poset_of(k), rs.poset_of(i)
                for x in range(src.n):
                    if not dst.leq[direct[x], second[first[x]]]:
                        return False, "composition", (i, j, k, src.elements[x])
    return True, "", ()


def reference_presum(rs):
    """(pairs, rel): (i, x) <= (j, y) iff f_(j|i)(x) <= y in view j."""
    pairs = [(v, e) for v, p in zip(rs.views, rs.posets) for e in p.elements]
    rel = np.zeros((len(pairs), len(pairs)), dtype=bool)
    for a, (i, x) in enumerate(pairs):
        xi = rs.poset_of(i).idx(x)
        for b, (j, y) in enumerate(pairs):
            pj = rs.poset_of(j)
            rel[a, b] = pj.leq[rs.transforms[(j, i)][xi], pj.idx(y)]
    return tuple(pairs), rel


def reference_quotient_sum(pairs, rel):
    """(klass, labels, leq): the classes of mutually comparable pairs of a
    dense pre-sum relation, each pair's class found as its first mutually
    comparable pair, numbered, labelled and ordered by that first member."""
    mutual = rel & rel.T
    first = mutual.argmax(axis=1) if len(mutual) else np.empty(0, np.intp)
    reps, klass = np.unique(first, return_inverse=True)
    return klass, tuple(f"{pairs[r][0]}/{pairs[r][1]}" for r in reps), rel[np.ix_(reps, reps)]


def sum_classes(s):
    """The member pairs of every class of a sum, in pair order."""
    classes = [[] for _ in range(s.order.n)]
    for pair, c in zip(s.pairs, s.klass):
        classes[c].append(pair)
    return classes


def reference_closure_table(s, rs):
    """The closure of every class under every view, from the images of all
    its members; InternalCheckError ill-defined-closure on the first
    (view, class) whose members disagree."""
    from orthoview import InternalCheckError

    table = np.empty((len(rs.views), s.order.n), dtype=int)
    classes = sum_classes(s)
    for vi, v in enumerate(rs.views):
        for c in range(s.order.n):
            results = set()
            for j, x in classes[c]:
                target = rs.poset_of(v).elements[rs.transforms[(v, j)][rs.poset_of(j).idx(x)]]
                results.add(s.class_of(v, target))
            if len(results) != 1:
                raise InternalCheckError("ill-defined-closure", "", (v, s.label(c)))
            table[vi, c] = results.pop()
    return table


def reference_closure_properties(s, rs):
    """Per view: extension and idempotence per class, then monotony per pair."""
    leq = s.order.leq
    table = reference_closure_table(s, rs)
    for vi, v in enumerate(rs.views):
        rho = table[vi]
        for c in range(s.order.n):
            if not leq[c, rho[c]]:
                return False, "extension", (v, s.label(c))
            if rho[rho[c]] != rho[c]:
                return False, "idempotence", (v, s.label(c))
        for c in range(s.order.n):
            for d in range(s.order.n):
                if leq[c, d] and not leq[rho[c], rho[d]]:
                    return False, "monotony", (v, s.label(c), s.label(d))
    return True, "", ()


def reference_sum_as_orthoposet(s, brs):
    """The complement of every class from the complements of all its
    members, then the bottom and top class of every view;
    InternalCheckError ill-defined-ortho on the first class whose members
    disagree, ValidationError not-bounded if there are no views,
    ill-defined-bounds if the views disagree on a bound."""
    from orthoview import InternalCheckError, ValidationError

    ortho = []
    for c, members in enumerate(sum_classes(s)):
        images = set()
        for v, x in members:
            o = brs.ortho_of(v)
            images.add(s.class_of(v, o.elements[o.ortho[o.idx(x)]]))
        if len(images) != 1:
            raise InternalCheckError("ill-defined-ortho", "", (s.label(c),))
        ortho.append(images.pop())
    bottoms = {s.class_of(v, o.elements[o.least]) for v, o in zip(brs.views, brs.orthos)}
    tops = {s.class_of(v, o.elements[o.greatest]) for v, o in zip(brs.views, brs.orthos)}
    if not brs.views:
        raise ValidationError("not-bounded", "", ())
    if len(bottoms) != 1 or len(tops) != 1:
        raise InternalCheckError("ill-defined-bounds", "", ())
    return OrthoPoset(s.order, ortho)


def reference_roundtrip(host, s, so):
    """(ok, stage, witness, isomorphism) of matching the sum of a canonical
    system back onto its host, the class of (B, x) going to x: the first
    class whose members carry several elements (or none), a class map that
    is not a bijection, the first (a, b) whose order differs, the first
    class whose complement differs."""
    els = host.elements
    mapping = []
    for c, members in enumerate(sum_classes(s)):
        carried = {x for _, x in members}
        if len(carried) != 1:
            return False, "well-defined", (s.label(c),) + tuple(sorted(carried)), ()
        mapping.append((s.label(c), carried.pop()))
    targets = [x for _, x in mapping]
    if sorted(targets) != sorted(els):
        return False, "bijective", tuple(sorted(set(els) ^ set(targets))), ()
    t = [host.idx(x) for x in targets]
    for a in range(s.order.n):
        for b in range(s.order.n):
            if bool(s.order.leq[a, b]) != bool(host.poset.leq[t[a], t[b]]):
                return False, "order", (s.label(a), s.label(b)), ()
    for a in range(s.order.n):
        if t[so.ortho[a]] != host.ortho[t[a]]:
            return False, "ortho", (s.label(a),), ()
    return True, "", (), tuple(mapping)


def _fixing(table, c):
    return [i for i in range(len(table)) if table[i, c] == c]


def _preferred(leq, table, fixing, b):
    return next((i for i in fixing if all(leq[table[i, b], table[j, b]] for j in fixing)), None)


def reference_condition_omp(s, table):
    for a in range(s.order.n):
        for b in range(s.order.n):
            if s.order.leq[a, b] and not set(_fixing(table, a)) & set(_fixing(table, b)):
                return False, "no-shared-view", (s.label(a), s.label(b))
    return True, "", ()


def reference_condition_oml(s, table):
    for a in range(s.order.n):
        fixing = _fixing(table, a)
        for b in range(s.order.n):
            if _preferred(s.order.leq, table, fixing, b) is None:
                return False, "no-preferred-view", (s.label(a), s.label(b))
    return True, "", ()


def reference_build_amp(s, table):
    """(amp, chosen_view) over b, then a: the first view fixing b that is
    preferred for a, and the oracle meet of its closure of a with b;
    InternalCheckError on the first pair lacking either."""
    from orthoview import InternalCheckError

    n, leq = s.order.n, s.order.leq
    amp = np.empty((n, n), dtype=int)
    chosen = np.empty((n, n), dtype=int)
    for b in range(n):
        fixing = _fixing(table, b)
        for a in range(n):
            best = _preferred(leq, table, fixing, a)
            if best is None:
                raise InternalCheckError("no-preferred-view", "", (s.label(a), s.label(b)))
            m = oracle_meet(leq, table[best, a], b)
            if m is None:
                raise InternalCheckError("amp-meet-missing", "", (s.label(a), s.label(b)))
            amp[a, b], chosen[a, b] = m, best
    return amp, chosen


def reference_amp_axioms(t, o, cap):
    """(counts, violations capped at cap, checked) of the four & axioms."""
    n, leq, els = o.n, o.poset.leq, o.elements
    axioms = ("monotony", "reduction", "orthomodularity", "galois")
    counts = {a: 0 for a in axioms}
    violations = {a: [] for a in axioms}
    checked = {a: 0 for a in axioms}

    def record(axiom, *w):
        counts[axiom] += 1
        if len(violations[axiom]) < cap:
            violations[axiom].append(tuple(els[e] for e in w))

    for x1 in range(n):
        for x2 in range(n):
            if leq[x1, x2]:
                for y in range(n):
                    checked["monotony"] += 1
                    if not leq[t[x1, y], t[x2, y]]:
                        record("monotony", x1, x2, y)
    for x in range(n):
        for y in range(n):
            checked["reduction"] += 1
            if not leq[t[x, y], y]:
                record("reduction", x, y)
            if leq[x, y]:
                checked["orthomodularity"] += 1
                if t[x, y] != x:
                    record("orthomodularity", x, y)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if leq[t[x, y], z]:
                    checked["galois"] += 1
                    if not leq[t[o.ortho[z], y], o.ortho[x]]:
                        record("galois", x, y, z)
    return counts, {a: tuple(v) for a, v in violations.items()}, checked


# -- reference tokenizer -------------------------------------------------------


class RefToken(NamedTuple):
    text: str
    line: int
    col: int


def reference_tokenize(text):
    """(text, line, col) of every .oml token, by the seed's per-character
    scan: '#' starts a comment, whitespace (str.isspace) separates tokens,
    and '{', '}' and ';' are tokens of their own."""
    tokens = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        cur = []
        start = 0
        for col, ch in enumerate(line + " ", start=1):
            if ch.isspace() or ch in "{};":
                if cur:
                    tokens.append(RefToken("".join(cur), ln, start))
                    cur = []
                if ch in "{};":
                    tokens.append(RefToken(ch, ln, col))
            else:
                if not cur:
                    start = col
                cur.append(ch)
    return tokens


# -- reference parser ----------------------------------------------------------
#
# The token-stream parser that `modelio.parse` replaced: a cursor over
# positioned tokens, one generator step per block item and one `upto` scan
# per section and map entry. Its `_ref_id` carries the `*` id rule too, and
# `_ref_map` translates each entry to view-local indices one at a time.


class _RefStream:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        lines = text.splitlines()
        self.end = (len(lines) or 1, len(lines[-1]) + 1 if lines else 1)

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
        start = self.pos
        while self.pos < len(self.tokens) and self.tokens[self.pos].text not in stops:
            self.pos += 1
        return self.tokens[start:self.pos]

    def items(self, what):
        while True:
            tok = self.peek()
            if tok is None:
                self.fail(f"unterminated {what}")
            self.pos += 1
            if tok.text == "}":
                return
            if tok.text != ";":
                yield tok


def _ref_id(tok, what):
    if "<" in tok.text or ":" in tok.text or "->" in tok.text:
        raise ParseError(f"illegal {what} {tok.text!r} (ids may not contain '<', ':' or '->')", tok.line, tok.col)
    if tok.text == "*":
        raise ParseError(f"illegal {what} '*' (ids may not be '*', which marks a map default)", tok.line, tok.col)
    return tok.text


def _ref_split_pair(tok, sep, what):
    parts = tok.text.split(sep)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"malformed {what} {tok.text!r} (expected A{sep}B)", tok.line, tok.col)
    return parts[0], parts[1]


_REF_SECTIONS = {
    "elements": lambda t: _ref_id(t, "element id"),
    "covers": lambda t: _ref_split_pair(t, "<", "cover"),
    "ortho": lambda t: _ref_split_pair(t, ":", "ortho pair"),
}


def _ref_structure_body(ts, kind, name):
    sections = {}
    for head in ts.items("block"):
        body = ts.upto(";", "}")
        if head.text not in _REF_SECTIONS or head.text == "ortho" and kind != "orthoposet":
            raise ParseError(f"unknown section {head.text!r} in {kind}", head.line, head.col)
        if head.text in sections:
            raise ParseError(f"duplicate {head.text} section", head.line, head.col)
        sections[head.text] = tuple(map(_REF_SECTIONS[head.text], body))
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


def _ref_map(ts, views):
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
    src_els = {e: i for i, e in enumerate(views[source].elements)}
    dst_els = {e: i for i, e in enumerate(views[target].elements)}
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
            entries.append((src_els[lhs], dst_els[rhs]))
        elif default is not None:
            raise ParseError("duplicate default entry", *at)
        else:
            default = dst_els[rhs]
    return MapSpec(target, source, tuple(a for a, _ in entries), tuple(b for _, b in entries), default)


def reference_parse(text):
    """The model document of text, or a ParseError with line and column."""
    ts = _RefStream(reference_tokenize(text), text)
    kind_tok = ts.next()
    if kind_tok.text not in ("poset", "orthoposet", "repsys"):
        raise ParseError(f"unknown model kind {kind_tok.text!r}", kind_tok.line, kind_tok.col)
    kind = kind_tok.text
    name = ts.next().text
    ts.next("{")
    if kind != "repsys":
        doc = _ref_structure_body(ts, kind, name)
    else:
        views = {}
        maps = {}
        for head in ts.items("repsys block"):
            if head.text == "view":
                vname = _ref_id(ts.next(), "view name")
                if vname in views:
                    raise ParseError(f"duplicate view {vname!r}", head.line, head.col)
                eq = ts.next()
                if eq.text != "=":
                    raise ParseError(f"expected '=', found {eq.text!r}", eq.line, eq.col)
                vkind = ts.next()
                if vkind.text not in ("poset", "orthoposet"):
                    raise ParseError(f"view must be a poset or orthoposet, not {vkind.text!r}", vkind.line, vkind.col)
                ts.next("{")
                views[vname] = _ref_structure_body(ts, vkind.text, vname)
            elif head.text == "map":
                mspec = _ref_map(ts, views)
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
