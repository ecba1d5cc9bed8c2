"""Point-of-view conditions on a sum and the & operation they induce."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poset import OK, InternalCheckError, ValidationError, Verdict, _compose
from .ortho import is_orthomodular_lattice
from .sums import _per_system, closure_table


@_per_system
def check_condition_omp(s, rs):
    """Every comparable pair of classes must be fixed by a common view.

    With this condition the sum of a boolean system is orthomodular as a
    poset; the witness is the first comparable pair, in row-major order,
    that no single view can observe.
    """
    fixed = closure_table(s, rs) == np.arange(s.order.n)
    bad = np.argwhere(s.order.leq & ~_compose(fixed.T, fixed))
    if len(bad):
        a, b = bad[0]
        return Verdict(False, "no-shared-view", (s.label(a), s.label(b)))
    return OK


@_per_system
def _preferred_views(s, rs):
    """pref[a, b], read-only: the first view (in view order) fixing class a
    whose closure of b lies below the closure of b under every view fixing
    a, or -1 when there is none. Such a closure is the least element c of
    those closures of b; if c exists, every other closure has a larger
    down-set, so c is the closure of least height and lies below them all.
    One pass per class over the n closures of each view fixing it."""
    n = s.order.n
    leq = s.order.leq
    height = leq.sum(axis=0)  # the size of each class's down-set
    cols = np.arange(n)
    table = closure_table(s, rs)
    fixed = table == cols
    pref = np.full((n, n), -1, dtype=np.intp)
    for a in range(n):
        fixing = np.flatnonzero(fixed[:, a])
        if not fixing.size:
            continue
        t = table[fixing]
        c = t[height[t].argmin(axis=0), cols]  # c[b]: the closure of b of least height
        low = leq[c[None], t].all(axis=0)  # c[b] lies below every closure of b
        pref[a, low] = fixing[(t == c).argmax(axis=0)[low]]
    pref.flags.writeable = False
    return pref


@_per_system
def check_condition_oml(s, rs):
    """For every pair (a, b) some view must fix a while approximating b at
    least as well as any other view fixing a. The witness is the first
    pair, in row-major order, with no such preferred view."""
    bad = np.argwhere(_preferred_views(s, rs) < 0)
    if len(bad):
        a, b = bad[0]
        return Verdict(False, "no-preferred-view", (s.label(a), s.label(b)))
    return OK


@dataclass(frozen=True)
class AmpOperation:
    """The binary operation a & b on sum classes, together with the view
    chosen for each pair (the one fixing b whose approximation of a is the
    order-theoretic minimum)."""

    table: np.ndarray
    chosen_view: np.ndarray


def build_amp(s, rs):
    """Construct a & b = rho_i(a) ^ b with i the preferred view for b.

    Mirrors the preferred-view condition with the roles of a and b swapped;
    the swap is licensed because the condition quantifies over all pairs.
    A false condition is refused; once both hold, every pair has the
    preferred view that the second condition found. The meet is computed
    (and required to exist) in the sum itself.
    """
    omp = check_condition_omp(s, rs)
    if not omp:
        raise ValidationError("condition-omp", "comparable classes lack a shared view", omp.witness)
    oml = check_condition_oml(s, rs)
    if not oml:
        raise ValidationError("condition-oml", "no preferred view for some pair", oml.witness)
    pref = _preferred_views(s, rs)  # pref[b, a]: the view chosen for a & b
    cols = np.arange(s.order.n)[:, None]
    meet = s.order.tables()[1][closure_table(s, rs)[pref, cols.T], cols]  # meet[b, a] = rho_pref(a) ^ b
    bad = np.argwhere(meet < 0)  # first failure in the order b, then a
    if len(bad):
        b, a = bad[0]
        witness = (s.label(a), s.label(b))
        raise InternalCheckError("amp-meet-missing", f"rho(a) ^ b missing in the sum for {witness!r}", witness)
    amp = meet.T
    amp.flags.writeable = False
    return AmpOperation(amp, pref.T)


WITNESS_CAP = 16


@dataclass(frozen=True)
class AmpAxiomReport:
    """Exhaustive verdicts for the four & axioms. Violation lists are capped
    at WITNESS_CAP entries; counts are always complete."""

    ok: bool
    counts: dict
    violations: dict
    checked: dict


def verify_amp_axioms(amp, o):
    """Scan all pairs/triples of o against the four & axioms, each as one
    array pass whose violations are listed in lexicographic order."""
    n = o.n
    leq = o.poset.leq
    t = amp.table
    ortho = np.array(o.ortho)
    x1, x2 = np.nonzero(leq)
    y = np.arange(n)
    galois = leq[t]  # galois[x, y, z]: x & y <= z
    # scanned: (x1, x2, y) with x1 <= x2; (x, y); (x, y) with x <= y; (x, y, z) with x & y <= z
    scans = {
        "monotony": (np.ones((len(x1), n), dtype=bool), ~leq[t[x1], t[x2]], lambda k, y: (x1[k], x2[k], y)),
        "reduction": (np.ones((n, n), dtype=bool), ~leq[t, y], lambda x, y: (x, y)),
        "orthomodularity": (leq, leq & (t != y[:, None]), lambda x, y: (x, y)),
        # x' against z' & y, gathered as [z, y, x] and moved to [x, y, z]
        "galois": (galois, galois & ~leq[:, ortho][t[ortho]].transpose(2, 1, 0), lambda x, y, z: (x, y, z)),
    }
    counts, violations, checked = {}, {}, {}
    for axiom, (scanned, bad, witness) in scans.items():
        checked[axiom] = int(scanned.sum())
        counts[axiom] = int(bad.sum())
        violations[axiom] = tuple(tuple(o.elements[e] for e in witness(*w)) for w in np.argwhere(bad)[:WITNESS_CAP])
    ok = not any(counts.values())
    return AmpAxiomReport(ok, counts, violations, checked)


def derived_meet(amp, o, x, y):
    """(x' & y)' & y, asserted to be the greatest lower bound of x and y.
    An index outside 0..n-1 raises unknown-element first."""
    o.poset._check_index(x, y)
    t = amp.table
    result = int(t[o.ortho[int(t[o.ortho[x], y])], y])
    leq = o.poset.leq
    lower = leq[:, x] & leq[:, y]
    bad = None
    if not lower[result]:
        bad = result
    else:
        above = leq[:, result] | ~lower
        if not above.all():
            bad = int(np.flatnonzero(~above)[0])
    if bad is not None:
        raise InternalCheckError(
            "not-a-meet",
            f"derived meet of {o.elements[x]!r}, {o.elements[y]!r} fails at {o.elements[bad]!r}",
            (o.elements[x], o.elements[y], o.elements[bad]),
        )
    return result


def derived_meet_table(amp, o):
    """`derived_meet` for every pair at once. A derived meet passes exactly
    when it is the meet in o's meet table, so the first pair in row-major
    order where the two differ is handed to `derived_meet`, which raises
    not-a-meet with its witness."""
    t = amp.table
    ortho = np.array(o.ortho)
    result = t[ortho[t[ortho]], np.arange(o.n)]
    bad = np.argwhere(result != o.poset.tables()[1])
    if len(bad):
        derived_meet(amp, o, *map(int, bad[0]))
    return result


@dataclass(frozen=True)
class SasakiComparison:
    agreement: float
    pairs: int
    disagreements: int
    first: tuple = ()

    @property
    def ok(self):
        return self.disagreements == 0


def amp_vs_sasaki(amp, o):
    """Compare the & table against the Sasaki projection on every pair.

    Refuses structures that are not orthomodular lattices, where the
    projection is not total.
    """
    oml = is_orthomodular_lattice(o)
    if not oml:
        raise ValidationError("not-oml", f"sasaki comparison needs an orthomodular lattice: {oml.code}", oml.witness)
    join, meet = o.poset.tables()
    total = o.n * o.n
    bad = np.argwhere(amp.table != meet[join[:, o.ortho], np.arange(o.n)])  # (x v y') ^ y
    first = (o.elements[bad[0, 0]], o.elements[bad[0, 1]]) if len(bad) else ()
    return SasakiComparison((total - len(bad)) / total, total, len(bad), first)
