"""Point-of-view conditions on a sum and the & operation they induce."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poset import OK, InternalCheckError, ValidationError, Verdict
from .ortho import is_orthomodular_lattice
from .sums import closure_table


def check_condition_omp(s, rs, table=None):
    """Every comparable pair of classes must be fixed by a common view.

    With this condition the sum of a boolean system is orthomodular as a
    poset; the witness is a comparable pair no single view can observe.
    `table` is the sum's `closure_table`, computed here when not given.
    """
    table = closure_table(s, rs) if table is None else table
    n = s.order.n
    fixed = table == np.arange(n)
    for a in range(n):
        for b in range(n):
            if not s.order.leq[a, b]:
                continue
            if not (fixed[:, a] & fixed[:, b]).any():
                return Verdict(False, "no-shared-view", (s.label(a), s.label(b)))
    return OK


def check_condition_oml(s, rs, table=None):
    """For every pair (a, b) some view must fix a while approximating b at
    least as well as any other view fixing a. The witness is a pair with no
    such preferred view. `table` as in `check_condition_omp`."""
    table = closure_table(s, rs) if table is None else table
    n = s.order.n
    leq = s.order.leq
    fixed = table == np.arange(n)
    for a in range(n):
        fixing = np.flatnonzero(fixed[:, a])
        for b in range(n):
            if not any(all(leq[table[i, b], table[j, b]] for j in fixing) for i in fixing):
                return Verdict(False, "no-preferred-view", (s.label(a), s.label(b)))
    return OK


@dataclass(frozen=True)
class AmpOperation:
    """The binary operation a & b on sum classes, together with the view
    chosen for each pair (the one fixing b whose approximation of a is the
    order-theoretic minimum)."""

    table: np.ndarray
    chosen_view: np.ndarray


def build_amp(s, rs, table=None):
    """Construct a & b = rho_i(a) ^ b with i the preferred view for b.

    Mirrors the preferred-view condition with the roles of a and b swapped;
    the swap is licensed because the condition quantifies over all pairs.
    Both conditions are re-checked up front, and the meet is computed (and
    required to exist) in the sum itself. `table` as in
    `check_condition_omp`; it is computed once and shared by both checks.
    """
    table = closure_table(s, rs) if table is None else table
    omp = check_condition_omp(s, rs, table)
    if not omp:
        raise ValidationError("condition-omp", "comparable classes lack a shared view", omp.witness)
    oml = check_condition_oml(s, rs, table)
    if not oml:
        raise ValidationError("condition-oml", "no preferred view for some pair", oml.witness)
    n = s.order.n
    leq = s.order.leq
    fixed = table == np.arange(n)
    amp = np.empty((n, n), dtype=int)
    chosen = np.empty((n, n), dtype=int)
    for b in range(n):
        fixing = np.flatnonzero(fixed[:, b])
        for a in range(n):
            best = next(
                (int(i) for i in fixing if all(leq[table[i, a], table[j, a]] for j in fixing)),
                None,
            )
            if best is None:
                raise InternalCheckError(
                    "no-preferred-view",
                    f"conditions verified but no preferred view for ({s.label(a)!r}, {s.label(b)!r})",
                    (s.label(a), s.label(b)),
                )
            m = s.order.meet(int(table[best, a]), b)
            if m is None:
                raise InternalCheckError(
                    "amp-meet-missing",
                    f"rho(a) ^ b missing in the sum for ({s.label(a)!r}, {s.label(b)!r})",
                    (s.label(a), s.label(b)),
                )
            amp[a, b] = m
            chosen[a, b] = best
    amp.flags.writeable = False
    chosen.flags.writeable = False
    return AmpOperation(amp, chosen)


_AXIOMS = ("monotony", "reduction", "orthomodularity", "galois")
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
    """Scan all pairs/triples of o against the four & axioms."""
    n = o.n
    leq = o.poset.leq
    t = amp.table
    els = o.elements
    counts = {a: 0 for a in _AXIOMS}
    violations = {a: [] for a in _AXIOMS}
    checked = {"monotony": 0, "reduction": 0, "orthomodularity": 0, "galois": 0}

    def record(axiom, witness):
        counts[axiom] += 1
        if len(violations[axiom]) < WITNESS_CAP:
            violations[axiom].append(witness)

    for x1 in range(n):
        for x2 in range(n):
            if not leq[x1, x2]:
                continue
            for y in range(n):
                checked["monotony"] += 1
                if not leq[t[x1, y], t[x2, y]]:
                    record("monotony", (els[x1], els[x2], els[y]))
    for x in range(n):
        for y in range(n):
            checked["reduction"] += 1
            if not leq[t[x, y], y]:
                record("reduction", (els[x], els[y]))
            if leq[x, y]:
                checked["orthomodularity"] += 1
                if t[x, y] != x:
                    record("orthomodularity", (els[x], els[y]))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if not leq[t[x, y], z]:
                    continue
                checked["galois"] += 1
                if not leq[t[o.ortho[z], y], o.ortho[x]]:
                    record("galois", (els[x], els[y], els[z]))
    ok = not any(counts.values())
    return AmpAxiomReport(ok, counts, {k: tuple(v) for k, v in violations.items()}, checked)


def derived_meet(amp, o, x, y):
    """(x' & y)' & y, asserted to be the greatest lower bound of x and y."""
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
