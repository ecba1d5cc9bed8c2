"""The system layer's array scans against the plain loops in `_models`.

`repsys`, `sums` and `conditions` run on the stacked transformation tables;
every verdict, witness and table here must equal the plain loop's, on the
zoo systems, canonical systems, random single-entry mutants and broken &
tables."""

import random
from functools import lru_cache

import numpy as np
import pytest

from orthoview import (
    AmpOperation,
    BooleanRepresentationSystem,
    InternalCheckError,
    RepresentationSystem,
    ValidationError,
    Verdict,
    build_amp,
    build_canonical_rs,
    build_orthoposet,
    build_presum,
    build_repsys,
    check_boolean_rs_axioms,
    check_condition_oml,
    check_condition_omp,
    check_rs_axioms,
    closure_table,
    derived_meet,
    derived_meet_table,
    quotient_sum,
    sum_as_orthoposet,
    verify_amp_axioms,
    verify_closure_properties,
    zoo,
)
from orthoview.conditions import WITNESS_CAP
from orthoview.poset import OK

from _models import (
    as_orthoposet,
    greechie_cycle,
    mutate_random_entry,
    reference_amp_axioms,
    reference_boolean_rs_axioms,
    reference_build_amp,
    reference_closure_properties,
    reference_closure_table,
    reference_condition_oml,
    reference_condition_omp,
    reference_presum,
    reference_rs_axioms,
    shuffled,
)


@lru_cache(maxsize=None)
def systems():
    """(name, rs, orthos or None): the zoo's repsys models, and the
    canonical systems of the zoo orthoposets and of relabelled Greechie
    cycles 4..7."""
    out = []
    for name, model in zoo().items():
        if model.kind == "repsys":
            rs, orthos = build_repsys(model.doc)
            out.append((name, rs, None if None in orthos else orthos))
        else:
            brs = build_canonical_rs(build_orthoposet(model.doc))
            out.append((name, brs.rs, brs.orthos))
    rng = random.Random(4)
    for k in range(4, 8):
        brs = build_canonical_rs(as_orthoposet(shuffled(greechie_cycle(k), rng)))
        out.append((f"greechie_cycle_{k}_shuffled", brs.rs, brs.orthos))
    return tuple(out)


def system(name):
    return next(rs for n, rs, _ in systems() if n == name)


@lru_cache(maxsize=None)
def mutants():
    """(name, mutant rs, orthos or None, the original rs): 60 systems with
    one to three table entries rewired at random (several failures of one
    law make the scan order matter)."""
    rng = random.Random(11)
    out = []
    for k in range(60):
        name, rs, orthos = systems()[k % len(systems())]
        mutant = rs
        for _ in range(1 + k % 3):
            mutant = mutate_random_entry(mutant, rng)
        out.append((f"{name}~{k}", mutant, orthos, rs))
    return tuple(out)


def outcome(fn, *args):
    """A call's value (a verdict as (ok, code, witness)), or the (code,
    witness) of the error it raised."""
    try:
        value = fn(*args)
    except (InternalCheckError, ValidationError) as e:
        return e.code, e.witness
    return "ok", (value.ok, value.code, value.witness) if isinstance(value, Verdict) else value


def same_outcome(got, want):
    if got[0] == want[0] == "ok":
        return np.array_equal(got[1], want[1])
    return got == want


def test_rs_axioms_match_reference():
    seen = set()
    for name, rs, _ in systems():
        assert outcome(check_rs_axioms, rs) == ("ok", reference_rs_axioms(rs)) == ("ok", (True, "", ())), name
    for name, rs, _, _ in mutants():
        got = outcome(check_rs_axioms, rs)
        assert got == ("ok", reference_rs_axioms(rs)), name
        seen.add(got[1][1])
    assert {"", "identity", "monotony", "composition"} <= seen


def test_composition_witness_is_first_in_scan_order():
    # f_(B1|B2)(b) = a breaks composition through (B2, B4) and (B4, B2)
    # for the same x; the scan meets j = B2 first
    rs = system("boolean_8")
    transforms = dict(rs.transforms)
    table = list(transforms[("B1", "B2")])
    table[rs.poset_of("B2").idx("b")] = rs.poset_of("B1").idx("a")
    transforms[("B1", "B2")] = tuple(table)
    bad = RepresentationSystem(rs.views, rs.posets, transforms)
    assert outcome(check_rs_axioms, bad) == ("ok", reference_rs_axioms(bad)) == ("ok", (False, "composition", ("B1", "B2", "B4", "b")))


def test_missing_and_bad_tables_match_reference():
    rs = systems()[-1][1]
    i, j = rs.views[2], rs.views[1]
    table = rs.transforms[(i, j)]
    edits = [
        {(i, j): None},
        {(i, j): table[:-1]},
        {(i, j): (rs.poset_of(i).n,) + table[1:]},
        {(i, j): (-1,) + table[1:], (i, rs.views[3]): None},  # a later hole does not hide it
    ]
    codes = []
    for edit in edits:
        transforms = dict(rs.transforms)
        transforms.update(edit)
        bad = RepresentationSystem(rs.views, rs.posets, {k: t for k, t in transforms.items() if t is not None})
        got = outcome(check_rs_axioms, bad)
        assert got == ("ok", reference_rs_axioms(bad))
        assert got[1][2] == (i, j)
        codes.append(got[1][1])
        with pytest.raises(ValidationError):
            build_presum(bad)
    assert codes == ["missing-transform", "bad-transform", "bad-transform", "bad-transform"]


def test_boolean_rs_axioms_match_reference():
    seen = set()
    for name, rs, orthos, _ in mutants() + tuple((n, rs, o, rs) for n, rs, o in systems()):
        if orthos is not None:
            got = outcome(check_boolean_rs_axioms, rs, orthos)
            assert got == ("ok", reference_boolean_rs_axioms(rs, orthos)), name
            seen.add(got[1][1])
    assert {"", "join-preservation", "ortho-adjunction"} <= seen


def test_presum_matches_reference():
    intransitive = 0
    for name, rs in [(n, rs) for n, rs, _, _ in mutants()] + [(n, rs) for n, rs, _ in systems()]:
        pairs, rel = reference_presum(rs)
        got = outcome(build_presum, rs)
        if got[0] == "ok":
            assert got[1].pairs == pairs and np.array_equal(got[1].rel, rel), name
            continue
        # only a relation that is no preorder is refused, at its first
        # non-reflexive pair, else at the first entry of (rel @ rel) & ~rel
        assert got[0] == "preorder", name
        if rel.diagonal().all():
            a, b = np.argwhere((rel.astype(int) @ rel > 0) & ~rel)[0]
            assert got[1] == pairs[a] + pairs[b], name
            intransitive += 1
        else:
            assert got[1] == pairs[np.flatnonzero(~rel.diagonal())[0]], name
    assert intransitive >= 10


def closure_cases():
    """(name, rs, sum): every system with its own sum, every mutant with
    the sum of the system it was made from."""
    cases = [(n, rs, rs) for n, rs, _ in systems()] + [(n, rs, orig) for n, rs, _, orig in mutants()]
    return [(name, rs, quotient_sum(build_presum(orig))) for name, rs, orig in cases]


def test_closure_table_and_properties_match_reference():
    seen = set()
    for name, rs, s in closure_cases():
        assert same_outcome(outcome(closure_table, s, rs), outcome(reference_closure_table, s, rs)), name
        got = outcome(verify_closure_properties, s, rs)
        want = outcome(reference_closure_properties, s, rs)
        assert got == want, name
        seen.add(got[1][1] if got[0] == "ok" else got[0])
    assert {"", "ill-defined-closure", "extension"} <= seen


def test_conditions_match_reference():
    seen = set()
    for name, rs, s in closure_cases():
        try:
            table = reference_closure_table(s, rs)
        except InternalCheckError:
            continue
        for check, reference in ((check_condition_omp, reference_condition_omp), (check_condition_oml, reference_condition_oml)):
            got = outcome(check, s, rs, table)
            assert got == ("ok", reference(s, table)), name
            seen.add(got[1][1])
    assert {"", "no-shared-view", "no-preferred-view"} <= seen


def test_build_amp_matches_reference(monkeypatch):
    import orthoview.conditions as cond

    built = 0
    for name, rs, _ in systems():
        s = quotient_sum(build_presum(rs))
        table = closure_table(s, rs)
        omp, oml = check_condition_omp(s, rs, table), check_condition_oml(s, rs, table)
        if not (omp and oml):
            continue
        amp = build_amp(s, rs, table)
        want = reference_build_amp(s, table)
        assert np.array_equal(amp.table, want[0]) and np.array_equal(amp.chosen_view, want[1]), name
        with monkeypatch.context() as m:
            for fn in ("check_condition_omp", "check_condition_oml"):
                m.setattr(cond, fn, lambda *a: pytest.fail("condition re-checked"))
            given = build_amp(s, rs, table, omp, oml)
        assert np.array_equal(given.table, amp.table) and np.array_equal(given.chosen_view, amp.chosen_view)
        built += 1
    assert built >= 6


def test_build_amp_internal_failures_match_reference():
    # verdicts claiming conditions the table fails: greechie_cycle_4 has no
    # preferred view for some pair; one view fixing every class makes
    # a & b = a ^ b, which this sum (no lattice) lacks for some pair
    rs = system("greechie_cycle_4")
    s = quotient_sum(build_presum(rs))
    for table, code in ((closure_table(s, rs), "no-preferred-view"), (np.arange(s.order.n)[None], "amp-meet-missing")):
        got = outcome(build_amp, s, rs, table, OK, OK)
        assert got[0] == code and got == outcome(reference_build_amp, s, table)


def amp_cases():
    """(name, & table, sum orthoposet): the built & of every system whose
    sum satisfies both conditions, and a random table on the sum of the
    Greechie 5-cycle, which breaks every axiom more than WITNESS_CAP times."""
    out = []
    for name, rs, orthos in systems():
        if orthos is None:
            continue
        s = quotient_sum(build_presum(rs))
        table = closure_table(s, rs)
        if check_condition_omp(s, rs, table) and check_condition_oml(s, rs, table):
            out.append((name, build_amp(s, rs, table), sum_as_orthoposet(s, BooleanRepresentationSystem(rs, orthos))))
    so = next(so for name, _, so in out if name == "greechie_cycle_5")
    rng = np.random.default_rng(5)
    out.append(("random", AmpOperation(rng.integers(0, so.n, (so.n, so.n)), None), so))
    return out


def test_amp_axioms_match_reference():
    for name, amp, so in amp_cases():
        report = verify_amp_axioms(amp, so)
        counts, violations, checked = reference_amp_axioms(amp.table, so, WITNESS_CAP)
        assert (report.counts, report.violations, report.checked) == (counts, violations, checked), name
        assert report.ok == (name != "random")
    assert min(counts.values()) > WITNESS_CAP
    assert all(len(v) == WITNESS_CAP for v in violations.values())


def test_derived_meet_table_matches_one_pair_calls():
    for name, amp, so in amp_cases():
        calls = [[outcome(derived_meet, amp, so, x, y) for y in range(so.n)] for x in range(so.n)]
        failures = [c for row in calls for c in row if c[0] != "ok"]
        got = outcome(derived_meet_table, amp, so)
        if failures:
            assert got == failures[0], name
        else:
            assert got[0] == "ok" and got[1].tolist() == [[c[1] for c in row] for row in calls], name
    assert failures and failures[0][0] == "not-a-meet"
