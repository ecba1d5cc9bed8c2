import numpy as np
import pytest

from orthoview import (
    AmpOperation,
    FinitePoset,
    InternalCheckError,
    ValidationError,
    amp_vs_sasaki,
    build_amp,
    build_canonical_rs,
    build_orthoposet,
    build_presum,
    check_condition_oml,
    check_condition_omp,
    closure_table,
    derived_meet,
    is_orthomodular_lattice,
    is_orthomodular_poset,
    make_rs,
    quotient_sum,
    sasaki_projection,
    sum_as_orthoposet,
    verify_amp_axioms,
    zoo_model,
)

from _models import as_orthoposet, boolean_algebra, oracle_meet


def canonical(name):
    brs = build_canonical_rs(build_orthoposet(zoo_model(name).doc))
    s = quotient_sum(build_presum(brs.rs))
    return brs, s


def amp_setup(name):
    brs, s = canonical(name)
    amp = build_amp(s, brs.rs)
    so = sum_as_orthoposet(s, brs)
    return brs, s, amp, so


def test_single_view_conditions_hold():
    els, leq, _ = boolean_algebra(2)
    rs = make_rs(["V"], [FinitePoset(els, leq)], {})
    s = quotient_sum(build_presum(rs))
    assert check_condition_omp(s, rs).ok
    assert check_condition_oml(s, rs).ok


def test_hexagon_sum_fails_shared_view_condition():
    brs, s = canonical("O6")
    v = check_condition_omp(s, brs.rs)
    assert not v.ok and v.code == "no-shared-view"
    # re-verify: the witness classes are comparable yet no view fixes both
    a = next(c for c in range(s.order.n) if s.label(c) == v.witness[0])
    b = next(c for c in range(s.order.n) if s.label(c) == v.witness[1])
    assert s.order.le(a, b)
    table = closure_table(s, brs.rs)
    assert not any(table[i, a] == a and table[i, b] == b for i in range(len(brs.views)))


def test_mo2_sum_satisfies_both_conditions():
    brs, s = canonical("MO2")
    assert check_condition_omp(s, brs.rs).ok
    assert check_condition_oml(s, brs.rs).ok


def test_greechie_cycle_4_fails_preferred_view_condition():
    brs, s = canonical("greechie_cycle_4")
    assert check_condition_omp(s, brs.rs).ok
    v = check_condition_oml(s, brs.rs)
    assert not v.ok and v.code == "no-preferred-view"
    # re-verify the witness by direct scan
    a = next(c for c in range(s.order.n) if s.label(c) == v.witness[0])
    b = next(c for c in range(s.order.n) if s.label(c) == v.witness[1])
    table = closure_table(s, brs.rs)
    fixing = [i for i in range(len(brs.views)) if table[i, a] == a]
    assert fixing
    leq = s.order.leq
    assert not any(
        all(leq[table[i, b], table[j, b]] for j in fixing) for i in fixing
    )


def test_amp_on_mo2():
    brs, s, amp, so = amp_setup("MO2")
    a = s.class_of("B1", "a")
    b = s.class_of("B2", "b")
    assert amp.table[a, b] == b
    # the chosen view fixes the right operand
    table = closure_table(s, brs.rs)
    for x in range(so.n):
        for y in range(so.n):
            assert table[amp.chosen_view[x, y], y] == y
            assert so.poset.le(amp.table[x, y], y)
            if so.poset.le(x, y):
                assert amp.table[x, y] == x


def test_build_amp_refuses_hexagon():
    brs, s = canonical("O6")
    with pytest.raises(ValidationError) as err:
        build_amp(s, brs.rs)
    assert err.value.code == "condition-omp"
    assert err.value.witness == check_condition_omp(s, brs.rs).witness


def test_build_amp_refuses_a_failed_preferred_view_condition():
    brs, s = canonical("greechie_cycle_4")
    with pytest.raises(ValidationError) as err:
        build_amp(s, brs.rs)
    assert err.value.code == "condition-oml"
    assert err.value.witness == check_condition_oml(s, brs.rs).witness


def test_amp_reads_the_arrays_kept_on_the_sum():
    """The closure table and the preferred views are kept on the sum, once
    per system: a later call returns the same array, & chooses the views
    the preferred-view condition found, and a fresh sum of the same system
    builds the same &."""
    import orthoview.conditions as cond

    brs, s = canonical("greechie_cycle_5")
    amp = build_amp(s, brs.rs)
    table, pref = closure_table(s, brs.rs), cond._preferred_views(s, brs.rs)
    assert closure_table(s, brs.rs) is table and cond._preferred_views(s, brs.rs) is pref
    assert np.array_equal(amp.chosen_view, pref.T)
    fresh = build_amp(quotient_sum(build_presum(brs.rs)), brs.rs)
    assert np.array_equal(fresh.table, amp.table) and np.array_equal(fresh.chosen_view, amp.chosen_view)


def test_amp_axioms_pass_on_mo2():
    brs, s, amp, so = amp_setup("MO2")
    report = verify_amp_axioms(amp, so)
    assert report.ok
    assert all(c == 0 for c in report.counts.values())
    assert report.checked["reduction"] == so.n * so.n


def test_constant_top_amp_fails_reduction():
    brs, s, amp, so = amp_setup("MO2")
    top_table = np.full((so.n, so.n), so.greatest, dtype=int)
    report = verify_amp_axioms(AmpOperation(top_table, amp.chosen_view), so)
    assert not report.ok
    assert report.counts["reduction"] > 0
    assert len(report.violations["reduction"]) <= 16
    x, y = report.violations["reduction"][0]
    assert not so.poset.le(so.greatest, so.idx(y))


def test_derived_meet_is_meet_on_boolean():
    brs, s, amp, so = amp_setup("boolean_4")
    for x in range(so.n):
        for y in range(so.n):
            assert derived_meet(amp, so, x, y) == so.poset.meet(x, y)


def test_derived_meet_on_mo2_distinct_atoms():
    brs, s, amp, so = amp_setup("MO2")
    a = s.class_of("B1", "a")
    b = s.class_of("B2", "b")
    zero = s.class_of("B0", "0")
    assert derived_meet(amp, so, a, b) == zero
    for x in range(so.n):
        assert derived_meet(amp, so, x, x) == x


def test_derived_meet_matches_oracle_exhaustively():
    for name in ("MO2", "boolean_8"):
        brs, s, amp, so = amp_setup(name)
        for x in range(so.n):
            for y in range(so.n):
                assert derived_meet(amp, so, x, y) == oracle_meet(so.poset.leq, x, y)


def test_bogus_amp_fails_meet_assertion():
    brs, s, amp, so = amp_setup("MO2")
    top_table = np.full((so.n, so.n), so.greatest, dtype=int)
    bogus = AmpOperation(top_table, amp.chosen_view)
    a = s.class_of("B1", "a")
    b = s.class_of("B2", "b")
    with pytest.raises(InternalCheckError) as err:
        derived_meet(bogus, so, a, b)
    assert err.value.code == "not-a-meet"


def test_amp_agrees_with_sasaki():
    for name in ("boolean_4", "boolean_8", "MO2"):
        brs, s, amp, so = amp_setup(name)
        cmp = amp_vs_sasaki(amp, so)
        assert cmp.ok and cmp.agreement == 1.0


def test_sasaki_comparison_refuses_non_oml():
    brs, s, amp, so = amp_setup("MO2")
    o6 = build_orthoposet(zoo_model("O6").doc)
    with pytest.raises(ValidationError) as err:
        amp_vs_sasaki(amp, o6)
    assert err.value.code == "not-oml"


def test_sasaki_table_passes_amp_axioms():
    # the projection itself satisfies the four axioms on any lattice here
    for name in ("MO2", "boolean_8"):
        o = build_orthoposet(zoo_model(name).doc)
        table = np.array(
            [[sasaki_projection(o, x, y) for y in range(o.n)] for x in range(o.n)]
        )
        report = verify_amp_axioms(AmpOperation(table, np.zeros((o.n, o.n), dtype=int)), o)
        assert report.ok


def test_conditions_imply_structure():
    # executable form of the two bridge results, plus the converse arrow
    for name in ("boolean_2", "boolean_4", "boolean_8", "MO2", "O6", "greechie_cycle_4"):
        brs, s = canonical(name)
        so = sum_as_orthoposet(s, brs)
        if check_condition_omp(s, brs.rs).ok:
            assert is_orthomodular_poset(so).ok
            if check_condition_oml(s, brs.rs).ok:
                assert is_orthomodular_lattice(so).ok


def test_verified_amp_makes_a_lattice():
    # an orthomodular poset with a law-abiding & has all meets
    brs, s, amp, so = amp_setup("MO2")
    assert is_orthomodular_poset(so).ok
    assert verify_amp_axioms(amp, so).ok
    for x in range(so.n):
        for y in range(so.n):
            derived_meet(amp, so, x, y)
    assert so.poset.is_lattice().ok


def test_sasaki_and_derived_meet_refuse_unknown_indices():
    """An index outside 0..n-1 raises unknown-element before anything is
    read. Unchecked, sasaki_projection(o, -1, 1) on MO2 would wrap to the
    top and return 1; on the hexagon, which is not an OML, the index is
    named before the structure is refused."""
    o = build_orthoposet(zoo_model("MO2").doc)
    o6 = build_orthoposet(zoo_model("O6").doc)
    brs, s, amp, so = amp_setup("MO2")
    calls = [
        (lambda x, y: sasaki_projection(o, x, y), o.n),
        (lambda x, y: sasaki_projection(o6, x, y), o6.n),
        (lambda x, y: derived_meet(amp, so, x, y), so.n),
    ]
    for call, n in calls:
        for args, bad in [((-1, 1), -1), ((1, -1), -1), ((n, 0), n), ((0, n + 2), n + 2), ((-3, n), -3)]:
            with pytest.raises(ValidationError) as err:
                call(*args)
            assert (err.value.code, err.value.witness) == ("unknown-element", (bad,))
    assert sasaki_projection(o, o.greatest, 1) == 1
