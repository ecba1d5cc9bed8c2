import random

import numpy as np
import pytest

import orthoview.poset as poset_mod
from orthoview import (
    FinitePoset,
    OrthoPoset,
    ValidationError,
    build_canonical_rs,
    build_orthoposet,
    classify,
    derive_boolean_ortho,
    is_boolean_algebra,
    is_orthomodular_lattice,
    is_orthomodular_poset,
    sasaki_projection,
    zoo,
    zoo_model,
)
from orthoview.cli import main
from orthoview.ortho import distributivity_failure, stack_boolean
from orthoview.poset import size_groups, stack_tables

from _models import (
    as_orthoposet,
    boolean_algebra,
    double_chain,
    greechie_chain,
    greechie_cycle,
    greechie_pasting,
    mo,
    oracle_is_omp,
    oracle_join,
    oracle_meet,
    product,
    random_orthoposet,
    reference_distributivity,
    reference_is_lattice,
    reference_is_omp,
    reference_least_bounds,
    reference_ortho_validation,
    shuffled,
)


def zoo_ortho(name):
    return build_orthoposet(zoo_model(name).doc)


def test_boolean_with_set_complement_accepted():
    o = as_orthoposet(boolean_algebra(2))
    assert o.least == o.idx("s00")
    assert o.greatest == o.idx("s11")


def test_self_complement_on_chain_fails_complement_law():
    p = FinitePoset.from_covers("0a1", [("0", "a"), ("a", "1")])
    with pytest.raises(ValidationError) as err:
        OrthoPoset(p, [2, 1, 0])  # a paired with itself
    assert err.value.code == "complement-law"
    assert err.value.witness == ("a",)


def test_non_integer_complement_map_rejected():
    # int() would read the first two maps as (3, 2, 1, 0), the complement
    els, leq, _ = boolean_algebra(2)
    p = FinitePoset(els, leq)
    for ortho in ([3.9, 2.2, 1.5, 0.1], ["3", "2", "1", "0"], [3, 2, 1, 0.0]):
        with pytest.raises(ValidationError) as err:
            OrthoPoset(p, ortho)
        assert err.value.code == "bad-ortho"
    assert OrthoPoset(p, np.array([3, 2, 1, 0])).ortho == (3, 2, 1, 0)


def test_hexagon_accepted():
    o = zoo_ortho("O6")
    assert o.n == 6


def test_not_involutive():
    els, leq, _ = boolean_algebra(2)
    with pytest.raises(ValidationError) as err:
        OrthoPoset(FinitePoset(els, leq), [3, 2, 3, 0])  # s01 -> s10 -> s11
    assert (err.value.code, err.value.witness) == ("not-involutive", ("s01",))


def test_self_paired_atoms_fail_complement_law():
    els, leq, _ = boolean_algebra(2)
    with pytest.raises(ValidationError) as err:
        OrthoPoset(FinitePoset(els, leq), [3, 1, 2, 0])  # atoms map to themselves
    assert err.value.code == "complement-law"


def test_not_antitone():
    # chain of four: involutive pairing that does not reverse the order
    p = FinitePoset.from_covers("0ab1", [("0", "a"), ("a", "b"), ("b", "1")])
    with pytest.raises(ValidationError) as err:
        OrthoPoset(p, [1, 0, 3, 2])
    assert err.value.code == "not-antitone"


def test_not_bounded():
    p = FinitePoset.from_covers(["x", "y"], [])
    with pytest.raises(ValidationError) as err:
        OrthoPoset(p, [1, 0])
    assert err.value.code == "not-bounded"


def test_boolean_recognition():
    assert is_boolean_algebra(zoo_ortho("boolean_8")).ok
    v = is_boolean_algebra(zoo_ortho("MO2"))
    assert not v.ok and v.code == "not-distributive"
    assert not is_boolean_algebra(zoo_ortho("O6")).ok


def test_boolean_witness_reverifies():
    o = zoo_ortho("MO2")
    v = is_boolean_algebra(o)
    x, y, z = (o.idx(e) for e in v.witness)
    leq = o.poset.leq
    lhs = oracle_meet(leq, x, oracle_join(leq, y, z))
    rhs = oracle_join(leq, oracle_meet(leq, x, y), oracle_meet(leq, x, z))
    assert lhs != rhs


def test_omp_verdicts():
    assert is_orthomodular_poset(zoo_ortho("boolean_4")).ok
    assert is_orthomodular_poset(zoo_ortho("MO2")).ok
    v = is_orthomodular_poset(zoo_ortho("O6"))
    assert not v.ok
    assert v.code == "law-violation"
    assert v.witness == ("a", "b")


def test_omp_witness_reverifies():
    o = zoo_ortho("O6")
    x, y = (o.idx(e) for e in is_orthomodular_poset(o).witness)
    leq = o.poset.leq
    assert leq[x, y]
    m = oracle_meet(leq, y, o.ortho[x])
    assert oracle_join(leq, x, m) != y


def test_omp_matches_oracle_on_random_models():
    rng = random.Random(11)
    for _ in range(12):
        o = random_orthoposet(rng)
        assert is_orthomodular_poset(o).ok == oracle_is_omp(o.poset.leq, o.ortho)


def test_oml_verdicts():
    assert is_orthomodular_lattice(zoo_ortho("MO2")).ok
    assert not is_orthomodular_lattice(zoo_ortho("O6")).ok
    v = is_orthomodular_lattice(zoo_ortho("greechie_cycle_4"))
    assert not v.ok and v.code in ("no-join", "no-meet")
    assert is_orthomodular_lattice(zoo_ortho("greechie_cycle_5")).ok


def test_classification_chain_on_zoo_and_random():
    rng = random.Random(5)
    models = [zoo_ortho(m.name) for m in zoo().values() if m.kind == "orthoposet"]
    models += [random_orthoposet(rng) for _ in range(10)]
    for o in models:
        sc = classify(o)
        if sc.is_boolean:
            assert sc.is_oml
        if sc.is_oml:
            assert sc.is_omp and sc.is_ortholattice


def test_sasaki_is_meet_on_booleans():
    o = zoo_ortho("boolean_4")
    for x in range(o.n):
        for y in range(o.n):
            assert sasaki_projection(o, x, y) == o.poset.meet(x, y)


def test_sasaki_on_mo2_distinct_atoms():
    o = zoo_ortho("MO2")
    a, b = o.idx("a"), o.idx("b")
    assert sasaki_projection(o, a, b) == b


def test_sasaki_reduction_and_fixpoint():
    for name in ("boolean_8", "MO2", "greechie_cycle_5"):
        o = zoo_ortho(name)
        for x in range(o.n):
            for y in range(o.n):
                s = sasaki_projection(o, x, y)
                assert o.poset.le(s, y)
                if o.poset.le(x, y):
                    assert s == x


def test_sasaki_monotone_in_first_argument():
    for name in ("boolean_8", "MO2"):
        o = zoo_ortho(name)
        for x1 in range(o.n):
            for x2 in range(o.n):
                if not o.poset.le(x1, x2):
                    continue
                for y in range(o.n):
                    assert o.poset.le(sasaki_projection(o, x1, y), sasaki_projection(o, x2, y))


def test_sasaki_refuses_non_oml():
    o = zoo_ortho("O6")
    with pytest.raises(ValidationError) as err:
        sasaki_projection(o, 0, 1)
    assert err.value.code == "not-oml"


def test_derive_boolean_ortho():
    els, leq, ortho = boolean_algebra(2)
    derived = derive_boolean_ortho(FinitePoset(els, leq))
    assert derived == ortho
    els, leq, _ = mo(2)
    v = derive_boolean_ortho(FinitePoset(els, leq))
    assert not v.ok and v.code == "not-distributive"


def _triple(v):
    return v.ok, v.code, v.witness


def _reference_hosts(rng):
    """The zoo, random models, and relabelled hosts that reach every reachable
    lattice and OMP failure code (greechie_cycle(3) is not an OMP, (4) is an
    OMP but not a lattice; listed top-down, its first failing pair lacks a
    meet rather than a join)."""
    hosts = [zoo_ortho(m.name) for m in zoo().values() if m.kind == "orthoposet"]
    hosts += [random_orthoposet(rng) for _ in range(40)]
    extra = (greechie_cycle(3), greechie_cycle(4), product(mo(2), double_chain(2)))
    hosts += [as_orthoposet(shuffled(m, rng)) for m in extra for _ in range(3)]
    els, leq, ortho = greechie_cycle(4)
    n = len(els)
    hosts.append(as_orthoposet((els[::-1], leq[::-1, ::-1], [n - 1 - ortho[n - 1 - i] for i in range(n)])))
    return hosts


def test_law_checks_match_reference_scans():
    rng = random.Random(603007)
    seen = set()
    for o in _reference_hosts(rng):
        leq, els = o.poset.leq, o.elements
        lat = reference_is_lattice(leq, els)
        assert _triple(o.poset.is_lattice()) == lat
        boolean = reference_distributivity(leq, els) if lat[0] else (False, "not-lattice", lat[2])
        assert _triple(is_boolean_algebra(o)) == boolean
        assert _triple(is_orthomodular_poset(o)) == reference_is_omp(leq, o.ortho, els)
        derived = derive_boolean_ortho(o.poset)
        if boolean[0]:
            assert derived == list(o.ortho)
        else:
            assert _triple(derived) == boolean
        seen |= {lat[1], boolean[1], reference_is_omp(leq, o.ortho, els)[1]}
    assert {"no-join", "no-meet", "not-distributive", "orthogonal-join-missing", "law-violation"} <= seen


# The compatibility test on ortholattices of each kind: not orthomodular
# (O6, double chains), orthomodular but not distributive (MO-k, Greechie
# cycles k >= 5, 2^k x MO2) and boolean; the zoo and random draws run in
# test_law_checks_match_reference_scans.


def test_boolean_test_matches_reference_scans():
    rng = random.Random(101)
    models = [double_chain(2), double_chain(5), mo(2), mo(6), greechie_cycle(5), greechie_cycle(7)]
    models += [product(boolean_algebra(2), mo(2))] + [boolean_algebra(k) for k in range(6)]
    hosts = [zoo_ortho("O6")] + [as_orthoposet(shuffled(m, rng)) for m in models for _ in range(2)]
    seen = set()
    for o in hosts:
        leq, els = o.poset.leq, o.elements
        assert reference_is_lattice(leq, els)[0]
        want = reference_distributivity(leq, els)
        assert _triple(is_boolean_algebra(o)) == want
        seen.add(want[0])
    assert seen == {True, False}


def test_boolean_test_matches_the_distributivity_scan_at_scale():
    # the reference loops are too slow at n = 64..130: compare with the
    # library's n^3 scan, itself checked against them above
    rng = random.Random(103)
    models = [double_chain(40), mo(63), greechie_cycle(16), greechie_cycle(32), product(boolean_algebra(4), mo(2))]
    models += [boolean_algebra(6), boolean_algebra(7)]
    seen = set()
    for o in (as_orthoposet(shuffled(m, rng)) for m in models):
        bad = distributivity_failure(*o.poset.tables())
        want = (True, "", ()) if bad is None else (False, "not-distributive", tuple(o.elements[i] for i in bad))
        assert _triple(is_boolean_algebra(o)) == want
        seen.add(want[0])
    assert seen == {True, False}


def test_compatibility_gather_alone_decides_a_pass():
    # with every complement sent to 1, x = (x ^ y) v (x ^ 1) holds in any
    # lattice, so the scan never runs; MO2 is not distributive
    els, leq, _ = mo(2)
    join, meet = FinitePoset(els, leq).tables()
    assert distributivity_failure(join, meet) is not None
    assert distributivity_failure(join, meet, [len(els) - 1] * len(els)) is None


def _scrambled_complements(ortho, rng):
    """An involution that crosses the complements of two elements, or pairs
    an element with itself: usually not antitone or not a complement."""
    ortho = list(ortho)
    a = rng.randrange(len(ortho))
    b = rng.choice([x for x in range(len(ortho)) if x not in (a, ortho[a])] or [a])
    if b == a or rng.random() < 0.3:
        ortho[ortho[a]], ortho[a] = ortho[a], a
        return ortho
    ca, cb = ortho[a], ortho[b]
    ortho[a], ortho[cb] = cb, a
    ortho[b], ortho[ca] = ca, b
    return ortho


def test_constructor_matches_reference_on_invalid_complements():
    rng = random.Random(11)
    seen = set()
    for o in _reference_hosts(rng):
        leq, els = o.poset.leq, o.elements
        variants = [_scrambled_complements(o.ortho, rng) for _ in range(5)]
        variants[4][rng.randrange(o.n)] = rng.randrange(o.n)  # usually not involutive
        for ortho in variants:
            expected = reference_ortho_validation(leq, ortho, els)
            try:
                OrthoPoset(o.poset, ortho)
                got = (True, "", ())
            except ValidationError as e:
                got = (False, e.code, e.witness)
            assert got == expected, (els, ortho)
            seen.add(expected[1])
    assert {"not-involutive", "not-antitone", "complement-law"} <= seen


def test_constructor_leaves_tables_unbuilt():
    o = as_orthoposet(boolean_algebra(3))
    assert o.poset._tables is None
    assert o.poset.meet(1, 2) == 0
    assert o.poset._tables is not None


def test_classify_implication_failure_is_internal(monkeypatch):
    import orthoview.ortho as ortho_mod
    from orthoview import InternalCheckError, Verdict

    monkeypatch.setattr(ortho_mod, "is_orthomodular_lattice", lambda o: Verdict(False, "forced"))
    with pytest.raises(InternalCheckError) as err:
        classify(zoo_ortho("boolean_4"))
    assert err.value.code == "classify-implication"


# -- meet tables read off join tables through the complement -----------------

_TRIANGLE_WITH_CHORD = [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a"), ("a", "g", "d")]


def _dual_hosts(rng):
    """Orthoposets with unbuilt tables: the zoo's, random draws and
    relabelled Greechie pastings, lattices and not (cycle 4 and the
    triangle lack joins, so their tables hold -1)."""
    hosts = [zoo_ortho(m.name) for m in zoo().values() if m.kind == "orthoposet"]
    hosts += [random_orthoposet(rng) for _ in range(20)]
    pastings = [greechie_cycle(4), greechie_cycle(5), greechie_chain(3), greechie_pasting(_TRIANGLE_WITH_CHORD)]
    return hosts + [as_orthoposet(shuffled(m, rng)) for m in pastings]


def _assert_reference_tables(p, join, meet):
    for got, order in ((join, p.leq), (meet, p.leq.T)):
        want = reference_least_bounds(order)
        assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable


def test_tables_read_meets_off_joins_as_the_reference_does():
    """`tables()` and `stack_tables` against the row-loop reference on leq
    and leq.T: for orthoposets built one at a time, in stacks of one size
    and as the views of canonical systems, whose posets carry the
    complement as `_dual`, and for stacks mixing them with bare posets,
    which take the second kernel call."""
    rng = random.Random(73)
    hosts = _dual_hosts(rng)
    assert any((o.poset.tables()[0] < 0).any() for o in hosts)
    for o in hosts:
        assert np.array_equal(o.poset._dual, o.ortho)
        _assert_reference_tables(o.poset, *o.poset.tables())
    fresh = _dual_hosts(rng)
    for ks in size_groups([o.n for o in fresh]).values():
        group = [fresh[k].poset for k in ks]
        bare = [FinitePoset(p.elements, p.leq) for p in group]
        bare.append(FinitePoset([f"e{i}" for i in range(group[0].n)], np.eye(group[0].n, dtype=bool)))
        mixed = group[: len(group) // 2] + bare
        for stack in (group, mixed):
            rng.shuffle(stack)
            join, meet = stack_tables(stack)
            for p, jn, mt in zip(stack, join, meet):
                _assert_reference_tables(p, jn, mt)
                assert np.array_equal(p.tables()[0], jn) and np.array_equal(p.tables()[1], mt)
    for name in ("MO2", "boolean_8", "greechie_cycle_5"):
        for o in build_canonical_rs(build_orthoposet(zoo_model(name).doc)).orthos:
            assert o.poset._dual is not None and o.poset._tables is not None
            _assert_reference_tables(o.poset, *o.poset.tables())


def test_one_kernel_call_per_orthoposet(monkeypatch, capsys):
    """With the complement known, the meet table is a gather: one
    `_least_bounds` call per `classify` of an orthoposet document, and one
    per size group in `stack_boolean`; a group holding a poset without a
    `_dual` makes the second call."""
    calls, kernel = [], poset_mod._least_bounds
    monkeypatch.setattr(poset_mod, "_least_bounds", lambda leq: calls.append(leq.shape) or kernel(leq))
    names = [m.name for m in zoo().values() if m.kind == "orthoposet"]
    for name in names:
        assert main(["classify", f"zoo:{name}"]) in (0, 1)
    assert len(calls) == len(names)
    rng = random.Random(79)
    orthos = [as_orthoposet(shuffled(m, rng)) for m in (boolean_algebra(2), mo(2), boolean_algebra(3), mo(3))]
    orthos += [as_orthoposet(shuffled(boolean_algebra(2), rng))]
    calls.clear()
    stack_boolean(orthos)
    assert calls == [(2, 4, 4), (1, 6, 6), (2, 8, 8)]
    for o in orthos:
        _assert_reference_tables(o.poset, *o.poset.tables())
    els, leq, ortho = mo(2)
    bare = FinitePoset(els, leq)
    calls.clear()
    stack_boolean([as_orthoposet(mo(2)), OrthoPoset._validated(bare, tuple(ortho), 0, len(els) - 1)])
    assert calls == [(2, 6, 6), (2, 6, 6)]
