import random
from collections import Counter

import pytest

from orthoview import (
    ValidationError,
    build_canonical_rs,
    build_orthoposet,
    build_presum,
    compatible,
    enumerate_boolean_subalgebras,
    find_order_isomorphism,
    quotient_sum,
    roundtrip_check,
    subalgebra,
    sum_as_orthoposet,
    upper_projection,
    zoo,
    zoo_model,
)

from _models import (
    as_orthoposet,
    boolean_algebra,
    brute_force_subalgebras,
    double_chain,
    greechie_chain,
    greechie_cycle,
    greechie_pasting,
    mo,
    product,
    random_orthoposet,
    reference_boolean_carrier,
    reference_close,
    reference_canonical_tables,
    reference_enumerate_boolean_subalgebras,
    reference_subalgebra,
    reference_subalgebra_pairs,
    reference_worklist_subalgebras,
    shuffled,
)


def zoo_ortho(name):
    return build_orthoposet(zoo_model(name).doc)


def carriers(o, subs):
    return [tuple(o.elements[i] for i in s.carrier) for s in subs]


def test_boolean_4_has_two_subalgebras():
    o = zoo_ortho("boolean_4")
    subs = enumerate_boolean_subalgebras(o)
    assert carriers(o, subs) == [("0", "1"), ("0", "a", "a'", "1")]


def test_mo2_has_three_subalgebras():
    o = zoo_ortho("MO2")
    subs = enumerate_boolean_subalgebras(o)
    assert carriers(o, subs) == [("0", "1"), ("0", "a", "a'", "1"), ("0", "b", "b'", "1")]
    assert [tuple(o.elements[i] for i in s.atoms) for s in subs] == [("1",), ("a", "a'"), ("b", "b'")]


def test_hexagon_has_three_subalgebras():
    o = zoo_ortho("O6")
    subs = enumerate_boolean_subalgebras(o)
    assert len(subs) == 3
    assert {frozenset(c) for c in carriers(o, subs)} == {
        frozenset({"0", "1"}),
        frozenset({"0", "a", "a'", "1"}),
        frozenset({"0", "b", "b'", "1"}),
    }


def test_greechie_cycle_5_block_structure():
    o = zoo_ortho("greechie_cycle_5")
    subs = enumerate_boolean_subalgebras(o)
    # the bounds, one 4-element algebra per complement pair, five blocks
    sizes = sorted(s.size for s in subs)
    assert sizes == [2] + [4] * 10 + [8] * 5


def test_enumeration_matches_brute_force_on_zoo():
    for m in zoo().values():
        if m.kind != "orthoposet":
            continue
        o = build_orthoposet(m.doc)
        if o.n > 12:
            continue
        lib = {frozenset(s.carrier) for s in enumerate_boolean_subalgebras(o)}
        assert lib == brute_force_subalgebras(o)


def test_one_element_host_is_its_own_subalgebra():
    # least == greatest: the closure of the only seed is the seed itself
    o = as_orthoposet(boolean_algebra(0))
    subs = enumerate_boolean_subalgebras(o)
    assert [(s.carrier, s.atoms) for s in subs] == [((0,), ())]
    assert {frozenset(s.carrier) for s in subs} == brute_force_subalgebras(o)
    assert_matches_reference(o)
    assert build_canonical_rs(o, subs=subs).rs.views == ("B0",)


def test_enumeration_matches_brute_force_on_random_models():
    rng = random.Random(23)
    for _ in range(10):
        o = random_orthoposet(rng)
        lib = {frozenset(s.carrier) for s in enumerate_boolean_subalgebras(o)}
        assert lib == brute_force_subalgebras(o)


def assert_matches_reference(o):
    subs = enumerate_boolean_subalgebras(o)
    # carriers, atoms and (size, carrier) order all agree
    assert subs == reference_enumerate_boolean_subalgebras(o)
    for sub in subs:
        assert subalgebra(o, sub.carrier) == sub


def test_enumeration_matches_reference_on_zoo():
    for m in zoo().values():
        if m.kind == "orthoposet":
            assert_matches_reference(build_orthoposet(m.doc))


def test_enumeration_matches_reference_on_random_models():
    rng = random.Random(41)
    for _ in range(40):
        assert_matches_reference(random_orthoposet(rng))


FAMILIES = pytest.mark.parametrize(
    "model",
    [greechie_cycle(k) for k in (4, 5, 6, 7)] + [mo(15), double_chain(7), double_chain(15), boolean_algebra(4)],
    ids=["greechie_cycle_4", "greechie_cycle_5", "greechie_cycle_6", "greechie_cycle_7", "MO15", "double_chain_7", "double_chain_15", "boolean_16"],
)


@FAMILIES
def test_enumeration_matches_reference_on_relabelled_families(model):
    assert_matches_reference(as_orthoposet(shuffled(model, random.Random(len(model[0])))))


@FAMILIES
def test_enumeration_closes_once_per_subalgebra(model, monkeypatch):
    import orthoview.decompose as dec

    seeds = []
    original = dec._close
    monkeypatch.setattr(dec, "_close", lambda o, seed: seeds.append(seed) or original(o, seed))
    subs = enumerate_boolean_subalgebras(as_orthoposet(shuffled(model, random.Random(len(model[0])))))
    # each closure starts from the atoms of the subalgebra it returns
    assert sorted(map(sorted, seeds)) == sorted(sorted(s.atoms) for s in subs)


def stirling2(k, m):
    """Partitions of k labelled atoms into m blocks."""
    if k == m:
        return 1
    if m == 0:
        return 0
    return m * stirling2(k - 1, m) + stirling2(k - 1, m - 1)


@pytest.mark.parametrize("k", [5, 6, 7])
def test_boolean_algebra_has_bell_many_subalgebras(k):
    # one subalgebra of size 2^m per partition of the k atoms into m blocks
    subs = enumerate_boolean_subalgebras(as_orthoposet(shuffled(boolean_algebra(k), random.Random(k))), cap=128)
    assert len(subs) == {5: 52, 6: 203, 7: 877}[k]
    assert len({s.carrier for s in subs}) == len(subs)
    assert Counter(s.size for s in subs) == {2 ** m: stirling2(k, m) for m in range(1, k + 1)}


@pytest.mark.parametrize("k", [8, 16])
def test_greechie_cycle_has_3k_plus_1_subalgebras(k):
    # the bounds, one 4-element algebra per atom, one 8-element algebra per block
    subs = enumerate_boolean_subalgebras(as_orthoposet(shuffled(greechie_cycle(k), random.Random(k))), cap=128)
    assert len(subs) == 3 * k + 1
    assert len({s.carrier for s in subs}) == len(subs)
    assert sorted(s.size for s in subs) == [2] + [4] * (2 * k) + [8] * k


@pytest.mark.parametrize(
    "model", [boolean_algebra(5), greechie_cycle(16), mo(63)], ids=["boolean_32", "greechie_cycle_16", "MO63"]
)
def test_enumeration_matches_worklist_on_large_hosts(model):
    o = as_orthoposet(shuffled(model, random.Random(len(model[0]))))
    assert enumerate_boolean_subalgebras(o, cap=128) == reference_worklist_subalgebras(o)


def test_closure_matches_reference():
    from orthoview.decompose import _close

    rng = random.Random(13)
    hosts = [as_orthoposet(shuffled(greechie_cycle(4), rng)) for _ in range(3)]
    hosts += [random_orthoposet(rng) for _ in range(20)]
    outcomes = set()
    for o in hosts:
        for _ in range(10):
            seed = {rng.randrange(o.n) for _ in range(rng.randint(1, 3))}
            closed = _close(o, seed)
            assert closed == reference_close(o, seed)
            outcomes.add(closed is None)
    assert outcomes == {True, False}


def test_subalgebra_boolean_check_matches_reference():
    # closed carriers, so only distributivity and the cardinality decide
    from orthoview.decompose import _close

    rng = random.Random(29)
    hosts = [as_orthoposet(shuffled(greechie_cycle(4), rng)) for _ in range(3)]
    hosts += [as_orthoposet(shuffled(mo(3), rng)), as_orthoposet(shuffled(boolean_algebra(3), rng))]
    hosts += [random_orthoposet(rng) for _ in range(20)]
    outcomes = set()
    for o in hosts:
        for _ in range(10):
            carrier = _close(o, {rng.randrange(o.n) for _ in range(rng.randint(1, 3))})
            if carrier is None:
                continue
            ok, code, witness, atoms = reference_boolean_carrier(o, carrier)
            try:
                got = (True, "", (), subalgebra(o, carrier).atoms)
            except ValidationError as err:
                got = (False, err.code, err.witness, ())
            assert got == (ok, code, witness, atoms)
            outcomes.add(ok)
    assert outcomes == {True, False}


def test_enumeration_validates_each_result_once(monkeypatch):
    import orthoview.decompose as dec

    closures, calls = [], []
    close, check = dec._close, dec._check_carriers

    def recorded_close(o, seed):
        c = close(o, seed)
        if c is not None:
            closures.append(c)
        return c

    monkeypatch.setattr(dec, "_close", recorded_close)
    monkeypatch.setattr(dec, "_check_carriers", lambda o, cs, **kw: calls.append(list(cs)) or check(o, cs, **kw))
    subs = enumerate_boolean_subalgebras(zoo_ortho("greechie_cycle_5"))
    assert len(subs) == 16
    assert len(calls) == 1
    # every closure, as a sorted carrier, once
    assert Counter(calls[0]) == Counter(tuple(sorted(c)) for c in closures)
    assert len(calls[0]) == len(closures)


def test_cap_exceeded():
    o = zoo_ortho("greechie_cycle_5")
    with pytest.raises(ValidationError) as err:
        enumerate_boolean_subalgebras(o, cap=12)
    assert err.value.code == "cap-exceeded"


def test_subalgebra_validation_errors():
    o = zoo_ortho("MO2")
    with pytest.raises(ValidationError) as err:
        subalgebra(o, [o.idx("a"), o.idx("a'")])
    assert err.value.code == "missing-bounds"
    with pytest.raises(ValidationError) as err:
        subalgebra(o, [o.idx("0"), o.idx("a"), o.idx("1")])
    assert err.value.code == "not-ortho-closed"
    with pytest.raises(ValidationError) as err:
        subalgebra(o, [o.idx("0"), o.idx("a"), o.idx("a'"), o.idx("b"), o.idx("b'"), o.idx("1")])
    assert err.value.code == "not-boolean"
    o = zoo_ortho("greechie_cycle_4")
    with pytest.raises(ValidationError) as err:
        subalgebra(o, [o.idx(e) for e in ("0", "a0", "a0'", "a2", "a2'", "1")])
    assert (err.value.code, err.value.witness) == ("join-meet-missing", ("a0", "a2"))
    o = as_orthoposet(boolean_algebra(3))
    with pytest.raises(ValidationError) as err:
        subalgebra(o, (0, 1, 2, 5, 6, 7))
    assert (err.value.code, err.value.witness) == ("not-closed", ("s001", "s010"))
    # indices outside 0..n-1 are refused before any law reads them
    o = zoo_ortho("MO2")
    for carrier, index in (([0, 3, 3, -1], -1), ([0, 3, 7], 7)):
        with pytest.raises(ValidationError) as err:
            subalgebra(o, carrier)
        assert (err.value.code, err.value.witness) == ("unknown-element", (index,))


def test_subalgebra_names_the_first_distributivity_failure():
    # whole non-boolean hosts are closed carriers: the compatibility test
    # fails on each, and the scan names the reference triple
    o = zoo_ortho("MO2")
    with pytest.raises(ValidationError) as err:
        subalgebra(o, [o.idx(e) for e in ("0", "a", "a'", "b", "b'", "1")])
    assert (err.value.code, err.value.witness) == ("not-boolean", ("a", "a'", "b"))
    rng = random.Random(31)
    models = [double_chain(3), greechie_cycle(5), product(boolean_algebra(1), mo(2)), mo(4)]
    for o in [zoo_ortho("O6")] + [as_orthoposet(shuffled(m, rng)) for m in models]:
        with pytest.raises(ValidationError) as err:
            subalgebra(o, range(o.n))
        assert (False, err.value.code, err.value.witness) == reference_boolean_carrier(o, range(o.n))[:3]


def test_subalgebra_pair_scan_matches_reference():
    # ortho-closed carriers with the bounds, so the pair scan decides first
    rng = random.Random(7)
    hosts = [as_orthoposet(shuffled(greechie_cycle(4), rng)) for _ in range(4)]
    hosts += [random_orthoposet(rng) for _ in range(20)]
    for o in hosts:
        for _ in range(10):
            carrier = {o.least, o.greatest}
            for x in (rng.randrange(o.n) for _ in range(rng.randint(1, 3))):
                carrier |= {x, o.ortho[x]}
            ok, code, witness = reference_subalgebra_pairs(o, carrier)
            try:
                subalgebra(o, carrier)
                got = (True, "", ())
            except ValidationError as err:
                got = (False, err.code, err.witness)
            if ok:
                assert got[1] not in ("join-meet-missing", "not-closed")
            else:
                assert got == (ok, code, witness)


def forged_chain():
    """0 < a < 1 with the complement 0 -> 1, a -> 1, 1 -> 0, installed
    without validation: not an orthoposet, but its whole carrier passes
    every law up to Foulis-Holland and has one atom for three elements. On
    a valid host a carrier that passes Foulis-Holland is boolean, so only
    such a host reaches bad-cardinality."""
    from orthoview import FinitePoset, OrthoPoset

    p = FinitePoset(["0", "a", "1"], [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    return OrthoPoset._validated(p, (2, 2, 0), 0, 2)


def test_forged_chain_keeps_the_kernel_meet_table():
    """A complement installed without validation is no `_dual`: the
    forged chain's meet table comes from the kernel on leq.T, alone or in
    a stack, not from its complement, which is not antitone (read through
    it, a ^ a would be 0)."""
    import numpy as np

    from orthoview.ortho import stack_boolean
    from orthoview.poset import _bound_tables, _least_bounds

    alone, stacked = forged_chain(), forged_chain()
    stack_boolean([stacked])
    for o in (alone, stacked):
        join, meet = o.poset.tables()
        assert o.poset._dual is None
        assert np.array_equal(meet, _least_bounds(o.poset.leq.T)) and meet[1, 1] == 1
        assert _bound_tables(o.poset.leq, np.array(o.ortho))[1][1, 1] == 0


def mixed_carriers(o, rng):
    """Carriers of every size and kind on host o, shuffled so that each size
    group is spread over the list: subsets, ortho-closed sets, closures,
    subalgebras, the whole host and sets with an index outside 0..n-1."""
    carriers = [sub.carrier for sub in enumerate_boolean_subalgebras(o)] + [range(o.n)]
    for _ in range(12):
        seed = {rng.randrange(o.n) for _ in range(rng.randint(1, 3))}
        closed = reference_close(o, seed)
        carriers += [seed, seed | {o.least, o.greatest} | {o.ortho[x] for x in seed}]
        carriers += [closed] if closed is not None else []
    carriers += [{o.least, o.greatest, rng.choice([-1, o.n, o.n + 3])}, {rng.randrange(o.n), -2}]
    carriers = [tuple(sorted(set(c))) for c in carriers]
    rng.shuffle(carriers)
    return carriers


def test_stacked_carrier_check_matches_reference_and_one_at_a_time():
    from orthoview.decompose import _check_carriers

    rng = random.Random(61)
    hosts = [build_orthoposet(m.doc) for m in zoo().values() if m.kind == "orthoposet"]
    hosts += [random_orthoposet(rng) for _ in range(30)]
    triangle_with_chord = [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a"), ("a", "g", "d")]
    pastings = [greechie_cycle(4), greechie_chain(3), greechie_pasting(triangle_with_chord)]
    hosts += [as_orthoposet(shuffled(m, rng)) for m in pastings]
    codes = Counter()
    for o in hosts:
        carriers = mixed_carriers(o, rng)
        named, plain = _check_carriers(o, carriers, name=True), _check_carriers(o, carriers)
        for carrier, got, bare in zip(carriers, named, plain):
            ok, code, witness, atoms = reference_subalgebra(o, carrier)
            codes[code] += 1
            if ok:
                assert got == bare == subalgebra(o, carrier)
                assert (got.carrier, got.atoms) == (carrier, atoms)
                continue
            assert bare is None
            with pytest.raises(ValidationError) as err:
                subalgebra(o, carrier)
            assert (got.code, got.witness, str(got)) == (err.value.code, err.value.witness, str(err.value))
            assert (got.code, got.witness) == (code, witness)
    laws = ("unknown-element", "missing-bounds", "not-ortho-closed", "join-meet-missing", "not-closed", "not-boolean")
    assert set(codes) == {"", *laws}
    o = forged_chain()
    (got,) = _check_carriers(o, [(0, 1, 2)], name=True)
    assert got.code == reference_subalgebra(o, range(3))[1] == "bad-cardinality"
    assert str(got) == "|carrier|=3 != 2^1"


def test_stacked_projections_match_the_per_subalgebra_loop():
    from orthoview import InternalCheckError
    from orthoview.decompose import _projections

    rng = random.Random(67)
    hosts = [zoo_ortho("greechie_cycle_5"), as_orthoposet(shuffled(boolean_algebra(4), rng))]
    hosts += [random_orthoposet(rng) for _ in range(10)]
    for o in hosts:
        subs = list(enumerate_boolean_subalgebras(o))
        rng.shuffle(subs)
        proj = _projections(o, [sub.carrier for sub in subs], range(o.n))
        for k, sub in enumerate(subs):
            assert proj[k].tolist() == _projections(o, [sub.carrier], range(o.n))[0].tolist()
        tables = reference_canonical_tables(o, subs)
        for i in range(len(subs)):
            for j, sub in enumerate(subs):
                assert tuple(proj[i, list(sub.carrier)].tolist()) == tables[(f"B{i}", f"B{j}")]
    o = as_orthoposet(boolean_algebra(3))
    # the size-4 stack is read first, but the size-6 carrier comes first in
    # the list: (0, 1, 2, 5, 6, 7) fails first at s100, (0, 3, 6, 7) at s010
    carriers = [(0, 1, 6, 7), (0, 1, 2, 5, 6, 7), (0, 3, 6, 7)]
    for fakes, witness in ((carriers, "s100"), (carriers[::2], "s010")):
        with pytest.raises(InternalCheckError) as err:
            _projections(o, fakes, range(o.n))
        assert (err.value.code, err.value.witness) == ("bad-projection", (witness,))


def test_upper_projection_values():
    o = zoo_ortho("MO2")
    subs = enumerate_boolean_subalgebras(o)
    block_a = subs[1]
    assert o.elements[block_a.carrier[1]] == "a"
    # members project to themselves
    for i in block_a.carrier:
        assert upper_projection(o, block_a, i) == i
    # the other block's atom is only dominated by the top
    assert upper_projection(o, block_a, o.idx("b")) == o.greatest
    # the two-element view sees everything nonzero as 1
    bounds_view = subs[0]
    for x in range(o.n):
        expected = o.least if x == o.least else o.greatest
        assert upper_projection(o, bounds_view, x) == expected


def test_upper_projection_refuses_unknown_elements():
    # MO2 has six elements: -1 must not wrap round to the top, nor 6 read
    # past the order matrix
    o = zoo_ortho("MO2")
    block_a = enumerate_boolean_subalgebras(o)[1]
    for x in (-1, o.n):
        with pytest.raises(ValidationError) as err:
            upper_projection(o, block_a, x)
        assert (err.value.code, err.value.witness) == ("unknown-element", (x,))


def test_upper_projection_outside_a_subalgebra_is_internal():
    from orthoview import BooleanSubalgebra, InternalCheckError

    o = as_orthoposet(boolean_algebra(3))
    # {0, ab, bc, 1} is not meet-closed: ab ^ bc = b leaves it
    fake = BooleanSubalgebra((0, 3, 6, 7), (3, 6))
    with pytest.raises(InternalCheckError) as err:
        upper_projection(o, fake, 2)
    assert err.value.code == "bad-projection"


def test_canonical_tables_are_least_carrier_elements_above():
    # every table entry, re-derived by a plain scan of the order matrix
    for o in (zoo_ortho("greechie_cycle_4"), zoo_ortho("O6"), as_orthoposet(boolean_algebra(3))):
        subs = enumerate_boolean_subalgebras(o)
        brs = build_canonical_rs(o, subs=subs)
        leq = o.poset.leq
        for vi, bi in zip(brs.views, subs):
            for vj, bj in zip(brs.views, subs):
                for k, x in enumerate(bj.carrier):
                    above = [y for y in bi.carrier if leq[x, y]]
                    least = [u for u in above if all(leq[u, y] for y in above)]
                    assert bi.carrier[brs.rs.transforms[(vi, vj)][k]] == least[0] == upper_projection(o, bi, x)


def test_canonical_rs_over_a_non_subalgebra_is_internal():
    from orthoview import BooleanSubalgebra, InternalCheckError

    o = as_orthoposet(boolean_algebra(3))
    # {0, a, b, a', b', 1} is ortho-closed, but c sits under both a' and b'
    fake = BooleanSubalgebra((0, 1, 2, 5, 6, 7), (1, 2))
    with pytest.raises(InternalCheckError) as err:
        build_canonical_rs(o, subs=(fake,))
    assert err.value.code == "bad-projection"
    assert err.value.witness == (o.elements[4],)


def test_canonical_rs_validates():
    # construction re-runs both validators internally; failure would raise
    for name in ("boolean_4", "MO2", "O6"):
        brs = build_canonical_rs(zoo_ortho(name))
        assert len(brs.views) == len(enumerate_boolean_subalgebras(zoo_ortho(name)))


def test_compatibility():
    o = zoo_ortho("MO2")
    subs = enumerate_boolean_subalgebras(o)
    for x in range(o.n):
        assert compatible(o, x, o.ortho[x], subs)
    assert not compatible(o, o.idx("a"), o.idx("b"), subs)
    o6 = zoo_ortho("O6")
    a, b = o6.idx("a"), o6.idx("b")
    assert o6.poset.le(a, b)
    assert not compatible(o6, a, b, enumerate_boolean_subalgebras(o6))


def test_roundtrip_passes_on_zoo():
    for name in ("boolean_8", "MO2", "O6"):
        o = zoo_ortho(name)
        result = roundtrip_check(o)
        assert result.ok, (name, result.stage, result.witness)
        assert len(result.isomorphism) == o.n


def test_roundtrip_isomorphism_reverifies():
    # feed the returned map back through the independent verifier
    o = zoo_ortho("MO2")
    result = roundtrip_check(o)
    brs = build_canonical_rs(o)
    s = quotient_sum(build_presum(brs.rs))
    candidate = dict(result.isomorphism)
    assert find_order_isomorphism(s.order, o.poset, candidate) == candidate
    # and the complement is carried over
    so = sum_as_orthoposet(s, brs)
    for c in range(so.n):
        mapped = candidate[s.label(c)]
        assert candidate[s.label(so.ortho[c])] == o.elements[o.ortho[o.idx(mapped)]]


def test_roundtrip_on_random_models():
    rng = random.Random(31)
    for _ in range(8):
        o = random_orthoposet(rng)
        assert roundtrip_check(o).ok
