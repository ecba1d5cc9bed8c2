import random
from collections import Counter

import numpy as np
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
    reference_distributivity,
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


def checked_candidates(monkeypatch):
    """The (atoms, carrier) of every candidate `enumerate_boolean_subalgebras`
    hands `_atom_joins`, the carrier None where it is refused, recorded as
    the calls are made."""
    import orthoview.decompose as dec

    calls, atom_joins = [], dec._atom_joins

    def record(join, ortho, least, atoms):
        carrier = atom_joins(join, ortho, least, atoms)
        calls.append((atoms, carrier))
        return carrier

    monkeypatch.setattr(dec, "_atom_joins", record)
    return calls


@FAMILIES
def test_enumeration_checks_one_candidate_per_subalgebra(model, monkeypatch):
    calls = checked_candidates(monkeypatch)
    o = as_orthoposet(shuffled(model, random.Random(len(model[0]))))
    subs = enumerate_boolean_subalgebras(o)
    admitted = [(carrier, atoms) for atoms, carrier in calls if carrier is not None]
    # each admitted candidate is one returned subalgebra, admitted as built
    # with the search's atoms, which the one-carrier check confirms
    assert sorted(admitted) == sorted((s.carrier, s.atoms) for s in subs)
    assert len({carrier for carrier, _ in admitted}) == len(admitted)
    for carrier, atoms in admitted:
        assert subalgebra(o, carrier).atoms == atoms


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


def random_pasting(rng, k):
    """A Greechie diagram of three-atom blocks: a loop of order k, then up
    to two blocks, each through one drawn atom and two new ones or through
    two drawn atoms that share no block (which closes more loops) and a new
    one. No two blocks share two atoms."""
    blocks = [(f"a{i}", f"b{i}", f"a{(i + 1) % k}") for i in range(k)]
    for j in range(rng.randint(0, 2)):
        atoms = sorted({a for b in blocks for a in b})
        u = rng.choice(atoms)
        apart = [v for v in atoms if v != u and not any(u in b and v in b for b in blocks)]
        blocks.append((u, rng.choice(apart), f"c{j}") if rng.random() < 0.5 else (u, f"c{j}", f"d{j}"))
    return blocks


def test_enumeration_matches_worklist_on_random_pastings(monkeypatch):
    """Random Greechie pastings with loops of order 3, 4 and 5-7, under
    shuffled labels. The shortest loop decides the kind: order 3 leaves the
    pasting no OMP, order 4 an OMP that is no OML, and order 5 or more an
    OML (Greechie 1971; McKay, Megill and Pavicic 2000). The search returns the
    worklist's (carrier, atoms) list in its order, each result passes the
    one-carrier check, and both outcomes of `_atom_joins` are reached."""
    calls = checked_candidates(monkeypatch)
    rng = random.Random(97)
    for k in [3, 4, 5, 6, 7] * 4:
        o = as_orthoposet(shuffled(greechie_pasting(random_pasting(rng, k)), rng))
        subs = enumerate_boolean_subalgebras(o, cap=128)
        assert [(s.carrier, s.atoms) for s in subs] == [(s.carrier, s.atoms) for s in reference_worklist_subalgebras(o)]
        for sub in subs:
            assert subalgebra(o, sub.carrier) == sub
    assert {carrier is None for _, carrier in calls} == {True, False}


def test_subalgebra_boolean_check_matches_reference():
    # closed carriers, so only distributivity and the cardinality decide
    rng = random.Random(29)
    hosts = [as_orthoposet(shuffled(greechie_cycle(4), rng)) for _ in range(3)]
    hosts += [as_orthoposet(shuffled(mo(3), rng)), as_orthoposet(shuffled(boolean_algebra(3), rng))]
    hosts += [random_orthoposet(rng) for _ in range(20)]
    outcomes = set()
    for o in hosts:
        for _ in range(10):
            carrier = reference_close(o, {rng.randrange(o.n) for _ in range(rng.randint(1, 3))})
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

    calls = checked_candidates(monkeypatch)
    monkeypatch.setattr(dec, "subalgebra", lambda o, carrier: pytest.fail("enumeration re-checks a carrier"))
    subs = enumerate_boolean_subalgebras(zoo_ortho("greechie_cycle_5"))
    assert len(subs) == 16
    # `_atom_joins` decides each result once, on its own atoms, and no
    # carrier check runs after it
    assert sorted(atoms for atoms, _ in calls) == sorted(s.atoms for s in subs)
    assert sorted(carrier for _, carrier in calls) == sorted(s.carrier for s in subs)


def orthogonal_sets(o):
    """Every set of pairwise orthogonal nonzero elements of o, as a sorted
    tuple, by brute force: each element either joins the set or not."""
    nonzero = [a for a in range(o.n) if a != o.least]
    sets = [()]
    for a in nonzero:
        sets += [s + (a,) for s in sets if all(o.poset.le(a, o.ortho[b]) for b in s)]
    return sets


def test_atom_joins_admit_exactly_the_boolean_closures():
    """The lemma behind the enumeration's candidates. Let A be nonzero,
    pairwise orthogonal elements whose join, taken one at a time in index
    order, is 1. The host joins of A's subsets form a boolean subalgebra
    exactly when the closure of A under the complement and host joins and
    meets does, and then both are the same carrier: every member of the
    joins is in the closure, and a boolean closure with the partition of
    unity A is the joins of A's subsets. Checked on every such A of small
    hosts, with the closure and the boolean check as plain loops.

    On an orthoposet host `_atom_joins` alone already decides: the join of
    c[X] and c[Y] is c[X | Y], the least upper bound of the atoms of both,
    so once each c[X] has the complement c[-1 - X] the meets are c[X & Y]
    by de Morgan, and the joins are a boolean algebra of 2^|A| elements."""
    from orthoview.decompose import _atom_joins

    rng = random.Random(83)
    hosts = [build_orthoposet(m.doc) for m in zoo().values() if m.kind == "orthoposet"]
    hosts += [random_orthoposet(rng) for _ in range(30)]
    hosts += [as_orthoposet(shuffled(m, rng)) for m in [double_chain(h) for h in range(1, 6)] + [greechie_cycle(4)]]
    outcomes = Counter()
    for o in hosts:
        join, ortho = o.poset.tables()[0].tolist(), list(o.ortho)
        for atoms in orthogonal_sets(o):
            j = o.least
            for a in atoms:
                j = None if j is None else o.poset.join(j, a)
            if j != o.greatest:
                continue
            closed = reference_close(o, atoms)
            want = closed is not None and reference_boolean_carrier(o, closed)[0]
            carrier = _atom_joins(join, ortho, o.least, atoms)
            try:
                sub = subalgebra(o, carrier) if carrier is not None else None
            except ValidationError:
                sub = None
            assert (sub is not None) == want == (carrier is not None), (o.elements, atoms)
            if want:
                assert sub.carrier == carrier == tuple(sorted(closed))
                assert sub.atoms == atoms
            outcomes[want] += 1
    assert outcomes[True] > 100 and outcomes[False] > 20, outcomes


def prefix_suffix_host(k):
    """The subsets of {1..k} that are empty, whole, a prefix {1..i}, a
    suffix {i..k}, a singleton or a co-singleton, ordered by inclusion with
    the set complement: an orthoposet of about 4k elements, since x and x'
    have no other common bound than the empty and the whole set. Its
    singletons, in index order, are an orthogonal set whose prefix joins
    {1..i} all exist and end at 1, but {1} and {3} have no join."""
    from orthoview import FinitePoset, OrthoPoset

    whole = frozenset(range(1, k + 1))
    sets = {frozenset(), whole}
    for i in range(1, k + 1):
        sets |= {frozenset(range(1, i + 1)), frozenset(range(i, k + 1)), frozenset({i}), whole - {i}}
    sets = sorted(sets, key=lambda x: (len(x), sorted(x)))
    leq = [[x <= y for y in sets] for x in sets]
    names = ["".join(f"{i}." for i in sorted(x)) or "0" for x in sets]
    return OrthoPoset(FinitePoset(names, leq), [sets.index(whole - x) for x in sets]), sets


def test_atom_joins_refuse_at_the_first_missing_join():
    """A candidate is refused at its first missing join, so the joins of
    its atoms never outgrow 2n entries: while every join exists they are
    distinct. Building all 2^k joins of the prefix/suffix host's k
    singletons first would ask for 2^30 entries here; each join row is read
    through a wrapper that counts its lookups, so the widest count is the
    longest c that one atom's joins read."""
    from orthoview.decompose import _atom_joins

    o, sets = prefix_suffix_host(30)
    singletons = [sets.index(frozenset({i})) for i in range(1, 31)]
    assert singletons == sorted(singletons)

    class Widest:
        def __init__(self, table):
            self.table, self.widest = table, 0

        def __getitem__(self, a):
            return Row(self, self.table[a])

    class Row:
        def __init__(self, table, row):
            self.table, self.row, self.reads = table, row, 0

        def __getitem__(self, x):
            self.reads += 1
            self.table.widest = max(self.table.widest, self.reads)
            assert self.table.widest <= o.n, self.table.widest
            return self.row[x]

    join = Widest(o.poset.tables()[0].tolist())
    assert _atom_joins(join, list(o.ortho), o.least, singletons) is None
    assert join.widest == 4  # {1} | {3} is missing from c = (0, {1}, {2}, {1, 2})
    subs = enumerate_boolean_subalgebras(o, cap=128)
    assert carriers(o, subs) == carriers(o, reference_worklist_subalgebras(o))
    assert roundtrip_check(o, cap=128).ok


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


def test_subalgebra_refuses_carrier_values_that_are_no_integers():
    """A carrier is read by `poset._as_index`: a float, a string or a bool
    is no element index, and raises unknown-element naming the value as
    given. int() read each of these as the element 1 (a), so {0, a, c', 1}
    raised not-ortho-closed. Among several unknown values the least index
    is named, a value that is no integer reading as -1."""
    o = zoo_ortho("boolean_8")
    assert [o.elements[i] for i in (0, 1, 6, 7)] == ["0", "a", "c'", "1"]
    for v in (1.5, 1.0, "1", True, np.float64(1)):
        with pytest.raises(ValidationError) as err:
            subalgebra(o, [0, 7, v, 6])
        assert (err.value.code, err.value.witness) == ("unknown-element", (v,))
        assert type(err.value.witness[0]) is type(v) and str(err.value) == f"no element at index {v}"
    for carrier, named in (([0, 7, "x", -3, 9], -3), ([0, 7, 9, "x"], "x"), ([0, 7, 1.5, True], 1.5)):
        with pytest.raises(ValidationError) as err:
            subalgebra(o, carrier)
        assert (err.value.code, err.value.witness) == ("unknown-element", (named,))
    assert subalgebra(o, [0, 7, np.int64(1), 4]).carrier == (0, 1, 4, 7)


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
    such a host is a carrier with the wrong cardinality."""
    from orthoview import FinitePoset, OrthoPoset

    p = FinitePoset(["0", "a", "1"], [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    return OrthoPoset._validated(p, (2, 2, 0), 0, 2)


def test_forged_chain_keeps_the_kernel_meet_table():
    """A complement installed without validation is no `_dual`: the
    forged chain's meet table comes from the kernel on leq.T, alone or in
    a stack, not from its complement, which is not antitone (read through
    it, a ^ a would be 0)."""
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


def test_subalgebra_matches_reference_on_mixed_carriers():
    rng = random.Random(61)
    hosts = [build_orthoposet(m.doc) for m in zoo().values() if m.kind == "orthoposet"]
    hosts += [random_orthoposet(rng) for _ in range(30)]
    triangle_with_chord = [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a"), ("a", "g", "d")]
    pastings = [greechie_cycle(4), greechie_chain(3), greechie_pasting(triangle_with_chord)]
    hosts += [as_orthoposet(shuffled(m, rng)) for m in pastings]
    codes = Counter()
    for o in hosts:
        carriers = mixed_carriers(o, rng)
        for carrier in carriers:
            ok, code, witness, atoms = reference_subalgebra(o, carrier)
            codes[code] += 1
            if ok:
                got = subalgebra(o, carrier)
                assert (got.carrier, got.atoms) == (carrier, atoms)
                continue
            with pytest.raises(ValidationError) as err:
                subalgebra(o, carrier)
            assert (err.value.code, err.value.witness) == (code, witness)
    laws = ("unknown-element", "missing-bounds", "not-ortho-closed", "join-meet-missing", "not-closed", "not-boolean")
    assert set(codes) == {"", *laws}


def test_closed_carriers_that_pass_foulis_holland_are_boolean():
    """The theorem that lets `subalgebra` stop at Foulis-Holland, with
    no cardinality law. On an orthoposet, a carrier that holds the bounds
    and is closed under the complement and the host joins and meets is an
    ortholattice in the induced order, whose joins and meets are the
    host's. If it also passes Foulis-Holland, x = (x ^ y) v (x ^ y') for
    all x and y in it, it is a boolean algebra (Kalmbach, *Orthomodular
    Lattices*, 1983): distributive, with 2^|atoms| elements. Each side is
    checked here by plain loops, on the carriers of the zoo, random and
    pasted hosts, and both outcomes of Foulis-Holland are reached. The
    forged chain, which is no orthoposet, shows that the host must be
    one."""
    rng = random.Random(71)
    hosts = [build_orthoposet(m.doc) for m in zoo().values() if m.kind == "orthoposet"]
    hosts += [random_orthoposet(rng) for _ in range(30)]
    triangle_with_chord = [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a"), ("a", "g", "d")]
    pastings = [greechie_cycle(4), greechie_cycle(5), greechie_chain(3), greechie_pasting(triangle_with_chord)]
    hosts += [as_orthoposet(shuffled(m, rng)) for m in pastings]

    def foulis_holland(o, carrier):
        """None if carrier breaks a closure hypothesis, else whether it
        passes Foulis-Holland."""
        inside = set(carrier)
        if not inside <= set(range(o.n)) or not {o.least, o.greatest} <= inside:
            return None
        if not all(o.ortho[x] in inside for x in carrier):
            return None
        if not all(o.poset.join(x, y) in inside and o.poset.meet(x, y) in inside for x in carrier for y in carrier):
            return None
        return all(o.poset.join(o.poset.meet(x, y), o.poset.meet(x, o.ortho[y])) == x for x in carrier for y in carrier)

    def atoms(o, carrier):
        return int((o.poset.leq[np.ix_(carrier, carrier)].sum(axis=0) == 2).sum())

    seen = Counter()
    for o in hosts:
        for carrier in mixed_carriers(o, rng):
            fh = foulis_holland(o, carrier)
            seen[fh] += 1
            if fh:
                leq = o.poset.leq[np.ix_(carrier, carrier)]
                assert reference_distributivity(leq, [o.elements[x] for x in carrier])[0]
                assert len(carrier) == 2 ** atoms(o, carrier)
            if fh is not None:
                try:
                    subalgebra(o, carrier)
                    code = ""
                except ValidationError as err:
                    code = err.code
                assert code == ("" if fh else "not-boolean")
    assert seen[True] > 500 and seen[False] > 100, seen
    o = forged_chain()
    assert foulis_holland(o, (0, 1, 2)) and 3 != 2 ** atoms(o, (0, 1, 2))


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
    # True has __index__ and lies in 0..n-1, but is no index either
    for x in (-1, o.n, True):
        with pytest.raises(ValidationError) as err:
            upper_projection(o, block_a, x)
        assert (err.value.code, err.value.witness) == ("unknown-element", (x,))


def test_compatible_refuses_unknown_elements():
    # True and 1.0 would read element 1, an atom, and n would find no
    # carrier holding it; each is refused in either place
    o = zoo_ortho("MO2")
    subs = enumerate_boolean_subalgebras(o)
    for bad in (-1, o.n, True, 1.0):
        for x, y in ((bad, 0), (0, bad)):
            with pytest.raises(ValidationError) as err:
                compatible(o, x, y, subs)
            assert (err.value.code, err.value.witness) == ("unknown-element", (bad,))


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
