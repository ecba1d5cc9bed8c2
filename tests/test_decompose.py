import random

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

from _models import as_orthoposet, boolean_algebra, brute_force_subalgebras, random_orthoposet


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


def test_enumeration_matches_brute_force_on_random_models():
    rng = random.Random(23)
    for _ in range(10):
        o = random_orthoposet(rng)
        lib = {frozenset(s.carrier) for s in enumerate_boolean_subalgebras(o)}
        assert lib == brute_force_subalgebras(o)


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


def test_upper_projection_outside_a_subalgebra_is_internal():
    from orthoview import BooleanSubalgebra, InternalCheckError

    o = as_orthoposet(boolean_algebra(3))
    # {0, ab, bc, 1} is not meet-closed: ab ^ bc = b leaves it
    fake = BooleanSubalgebra((0, 3, 6, 7), (3, 6))
    with pytest.raises(InternalCheckError) as err:
        upper_projection(o, fake, 2)
    assert err.value.code == "bad-projection"


def test_canonical_rs_validates():
    # construction re-runs both validators internally; failure would raise
    for name in ("boolean_4", "MO2", "O6"):
        brs = build_canonical_rs(zoo_ortho(name))
        assert len(brs.views) == len(enumerate_boolean_subalgebras(zoo_ortho(name)))


def test_compatibility():
    o = zoo_ortho("MO2")
    for x in range(o.n):
        assert compatible(o, x, o.ortho[x])
    assert not compatible(o, o.idx("a"), o.idx("b"))
    o6 = zoo_ortho("O6")
    a, b = o6.idx("a"), o6.idx("b")
    assert o6.le(a, b)
    assert not compatible(o6, a, b)


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
