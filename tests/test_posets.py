import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orthoview import FinitePoset, ValidationError, find_order_isomorphism, zoo_model, build_orthoposet, build_repsys
from orthoview.poset import _closure, _compose, _least_bounds

from _models import (
    boolean_algebra,
    double_chain,
    greechie_chain,
    greechie_cycle,
    mo,
    oracle_join,
    oracle_meet,
    random_orthoposet,
    reference_closure,
    reference_least_bounds,
)


def test_singleton():
    p = FinitePoset.from_covers(["x"], [])
    assert p.n == 1
    assert p.le(0, 0)


def test_three_chain_closure():
    p = FinitePoset.from_covers(["0", "a", "1"], [("0", "a"), ("a", "1")])
    assert p.le(p.idx("0"), p.idx("1"))


def test_two_cycle_rejected():
    with pytest.raises(ValidationError) as err:
        FinitePoset.from_covers(["x", "y"], [("x", "y"), ("y", "x")])
    assert err.value.code == "antisymmetry"
    assert set(err.value.witness) == {"x", "y"}


def test_longer_cycle_rejected():
    with pytest.raises(ValidationError) as err:
        FinitePoset.from_covers("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert err.value.code == "antisymmetry"


def test_intransitive_matrix_rejected_at_first_missing_pair():
    leq = np.eye(4, dtype=bool)
    leq[0, 1] = leq[1, 2] = leq[2, 3] = True
    with pytest.raises(ValidationError) as err:
        FinitePoset("abcd", leq)
    assert (err.value.code, err.value.witness) == ("transitivity", ("a", "c"))


def test_unknown_element_rejected():
    with pytest.raises(ValidationError) as err:
        FinitePoset.from_covers(["x"], [("x", "y")])
    assert err.value.code == "unknown-element"
    assert err.value.witness == ("y",)


def test_from_covers_output_is_a_partial_order():
    # the three order axioms, asserted directly on the matrix
    p = FinitePoset.from_covers("0ab1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    leq = p.leq
    assert leq.diagonal().all()
    both = leq & leq.T
    np.fill_diagonal(both, False)
    assert not both.any()
    assert not ((leq @ leq) & ~leq).any()


def test_join_boolean_atoms():
    els, leq, _ = boolean_algebra(2)
    p = FinitePoset(els, leq)
    a, b = p.idx("s01"), p.idx("s10")
    assert p.join(a, b) == p.idx("s11")
    assert p.meet(a, b) == p.idx("s00")


def test_join_mo2_distinct_blocks_matches_oracle():
    els, leq, _ = mo(2)
    p = FinitePoset(els, leq)
    a, b = p.idx("x0"), p.idx("x1")
    expected = oracle_join(leq, a, b)
    assert expected == p.idx("1")
    assert p.join(a, b) == expected


def test_join_absent_on_antichain():
    p = FinitePoset.from_covers(["x", "y"], [])
    assert p.join(0, 1) is None
    assert p.meet(0, 1) is None


def test_bounds():
    els, leq, _ = boolean_algebra(3)
    least, greatest = FinitePoset(els, leq).bounds()
    assert (els[least], els[greatest]) == ("s000", "s111")
    assert FinitePoset.from_covers(["x", "y"], []).bounds() == (None, None)


def test_bounds_firefly_x_poset():
    rs, _ = build_repsys(zoo_model("firefly").doc)
    least, greatest = rs.poset_of("X").bounds()
    assert least is None
    assert rs.poset_of("X").elements[greatest] == "Top"


def test_is_lattice():
    els, leq, _ = boolean_algebra(3)
    assert FinitePoset(els, leq).is_lattice().ok
    els, leq, _ = mo(2)
    assert FinitePoset(els, leq).is_lattice().ok
    v = FinitePoset.from_covers(["x", "y"], []).is_lattice()
    assert not v.ok and v.code == "no-join"


def test_greechie_cycles_lattice_verdicts():
    # the pair scan is the oracle: the 4-cycle fails on atoms of
    # non-adjacent blocks, the 5-cycle is a lattice
    g4 = build_orthoposet(zoo_model("greechie_cycle_4").doc)
    v = g4.poset.is_lattice()
    assert not v.ok
    x, y = v.witness
    assert oracle_join(g4.poset.leq, g4.idx(x), g4.idx(y)) is None or oracle_meet(
        g4.poset.leq, g4.idx(x), g4.idx(y)
    ) is None
    g5 = build_orthoposet(zoo_model("greechie_cycle_5").doc)
    assert g5.poset.is_lattice().ok


def test_join_meet_laws_on_random_models():
    rng = random.Random(7)
    for _ in range(10):
        p = random_orthoposet(rng).poset
        for i in range(p.n):
            for j in range(p.n):
                jn = p.join(i, j)
                assert jn == oracle_join(p.leq, i, j)
                if jn is not None:
                    assert p.le(i, jn) and p.le(j, jn)
                    ubs = [u for u in range(p.n) if p.le(i, u) and p.le(j, u)]
                    assert all(p.le(jn, u) for u in ubs)
                mt = p.meet(i, j)
                assert mt == oracle_meet(p.leq, i, j)
                if mt is not None:
                    assert p.le(mt, i) and p.le(mt, j)


def test_covers_regenerate_the_order():
    posets = [build_orthoposet(zoo_model(name).doc).poset for name in ("boolean_8", "MO2", "hexagon_O6")]
    posets += [FinitePoset(els, leq) for els, leq, _ in (boolean_algebra(7), mo(63), greechie_cycle(32), double_chain(40))]
    for p in posets:
        lt = p.leq & ~np.eye(p.n, dtype=bool)
        assert p.covers() == [(int(i), int(j)) for i, j in np.argwhere(lt & ~(lt @ lt))]
        covers = [(p.elements[i], p.elements[j]) for i, j in p.covers()]
        again = FinitePoset.from_covers(p.elements, covers)
        assert (again.leq == p.leq).all()


def test_isomorphism_identity_candidate():
    els, leq, _ = mo(2)
    p = FinitePoset(els, leq)
    ident = {e: e for e in els}
    assert find_order_isomorphism(p, p, ident) == ident


def test_isomorphism_rejects_wrong_candidate():
    p = FinitePoset.from_covers("0a1", [("0", "a"), ("a", "1")])
    swapped = {"0": "1", "a": "a", "1": "0"}
    assert find_order_isomorphism(p, p, swapped) is None


def test_isomorphism_chain_vs_antichain():
    chain = FinitePoset.from_covers("abc", [("a", "b"), ("b", "c")])
    anti = FinitePoset.from_covers("xyz", [])
    assert find_order_isomorphism(chain, anti) is None


def test_isomorphism_size_mismatch():
    p = FinitePoset.from_covers(["x"], [])
    q = FinitePoset.from_covers(["x", "y"], [])
    with pytest.raises(ValidationError) as err:
        find_order_isomorphism(p, q)
    assert err.value.code == "size-mismatch"


def test_isomorphism_search_on_shuffled_models():
    rng = random.Random(3)
    for _ in range(8):
        o = random_orthoposet(rng)
        p = o.poset
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = FinitePoset(
            [f"q{i}" for i in range(p.n)],
            [[p.leq[perm.index(i), perm.index(j)] for j in range(p.n)] for i in range(p.n)],
        )
        f = find_order_isomorphism(p, q)
        assert f is not None
        fi = [q.idx(f[e]) for e in p.elements]
        for i in range(p.n):
            for j in range(p.n):
                assert p.leq[i, j] == q.leq[fi[i], fi[j]]


def test_tables_match_oracle_on_every_pair():
    rng = random.Random(23)
    posets = [random_orthoposet(rng).poset for _ in range(15)]
    for els, leq, _ in (double_chain(3), greechie_chain(2), mo(3)):
        posets.append(FinitePoset(els, leq))
    posets += [FinitePoset([f"a{i}" for i in range(k)], np.eye(k, dtype=bool)) for k in (1, 2, 5)]
    posets.append(FinitePoset.from_covers("abcd", [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")]))
    for p in posets:
        join, meet = p.tables()
        assert join.shape == meet.shape == (p.n, p.n)
        assert not join.flags.writeable and not meet.flags.writeable
        for i in range(p.n):
            for j in range(p.n):
                jn, mt = oracle_join(p.leq, i, j), oracle_meet(p.leq, i, j)
                assert join[i, j] == (-1 if jn is None else jn)
                assert meet[i, j] == (-1 if mt is None else mt)


# -- the packed order kernels against the row-loop and squaring references ---

# one to three 64-bit words: each side of every word boundary up to 129
_SIZES = (1, 2, 63, 64, 65, 127, 128, 129)


def _relation(kind, n, rng):
    """A random relation of the given kind on n elements, under a random
    relabelling: "dag" is acyclic and mostly unbounded, "bounded" is a dag
    under a new bottom and top, "lattice" a rooted tree (ancestors below)
    under a new top, "chain" the covers of a chain of height n - 1,
    "cyclic" any relation."""
    if kind == "chain":
        rel = np.eye(n, k=1, dtype=bool)
    elif kind == "cyclic":
        rel = rng.random((n, n)) < 2 / n
    elif kind == "lattice":
        rel = np.zeros((n, n), dtype=bool)
        rel[rng.integers(0, np.arange(1, n - 1)), np.arange(1, n - 1)] = True
        rel[:, n - 1] = True
    else:
        rel = np.triu(rng.random((n, n)) < rng.choice([0.5, 2, 8]) / n, 1)
        if kind == "bounded":
            rel[0, :] = rel[:, n - 1] = True
    perm = rng.permutation(n)
    return rel[np.ix_(perm, perm)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_SIZES), st.sampled_from(["dag", "bounded", "lattice", "chain", "cyclic"]), st.integers(0, 2**32 - 1))
@example(65, "chain", 0)
@example(129, "chain", 0)
def test_packed_kernels_match_references(n, kind, seed):
    rel = _relation(kind, n, np.random.default_rng(seed))
    leq = _closure(rel)
    want = reference_closure(rel)
    assert leq.dtype == want.dtype and leq.shape == want.shape and (leq == want).all()
    if kind == "cyclic":
        return
    for order in (leq, leq.T):
        got, want = _least_bounds(order), reference_least_bounds(order)
        assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()
        assert not got.flags.writeable
    if kind == "lattice":
        assert FinitePoset([f"e{i}" for i in range(n)], leq).is_lattice().ok


_PRODUCTS = ("square", "stack", "views", "presum", "empty")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_PRODUCTS), st.sampled_from(_SIZES), st.sampled_from([0.5, 2, 8, 32]), st.integers(0, 2**32 - 1))
@example("square", 65, 8, 0)
@example("stack", 64, 8, 0)
@example("views", 129, 2, 0)
@example("presum", 63, 2, 0)
@example("empty", 5, 2, 0)
def test_compose_is_the_boolean_square(product, n, density, seed):
    """`_compose` is numpy's boolean `@` on every shape it is called on: a
    relation squared; a stack of m relations, each squared; the n x V @
    V x n product of a fixed matrix's transpose with itself; the R x R @
    R x P product of the pre-sum's reach and rows; and an empty inner
    dimension, where every entry is False."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        return rng.random(shape) < density / n

    if product == "square":
        a = b = draw(n, n)
    elif product == "stack":
        a = b = draw(int(rng.integers(2, 5)), n, n)
    elif product == "views":
        b = draw(int(rng.integers(1, 4 * n + 1)), n)
        a = b.T
    elif product == "presum":
        a, b = draw(n, n), draw(n, int(rng.integers(n, 4 * n + 1)))
    else:
        a, b = draw(n, 0), draw(0, int(rng.integers(0, n + 1)))
    want = a @ b
    got = _compose(a, b)
    assert got.dtype == bool and got.shape == want.shape
    assert (got == want).all()
    assert product != "empty" or not got.any()


@pytest.mark.parametrize("n", [64, 65, 129])
@pytest.mark.parametrize("seed", range(5))
def test_intransitive_matrix_witness_is_the_first_missing_pair(n, seed):
    # drop random pairs and bottom <= top from a closed bounded relation:
    # still reflexive and antisymmetric, no longer transitive
    rng = np.random.default_rng(seed)
    leq = _closure(_relation("bounded", n, rng))
    leq[leq.all(axis=1).argmax(), leq.all(axis=0).argmax()] = False
    leq &= ~(rng.random((n, n)) < 0.05)
    np.fill_diagonal(leq, True)
    missing = np.argwhere((leq @ leq) & ~leq)
    assert len(missing)
    els = [f"e{i}" for i in range(n)]
    with pytest.raises(ValidationError) as err:
        FinitePoset(els, leq)
    assert (err.value.code, err.value.witness) == ("transitivity", tuple(els[k] for k in missing[0]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_SIZES[1:]), st.integers(0, 2**32 - 1))
def test_cyclic_covers_report_the_reference_witness(n, seed):
    rng = np.random.default_rng(seed)
    rel = _relation("cyclic", n, rng)
    i = rng.integers(0, n)
    rel[i, (i + 1) % n] = rel[(i + 1) % n, i] = True
    els = [f"e{i}" for i in range(n)]
    with pytest.raises(ValidationError) as want:
        FinitePoset(els, reference_closure(rel))
    with pytest.raises(ValidationError) as got:
        FinitePoset.from_covers(els, [(els[a], els[b]) for a, b in np.argwhere(rel)])
    assert got.value.code == want.value.code == "antisymmetry"
    assert got.value.witness == want.value.witness


def test_cycle_witness_is_its_first_pair():
    with pytest.raises(ValidationError) as err:
        FinitePoset.from_covers("abcd", [("a", "b"), ("c", "d"), ("d", "b"), ("b", "c")])
    assert (err.value.code, err.value.witness) == ("antisymmetry", ("b", "c"))


def test_packed_tables_on_the_bench_lattices():
    for els, leq, _ in (boolean_algebra(7), mo(63), greechie_cycle(32)):
        for order in (leq, leq.T):
            assert (_least_bounds(order) == reference_least_bounds(order)).all()


@pytest.mark.parametrize("method", ["join", "meet", "le"])
def test_element_operations_refuse_unknown_indices(method):
    """On MO2 (n = 6) an index outside 0..n-1, or one that is no integer,
    raises unknown-element, the first bad argument as its witness, before
    any table is built; unchecked, join(-1, 0) would wrap to the top's row
    and return 5, join(0.5, 1) raised a bare numpy IndexError, and
    join(5, True), whose True numpy reads as a mask, a bare ValueError."""
    els, leq, _ = mo(2)
    p = FinitePoset(els, leq)
    call = getattr(p, method)
    bad_args = [((-1, 0), -1), ((0, -6), -6), ((6, 0), 6), ((0, 9), 9), ((-1, 6), -1), ((7, -2), 7)]
    not_integers = [((0.5, 1), 0.5), ((1, 2.0), 2.0), (("1", 0), "1"), ((5, True), True), ((False, 2), False)]
    for args, bad in bad_args + not_integers:
        with pytest.raises(ValidationError) as err:
            call(*args)
        assert (err.value.code, err.value.witness) == ("unknown-element", (bad,))
    assert p._tables is None
    assert call(np.int64(5), 0) == {"join": 5, "meet": 0, "le": False}[method]
