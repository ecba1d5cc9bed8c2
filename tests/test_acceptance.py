"""Acceptance suite: one test per criterion, each over the whole corpus.

The corpus is every zoo model plus 50 seeded-random bounded orthoposets
(n <= 12) together with their canonical decomposition systems. Each test
prints a single pass line; a pytest failure is the corresponding fail line.
"""

import random

import numpy as np
import pytest

import orthoview as ov

from _models import (
    brute_force_subalgebras,
    mutate_random_entry,
    oracle_meet,
    random_orthoposet,
    reverify_rs_witness,
)

RANDOM_INSTANCES = 50
MUTATIONS_PER_MODEL = 100


class System:
    """One corpus entry: a representation system with its sum, and the
    originating orthoposet when the system is a canonical decomposition."""

    def __init__(self, name, rs, brs=None, host=None):
        self.name = name
        self.rs = rs
        self.brs = brs
        self.host = host
        self.presum = ov.build_presum(rs)
        self.sum = ov.quotient_sum(self.presum)

    @property
    def sum_ortho(self):
        return ov.sum_as_orthoposet(self.sum, self.brs)


def _canonical(name, o):
    brs = ov.build_canonical_rs(o)
    return System(name, brs.rs, brs, o)


@pytest.fixture(scope="module")
def corpus():
    systems = []
    firefly_rs, _ = ov.build_repsys(ov.zoo_model("firefly").doc)
    systems.append(System("firefly", firefly_rs))
    for m in ov.zoo().values():
        if m.kind != "orthoposet":
            continue
        systems.append(_canonical(m.name, ov.build_orthoposet(m.doc)))
    rng = random.Random(2024)
    for k in range(RANDOM_INSTANCES):
        systems.append(_canonical(f"random_{k}", random_orthoposet(rng)))
    return systems


def _booleans(corpus):
    return [s for s in corpus if s.brs is not None]


def test_criterion_1_rs_axioms(corpus):
    rng = random.Random(1)
    zoo_systems = [s for s in corpus if not s.name.startswith("random_")]
    for system in zoo_systems:
        assert ov.check_rs_axioms(system.rs).ok, system.name
        for _ in range(MUTATIONS_PER_MODEL):
            mutated = mutate_random_entry(system.rs, rng)
            verdict = ov.check_rs_axioms(mutated)
            if not verdict.ok:
                assert reverify_rs_witness(mutated, verdict), (system.name, verdict)
    print("ACCEPTANCE 1 rs-axioms: PASS")


def test_criterion_2_presum_and_sum(corpus):
    for system in corpus:
        rel = system.presum.rel
        assert rel.diagonal().all(), system.name
        assert not ((rel @ rel) & ~rel).any(), system.name
        order = system.sum.order.leq
        both = order & order.T
        np.fill_diagonal(both, False)
        assert not both.any(), system.name
        assert not ((order @ order) & ~order).any(), system.name
        for v in system.rs.views:
            p = system.rs.poset_of(v)
            for x in range(p.n):
                for y in range(p.n):
                    cx = system.sum.class_of(v, p.elements[x])
                    cy = system.sum.class_of(v, p.elements[y])
                    assert bool(order[cx, cy]) == bool(p.leq[x, y]), system.name
    print("ACCEPTANCE 2 presum-sum: PASS")


def test_criterion_3_closure_operators(corpus):
    for system in corpus:
        assert ov.verify_closure_properties(system.sum, system.rs).ok, system.name
    print("ACCEPTANCE 3 closures: PASS")


def test_criterion_4_boolean_sums(corpus):
    for system in _booleans(corpus):
        so = system.sum_ortho  # OrthoPoset construction is the validator
        s, rs = system.sum, system.rs
        for v, o in zip(system.brs.views, system.brs.orthos):
            p = o.poset
            for x in range(p.n):
                for y in range(p.n):
                    cx, cy = s.class_of(v, p.elements[x]), s.class_of(v, p.elements[y])
                    jn = s.order.join(cx, cy)
                    assert jn == s.class_of(v, p.elements[p.join(x, y)]), system.name
            fixed = [c for c in range(s.order.n) if ov.view_closure(s, rs, v, c) == c]
            for c in fixed:
                assert so.ortho[c] in fixed, system.name
                for d in fixed:
                    jn = s.order.join(c, d)
                    assert jn is not None and jn in fixed, system.name
    print("ACCEPTANCE 4 boolean-sums: PASS")


def test_criterion_5_condition_theorems(corpus):
    for system in _booleans(corpus):
        so = system.sum_ortho
        if ov.check_condition_omp(system.sum, system.rs).ok:
            assert ov.is_orthomodular_poset(so).ok, system.name
            if ov.check_condition_oml(system.sum, system.rs).ok:
                assert ov.is_orthomodular_lattice(so).ok, system.name
    o6 = ov.build_orthoposet(ov.zoo_model("hexagon_O6").doc)
    s_o6 = next(s for s in corpus if s.name == "hexagon_O6")
    assert not ov.check_condition_omp(s_o6.sum, s_o6.rs).ok
    assert not ov.is_orthomodular_poset(o6).ok
    print("ACCEPTANCE 5 condition-theorems: PASS")


def test_criterion_6_amp_construction(corpus):
    checked = 0
    for system in _booleans(corpus):
        assert system.host is not None
        if not ov.is_orthomodular_lattice(system.host).ok:
            continue
        so = system.sum_ortho
        amp = ov.build_amp(system.sum, system.rs)
        report = ov.verify_amp_axioms(amp, so)
        assert report.ok, (system.name, report.counts)
        for x in range(so.n):
            for y in range(so.n):
                assert ov.derived_meet(amp, so, x, y) == oracle_meet(so.poset.leq, x, y), system.name
        cmp = ov.amp_vs_sasaki(amp, so)
        assert cmp.ok and cmp.agreement == 1.0, system.name
        checked += 1
    names = {s.name for s in corpus}
    assert {"MO2", "boolean_4", "boolean_8"} <= names and checked >= 3
    print(f"ACCEPTANCE 6 amp-construction: PASS ({checked} lattices)")


def test_criterion_7_representation_theorems(corpus):
    for system in _booleans(corpus):
        o = system.host
        result = ov.roundtrip_check(o)
        assert result.ok, (system.name, result.stage, result.witness)
        candidate = dict(result.isomorphism)
        assert ov.find_order_isomorphism(system.sum.order, o.poset, candidate) == candidate
        so = system.sum_ortho
        for c in range(so.n):
            mapped = candidate[system.sum.label(c)]
            assert candidate[system.sum.label(so.ortho[c])] == o.elements[o.ortho[o.idx(mapped)]]
        if ov.is_orthomodular_poset(o).ok:
            assert ov.check_condition_omp(system.sum, system.rs).ok, system.name
        if ov.is_orthomodular_lattice(o).ok:
            assert ov.check_condition_oml(system.sum, system.rs).ok, system.name
            subs = ov.enumerate_boolean_subalgebras(o)
            for a in range(o.n):
                for b in range(o.n):
                    witness = o.poset.meet(o.poset.join(a, b), o.poset.join(a, o.ortho[b]))
                    assert witness is not None
                    assert o.poset.le(a, witness), system.name
                    assert ov.compatible(o, witness, b, subs=subs), system.name
    print("ACCEPTANCE 7 representation-theorems: PASS")


def test_criterion_8_enumeration_oracle(corpus):
    checked = 0
    for system in _booleans(corpus):
        o = system.host
        if o.n > 12:
            continue
        lib = {frozenset(s.carrier) for s in ov.enumerate_boolean_subalgebras(o)}
        assert lib == brute_force_subalgebras(o), system.name
        checked += 1
    assert checked >= RANDOM_INSTANCES
    by_name = {s.name: s for s in corpus}
    for name, count in (("MO2", 3), ("boolean_4", 2), ("hexagon_O6", 3)):
        o = by_name[name].host
        assert len(ov.enumerate_boolean_subalgebras(o)) == count
    print(f"ACCEPTANCE 8 enumeration-oracle: PASS ({checked} models)")


def test_criterion_9_format_roundtrip(corpus, capsys, tmp_path):
    from orthoview.cli import main
    from orthoview.modelio import tokens_of

    for m in ov.zoo().values():
        doc = ov.parse(m.text)
        assert tokens_of(ov.serialize(doc)) == tokens_of(m.text), m.name
        assert ov.parse(ov.serialize(doc)) == doc, m.name
    for name in ("firefly", "MO2", "boolean_4", "hexagon_O6"):
        assert main(["sum", f"zoo:{name}", "--emit-model"]) == 0
        emitted = capsys.readouterr().out
        path = tmp_path / f"{name}_sum.oml-model"
        path.write_text(emitted)
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
    print("ACCEPTANCE 9 format-roundtrip: PASS")
