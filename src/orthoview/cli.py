"""Command-line front end: validate, classify, sum, check, decompose,
roundtrip, amp, zoo.

Exit codes: 0 every reported verdict is true, 1 some verdict is false,
2 usage or parse error, 3 an internal consistency check failed. The
structured record stream goes to stdout, human-readable diagnostics to
stderr. `zoo:NAME` can be used instead of a file path anywhere.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .poset import OK, InternalCheckError, ValidationError, Verdict
from .ortho import classify, derive_boolean_ortho, OrthoPoset
from .repsys import check_boolean_rs_axioms, check_rs_axioms, BooleanRepresentationSystem
from .sums import build_presum, quotient_sum, sum_as_orthoposet, verify_closure_properties
from .conditions import amp_vs_sasaki, build_amp, check_condition_oml, check_condition_omp, derived_meet_table, verify_amp_axioms
from .decompose import build_canonical_rs, enumerate_boolean_subalgebras, roundtrip_check
from . import modelio
from .modelio import ParseError, Record, record_from_verdict


class _Usage(Exception):
    pass


def _load(ref):
    """Parse a model from a path or a zoo:NAME reference."""
    if ref.startswith("zoo:"):
        try:
            return modelio.zoo_model(ref[4:]).doc
        except ValidationError as e:
            raise _Usage(str(e)) from None
    path = Path(ref)
    if not path.is_file():
        raise _Usage(f"no such file: {ref}")
    try:
        # utf-8-sig drops a leading byte-order mark, as some editors write one
        text = path.read_text(encoding="utf-8-sig")
    except (UnicodeDecodeError, OSError) as e:
        raise _Usage(f"cannot read {ref}: {e}") from None
    return modelio.parse(text)


def _orthoposet_of(doc):
    if doc.kind != "orthoposet":
        raise _Usage(f"this command needs an orthoposet model, got {doc.kind!r}")
    return modelio.build_orthoposet(doc)


def _system_of(doc, cap):
    """A representation system from either a repsys document or the
    canonical decomposition of an orthoposet document. Returns (rs, orthos,
    the rs axioms' verdict, the boolean battery's verdict or None): the
    battery is known only for a canonical system, which passed it when
    built; `_boolean_verdict` runs it for a repsys document."""
    if doc.kind == "repsys":
        rs, orthos = modelio.build_repsys(doc)
        return rs, orthos, check_rs_axioms(rs), None
    if doc.kind == "orthoposet":
        brs = build_canonical_rs(modelio.build_orthoposet(doc), cap=cap)
        return brs.rs, brs.orthos, OK, OK
    raise _Usage("this command needs a repsys or orthoposet model")


def _boolean_verdict(rs, orthos, known):
    """The boolean battery's verdict on a system whose rs axioms pass:
    `known` if `_system_of` has it, else one run of the battery, or None
    when some view is not an orthoposet."""
    if known is None and all(o is not None for o in orthos):
        return check_boolean_rs_axioms(rs, orthos)
    return known


def _cmd_validate(args):
    doc = _load(args.input)
    try:
        if doc.kind == "poset":
            modelio.build_poset(doc)
            return [Record("poset_valid", True)]
        if doc.kind == "orthoposet":
            modelio.build_orthoposet(doc)
            return [Record("orthoposet_valid", True)]
        rs, _ = modelio.build_repsys(doc)
        return [record_from_verdict("rs_axioms", check_rs_axioms(rs))]
    except ValidationError as e:
        return [Record(f"{doc.kind}_valid", False, e.code, e.witness)]


def _cmd_classify(args):
    o = _orthoposet_of(_load(args.input))
    sc = classify(o)
    return [
        record_from_verdict("boolean_algebra", sc.boolean),
        record_from_verdict("ortholattice", sc.ortholattice),
        record_from_verdict("orthomodular_poset", sc.omp),
        record_from_verdict("orthomodular_lattice", sc.oml),
    ]


def _cmd_sum(args):
    doc = _load(args.input)
    rs, orthos, v, known = _system_of(doc, args.cap)
    if not v:
        return [record_from_verdict("rs_axioms", v)]
    boolean = _boolean_verdict(rs, orthos, known)
    ps = build_presum(rs)
    s = quotient_sum(ps)
    records = [
        Record("sum", True, counts={"pairs": len(ps.pairs), "classes": s.order.n}),
    ]
    sum_doc = None
    if boolean:
        so = sum_as_orthoposet(s, BooleanRepresentationSystem(rs, orthos))
        records.append(Record("sum_orthoposet", True, counts={"elements": so.n}))
        sum_doc = modelio.doc_from_orthoposet(f"{doc.name}_sum", so)
    else:
        sum_doc = modelio.doc_from_poset(f"{doc.name}_sum", s.order)
    if args.emit_model:
        print(modelio.serialize(sum_doc), end="")
        return []
    return records


def _cmd_check(args):
    doc = _load(args.input)
    rs, orthos, v, known = _system_of(doc, args.cap)
    if args.property == "rs" or not v:
        return [record_from_verdict("rs_axioms", v)]
    if args.property == "boolean-rs":
        boolean = _boolean_verdict(rs, orthos, known)
        if boolean is not None:
            return [record_from_verdict("boolean_rs_axioms", boolean)]
        full = []
        for view, p, o in zip(rs.views, rs.posets, orthos):
            if o is not None:
                full.append(o)
                continue
            derived = derive_boolean_ortho(p)
            if isinstance(derived, Verdict):
                witness = (view, derived.code) + derived.witness
                return [Record("boolean_rs_axioms", False, "view-not-boolean", witness)]
            full.append(OrthoPoset(p, derived))
        return [record_from_verdict("boolean_rs_axioms", check_boolean_rs_axioms(rs, tuple(full)))]
    s = quotient_sum(build_presum(rs))
    if args.property == "closure":
        return [record_from_verdict("closure_properties", verify_closure_properties(s, rs))]
    if args.property == "eq6":
        return [record_from_verdict("condition_omp", check_condition_omp(s, rs))]
    return [record_from_verdict("condition_oml", check_condition_oml(s, rs))]


def _cmd_decompose(args):
    o = _orthoposet_of(_load(args.input))
    subs = enumerate_boolean_subalgebras(o, cap=args.cap)
    records = [Record("boolean_subalgebras", True, counts={"subalgebras": len(subs)})]
    if args.list:
        for k, sub in enumerate(subs):
            carrier = [o.elements[i] for i in sub.carrier]
            atoms = [o.elements[i] for i in sub.atoms]
            records.append(
                Record(f"subalgebra_B{k}", True, counts={"size": sub.size}, data={"carrier": carrier, "atoms": atoms})
            )
    return records


def _cmd_roundtrip(args):
    o = _orthoposet_of(_load(args.input))
    result = roundtrip_check(o, cap=args.cap)
    v = Verdict(result.ok, result.stage, result.witness)
    return [
        record_from_verdict(
            "roundtrip",
            v,
            counts={"elements": o.n},
            data={"isomorphism": [list(pair) for pair in result.isomorphism]},
        )
    ]


def _cmd_amp(args):
    doc = _load(args.input)
    rs, orthos, v, known = _system_of(doc, args.cap)
    if any(o is None for o in orthos):
        raise _Usage("amp needs boolean views (an orthoposet model or a repsys of orthoposets)")
    if not v:
        return [record_from_verdict("rs_axioms", v)]
    boolean = _boolean_verdict(rs, orthos, known)
    if not boolean:
        return [record_from_verdict("boolean_rs_axioms", boolean)]
    s = quotient_sum(build_presum(rs))
    omp = check_condition_omp(s, rs)
    oml = check_condition_oml(s, rs)
    records = [
        record_from_verdict("condition_omp", omp),
        record_from_verdict("condition_oml", oml),
    ]
    if not (omp and oml):
        return records
    amp = build_amp(s, rs)
    so = sum_as_orthoposet(s, BooleanRepresentationSystem(rs, orthos))
    report = verify_amp_axioms(amp, so)
    records.append(
        Record(
            "amp_axioms",
            report.ok,
            "" if report.ok else "axiom-violations",
            counts={f"violations_{k}": v for k, v in report.counts.items()},
        )
    )
    if report.ok:
        derived_meet_table(amp, so)
        records.append(Record("derived_meet_total", True, counts={"pairs": so.n * so.n}))
    if args.vs_sasaki:
        cmp = amp_vs_sasaki(amp, so)
        records.append(
            Record(
                "amp_vs_sasaki",
                cmp.ok,
                "" if cmp.ok else "disagreement",
                cmp.first,
                counts={"pairs": cmp.pairs, "disagreements": cmp.disagreements},
                data={"agreement": cmp.agreement},
            )
        )
    return records


def _cmd_zoo(args):
    if args.name:
        model = modelio.zoo_model(args.name)
        print(model.text, end="")
        return []
    records = []
    for model in modelio.zoo().values():
        data = {"kind": model.kind, "note": model.note}
        if model.expected is not None:
            data["expected"] = model.expected
        records.append(Record(f"zoo:{model.name}", True, data=data))
    return records


@functools.cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="orthoview",
        description="finite posets, orthostructures and multi-view systems, checked exhaustively",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, with_input=True, with_cap=True):
        p = sub.add_parser(name)
        if with_input:
            p.add_argument("input", help="model file or zoo:NAME")
        if with_cap:
            p.add_argument("--cap", type=int, default=32, help="element cap for decomposition")
        p.set_defaults(fn=fn)
        return p

    add("validate", _cmd_validate, with_cap=False)
    add("classify", _cmd_classify, with_cap=False)
    p = add("sum", _cmd_sum)
    p.add_argument("--emit-model", action="store_true", help="print the sum as a model document")
    p = add("check", _cmd_check)
    p.add_argument("--property", required=True, choices=["rs", "boolean-rs", "eq6", "eq11", "closure"])
    p = add("decompose", _cmd_decompose)
    p.add_argument("--list", action="store_true", help="list every subalgebra carrier")
    add("roundtrip", _cmd_roundtrip)
    p = add("amp", _cmd_amp)
    p.add_argument("--vs-sasaki", action="store_true", help="compare against the projection oracle")
    p = add("zoo", _cmd_zoo, with_input=False, with_cap=False)
    p.add_argument("name", nargs="?", help="print this builtin model")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        records = args.fn(args)
    except _Usage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except InternalCheckError as e:
        print(f"internal consistency failure [{e.code}]: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        if e.code in ("cap-exceeded", "unknown-model"):
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(f"validation failure [{e.code}]: {e}", file=sys.stderr)
        return 1
    human, machine = modelio.emit_report(records)
    if machine:
        sys.stdout.write(machine)
    if human:
        sys.stderr.write(human)
    return 0 if all(r.verdict for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
