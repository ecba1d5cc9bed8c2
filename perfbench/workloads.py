"""The four workloads: fixed request lists, each request with its predicted
outcome. Every prediction comes from theory (see structures.py), never
from running orthoview.

A workload is built by `build(name, seed, workdir)`, which writes its model
files into workdir and returns a `Workload`. One pass sends every request
once, in list order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import documents as D
from . import structures as S


@dataclass
class Request:
    """One CLI invocation and the check of its outcome.

    `check(exit_code, stdout, stderr)` returns None when the outcome is the
    predicted one, else a one-line reason. `sizes` records the input's size
    (elements n, views, pre-sum pairs) for the run record.
    """

    label: str
    argv: list
    check: object
    sizes: dict = field(default_factory=dict)


@dataclass
class Workload:
    requests: list
    tail_percentile: int
    why: str


# -- outcome checks ---------------------------------------------------------------


def _records(out):
    return [json.loads(line) for line in out.splitlines()]


def expect_records(exit_code, expected):
    """Records in order: (check, verdict, code or None for any, counts, data),
    where counts/data list only the keys that must match."""

    def check(code, out, err):
        if code != exit_code:
            return f"exit {code}, expected {exit_code}: {err.strip()[:120]}"
        try:
            got = _records(out)
        except ValueError:
            return "stdout is not a record stream"
        if len(got) != len(expected):
            return f"{len(got)} records, expected {len(expected)}"
        for r, (name, verdict, fcode, counts, data) in zip(got, expected):
            if r["check"] != name or r["verdict"] is not verdict:
                return f"record {r['check']}={r['verdict']}, expected {name}={verdict}"
            if fcode is not None and r["code"] != fcode:
                return f"record {name} code {r['code']!r}, expected {fcode!r}"
            for k, v in counts.items():
                if r["counts"].get(k) != v:
                    return f"record {name} count {k}={r['counts'].get(k)}, expected {v}"
            for k, v in data.items():
                if r["data"].get(k) != v:
                    return f"record {name} data {k}={r['data'].get(k)}, expected {v}"
        return None

    return check


def expect_error(exit_code, stderr_prefix):
    """A refused request: no record stream, a diagnostic on stderr."""

    def check(code, out, err):
        if code != exit_code:
            return f"exit {code}, expected {exit_code}"
        if out:
            return "refused request wrote to stdout"
        if not err.startswith(stderr_prefix):
            return f"stderr {err[:60]!r} lacks {stderr_prefix!r}"
        return None

    return check


def expect_model_text(kind, name, n, covers=None, ortho_pairs=None):
    """A model document on stdout, checked by its header and section sizes."""

    def check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        head = out.split("{", 1)[0].split()
        if head != [kind, name]:
            return f"document header {head}, expected {[kind, name]}"
        if kind == "repsys":
            return None
        sections = {}
        for part in out.split("{", 1)[1].rsplit("}", 1)[0].split(";"):
            words = part.split()
            if words:
                sections[words[0]] = len(words) - 1
        want = {"elements": n, "covers": covers, "ortho": ortho_pairs}
        for k, v in want.items():
            if v is not None and sections.get(k) != v:
                return f"{k} section has {sections.get(k)} entries, expected {v}"
        return None

    return check


def expect_subalgebra_list(s):
    """`decompose --list`: the count, then one record per subalgebra whose
    sizes match theory, each carrier holding both bounds and 2^atoms ids."""
    sizes = S.predicted_subalgebra_sizes(s)
    bottom, top = s.elements[0], s.elements[-1]

    def check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        got = _records(out)
        if not got or got[0]["check"] != "boolean_subalgebras" or got[0]["counts"].get("subalgebras") != len(sizes):
            return f"subalgebra count {got[0]['counts'] if got else None}, expected {len(sizes)}"
        subs = got[1:]
        if sorted(r["counts"]["size"] for r in subs) != sizes:
            return "subalgebra sizes differ from theory"
        carriers = set()
        for r in subs:
            c = r["data"]["carrier"]
            if not r["verdict"] or len(c) != r["counts"]["size"] or 2 ** len(r["data"]["atoms"]) != len(c):
                return f"bad subalgebra record {r['check']}"
            if bottom not in c or top not in c:
                return f"{r['check']} lacks a bound"
            carriers.add(frozenset(c))
        if len(carriers) != len(subs):
            return "duplicate carriers"
        return None

    return check


def _classify_expectation(s):
    pred = S.predicted_classes(s)
    exit_code = 0 if all(ok for ok, _ in pred.values()) else 1
    return expect_records(exit_code, [(c, ok, code, {}, {}) for c, (ok, code) in pred.items()])


# -- the builtin zoo, as documented ---------------------------------------------

# name -> (kind, elements); the zoo is builtin, so these are not relabelled.
ZOO = {
    "boolean_2": ("orthoposet", 2),
    "boolean_4": ("orthoposet", 4),
    "boolean_8": ("orthoposet", 8),
    "MO2": ("orthoposet", 6),
    "hexagon_O6": ("orthoposet", 6),
    "greechie_cycle_4": ("orthoposet", 18),
    "greechie_cycle_5": ("orthoposet", 22),
    "firefly": ("repsys", None),
}


def _expect_zoo_listing():
    def check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        got = {r["check"]: r for r in _records(out)}
        for name, (kind, _) in ZOO.items():
            r = got.get(f"zoo:{name}")
            if r is None or not r["verdict"] or r["data"].get("kind") != kind:
                return f"zoo listing lacks {name} ({kind})"
        return None

    return check


# -- the workloads ----------------------------------------------------------------


class _Files:
    def __init__(self, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)

    def write(self, name, text):
        path = self.dir / f"{name}.oml"
        path.write_text(text)
        return str(path)


def _relabelled(rng, files, plan):
    """Write each host `copies` times under fresh relabellings; yields
    (structure, label suffix, path). A host's cost can depend on its element
    order (scans stop at the first counterexample, enumeration order follows
    the labels), so one run averages over several orders."""
    for s, copies in plan:
        for j in range(copies):
            name = "hexagon_O6" if s.name == "double_chain_2" else s.name
            yield s, f"#{j}", files.write(f"{s.name}_{j}", D.orthoposet_text(s, rng, name=name))


def _classify(rng, files):
    plan = [(S.boolean_algebra(5), 2), (S.boolean_algebra(6), 1), (S.boolean_algebra(7), 1)]
    plan += [(S.greechie_cycle(k), 3) for k in (8, 16, 24, 31)]
    plan += [(S.mo(k), 3) for k in (15, 63)]
    plan += [(S.double_chain(h), 3) for h in (15, 31)]
    reqs = [
        Request(f"classify {s.name}{tag}", ["classify", path], _classify_expectation(s), {"n": s.n})
        for s, tag, path in _relabelled(rng, files, plan)
    ]
    return Workload(reqs, 85, "long law scans on valid orthoposets up to n = 128")


def _decompose(rng, files):
    listed = [(S.greechie_cycle(4), 2), (S.greechie_cycle(5), 1), (S.greechie_cycle(6), 1), (S.greechie_cycle(7), 1)]
    listed += [(S.boolean_algebra(4), 1), (S.mo(15), 3), (S.double_chain(2), 1), (S.double_chain(15), 2)]
    roundtrip = [(S.greechie_cycle(4), 1), (S.mo(6), 3), (S.double_chain(2), 1), (S.double_chain(7), 3)]
    reqs = []
    for s, tag, path in _relabelled(rng, files, listed):
        sizes = S.predicted_subalgebra_sizes(s)
        reqs.append(Request(
            f"decompose --list {s.name}{tag}", ["decompose", path, "--list"], expect_subalgebra_list(s),
            {"n": s.n, "views": len(sizes)},
        ))
    for s, tag, path in _relabelled(rng, files, roundtrip):
        sizes = S.predicted_subalgebra_sizes(s)
        reqs.append(Request(
            f"roundtrip {s.name}{tag}", ["roundtrip", path],
            expect_records(0, [("roundtrip", True, "", {"elements": s.n}, {})]),
            {"n": s.n, "views": len(sizes), "pairs": sum(sizes)},
        ))
    return Workload(reqs, 80, "boolean subalgebra enumeration on hosts with n <= 32")


_SYSTEM_COMMANDS = {
    "sum": ["sum"],
    "emit": ["sum", "--emit-model"],
    "rs": ["check", "--property", "rs"],
    "boolean-rs": ["check", "--property", "boolean-rs"],
    "closure": ["check", "--property", "closure"],
    "eq6": ["check", "--property", "eq6"],
    "eq11": ["check", "--property", "eq11"],
    "amp": ["amp", "--vs-sasaki"],
}


def _system_expectation(cmd, s, doc_name, views, pairs):
    """Outcomes on the canonical system of an OML host s: the sum has one
    class per host element, both conditions hold, and & is the Sasaki
    projection on every pair."""
    n = s.n
    if cmd == "sum":
        return expect_records(0, [
            ("sum", True, "", {"pairs": pairs, "classes": n}, {}),
            ("sum_orthoposet", True, "", {"elements": n}, {}),
        ])
    if cmd == "emit":
        return expect_model_text("orthoposet", f"{doc_name}_sum", n, len(s.covers()), n // 2)
    single = {
        "rs": "rs_axioms",
        "boolean-rs": "boolean_rs_axioms",
        "closure": "closure_properties",
        "eq6": "condition_omp",
        "eq11": "condition_oml",
    }
    if cmd in single:
        return expect_records(0, [(single[cmd], True, "", {}, {})])
    return expect_records(0, [
        ("condition_omp", True, "", {}, {}),
        ("condition_oml", True, "", {}, {}),
        ("amp_axioms", True, "", {}, {}),
        ("derived_meet_total", True, "", {"pairs": n * n}, {}),
        ("amp_vs_sasaki", True, "", {"pairs": n * n, "disagreements": 0}, {"agreement": 1.0}),
    ])


def _system(rng, files):
    """2^4 gets every command; cycles 6..12 and 2^5 get `amp --vs-sasaki`,
    which runs both conditions, the closure table and the & axioms."""
    plan = [(S.boolean_algebra(4), list(_SYSTEM_COMMANDS))]
    plan += [(S.greechie_cycle(k), ["amp"]) for k in range(6, 13)]
    plan += [(S.boolean_algebra(5), ["amp"])]
    reqs = []
    for s, cmds in plan:
        doc_name = f"{s.name}_rs"
        text, views, pairs = D.canonical_repsys_text(s, rng, name=doc_name)
        path = files.write(doc_name, text)
        sizes = {"n": s.n, "views": views, "pairs": pairs, "bytes": len(text)}
        for cmd in cmds:
            argv = [_SYSTEM_COMMANDS[cmd][0], path] + _SYSTEM_COMMANDS[cmd][1:]
            reqs.append(Request(f"{cmd} {doc_name}", argv, _system_expectation(cmd, s, doc_name, views, pairs), sizes))
    return Workload(reqs, 80, "parse, sum and condition checks on large repsys documents")


def _ingest(rng, files):
    reqs = []

    def add(label, argv, check, sizes=None):
        reqs.append(Request(label, argv, check, sizes or {}))

    valid = [S.boolean_algebra(k) for k in (5, 6, 7)]
    valid += [S.greechie_cycle(k) for k in (8, 16, 24, 31)]
    valid += [S.mo(31), S.mo(63), S.double_chain(31), S.double_chain(63)]
    texts = {}
    for s in valid:
        texts[s.name] = D.orthoposet_text(s, rng)
        path = files.write(s.name, texts[s.name])
        add(f"validate {s.name}", ["validate", path], expect_records(0, [("orthoposet_valid", True, "", {}, {})]), {"n": s.n})
    systems = {}
    for s in (S.boolean_algebra(3), S.greechie_cycle(4), S.greechie_cycle(5)):
        doc_name = f"{s.name}_rs"
        text, views, pairs = D.canonical_repsys_text(s, rng, name=doc_name)
        systems[s.name] = (s, text)
        path = files.write(doc_name, text)
        add(f"validate {doc_name}", ["validate", path], expect_records(0, [("rs_axioms", True, "", {}, {})]),
            {"n": s.n, "views": views, "pairs": pairs})

    by_name = {s.name: s for s in valid}
    variants = [
        ("cover_cycle", "boolean_6", D.with_cover_cycle(texts["boolean_6"], by_name["boolean_6"])),
        ("cover_cycle", "greechie_cycle_16", D.with_cover_cycle(texts["greechie_cycle_16"], by_name["greechie_cycle_16"])),
        ("no_complement", "boolean_6", D.without_complement(texts["boolean_6"], by_name["boolean_6"])),
        ("no_complement", "MO31", D.without_complement(texts["MO31"], by_name["MO31"])),
        ("not_antitone", "boolean_5", D.with_non_antitone_ortho(by_name["boolean_5"], rng)),
        ("not_antitone", "boolean_6", D.with_non_antitone_ortho(by_name["boolean_6"], rng)),
        ("syntax", "boolean_6", D.with_syntax_error(texts["boolean_6"])),
    ]
    for base in ("boolean_3", "greechie_cycle_5"):
        s, text = systems[base]
        variants.append(("rewired", f"{base}_rs", D.with_rewired_map(text, s.elements[-1], s.elements[0])))
    variants.append(("syntax", "greechie_cycle_5_rs", D.with_syntax_error(systems["greechie_cycle_5"][1])))
    for edit, base, (text, exit_code, fcode) in variants:
        host = systems[base[: -len("_rs")]][0] if base.endswith("_rs") else by_name[base]
        path = files.write(f"{base}_{edit}", text)
        if exit_code == 2:
            check = expect_error(2, "parse error:")
        elif base.endswith("_rs"):
            check = expect_records(exit_code, [("rs_axioms", False, fcode, {}, {})])
        else:
            check = expect_records(exit_code, [("orthoposet_valid", False, fcode, {}, {})])
        add(f"validate {base}+{edit}", ["validate", path], check, {"n": host.n})

    add("zoo", ["zoo"], _expect_zoo_listing())
    for name, (kind, n) in ZOO.items():
        add(f"zoo {name}", ["zoo", name], expect_model_text(kind, name, n))
        check = "rs_axioms" if kind == "repsys" else "orthoposet_valid"
        add(f"validate zoo:{name}", ["validate", f"zoo:{name}"], expect_records(0, [(check, True, "", {}, {})]))
    unknown = f"nosuch_{rng.randrange(10**6)}"
    add("zoo unknown", ["zoo", unknown], expect_error(2, "error: no zoo model"))
    add("validate zoo:unknown", ["validate", f"zoo:{unknown}"], expect_error(2, "error: no zoo model"))
    return Workload(reqs, 99, "parse, build and first-failure exits; no law scan runs")


_WORKLOADS = {"classify": _classify, "decompose": _decompose, "system": _system, "ingest": _ingest}


def build(name, seed, workdir):
    """Generate the workload's inputs from the seed and write them to workdir."""
    rng = random.Random(f"{name}:{seed}")
    return _WORKLOADS[name](rng, _Files(workdir))
