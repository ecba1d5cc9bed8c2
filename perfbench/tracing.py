"""Per-layer tracing for the traced run, installed from outside the program.

`Tracer.install()` replaces each traced function wherever it is bound: in its
own module and in every orthoview module that imported it by name (`cli`,
`decompose`, `conditions` and `sums` do), and on the class for methods.
`uninstall()` puts the originals back. The untraced run never imports this.

A span wrapper records (id, parent id, request id, layer.function, start,
end) and accumulates self time: the span's duration minus the time its
child spans cover. Calls are sequential, so child spans never overlap.
Hot leaf methods (`FinitePoset.join`/`meet` and a few per-element helpers)
get a counting wrapper instead, with no span.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# Layer modules, in dependency order.
MODULES = ("poset", "ortho", "repsys", "sums", "conditions", "decompose", "modelio", "cli")

# (module, attribute or Class.method, metric prefix) for span wrappers.
SPANS = (
    ("cli", "main", "cli.main"),
    ("modelio", "parse", "modelio.parse"),
    ("modelio", "build_poset", "modelio.build"),
    ("modelio", "build_orthoposet", "modelio.build"),
    ("modelio", "build_repsys", "modelio.build"),
    ("modelio", "build", "modelio.build"),
    ("modelio", "serialize", "modelio.serialize"),
    ("modelio", "emit_report", "modelio.emit_report"),
    ("poset", "FinitePoset.__init__", "poset.construct"),
    ("poset", "FinitePoset.is_lattice", "poset.is_lattice"),
    ("ortho", "OrthoPoset.__init__", "ortho.construct"),
    ("ortho", "classify", "ortho.classify"),
    ("ortho", "is_boolean_algebra", "ortho.is_boolean_algebra"),
    ("ortho", "is_orthomodular_poset", "ortho.is_orthomodular_poset"),
    ("ortho", "derive_boolean_ortho", "ortho.derive_boolean_ortho"),
    ("repsys", "check_rs_axioms", "repsys.check_rs_axioms"),
    ("repsys", "check_boolean_rs_axioms", "repsys.check_boolean_rs_axioms"),
    ("sums", "build_presum", "sums.build_presum"),
    ("sums", "quotient_sum", "sums.quotient_sum"),
    ("sums", "closure_table", "sums.closure_table"),
    ("sums", "verify_closure_properties", "sums.verify_closure_properties"),
    ("sums", "sum_as_orthoposet", "sums.sum_as_orthoposet"),
    ("conditions", "check_condition_omp", "conditions.check_condition_omp"),
    ("conditions", "check_condition_oml", "conditions.check_condition_oml"),
    ("conditions", "build_amp", "conditions.build_amp"),
    ("conditions", "verify_amp_axioms", "conditions.verify_amp_axioms"),
    ("conditions", "derived_meet", "conditions.derived_meet"),
    ("conditions", "amp_vs_sasaki", "conditions.amp_vs_sasaki"),
    ("decompose", "enumerate_boolean_subalgebras", "decompose.enumerate_boolean_subalgebras"),
    ("decompose", "build_canonical_rs", "decompose.build_canonical_rs"),
    ("decompose", "roundtrip_check", "decompose.roundtrip_check"),
)

# Counting wrappers: calls and raised exceptions only.
COUNTS = (
    ("poset", "FinitePoset.join", "poset.join"),
    ("poset", "FinitePoset.meet", "poset.meet"),
    ("ortho", "sasaki_projection", "ortho.sasaki_projection"),
    ("decompose", "subalgebra", "decompose.subalgebra"),
    ("decompose", "upper_projection", "decompose.upper_projection"),
)

# name -> unit, in report order; every name is reported on every workload.
PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.cpu_s": "s",
    "modelio.parse.calls": "count",
    "modelio.parse.self_s": "s",
    "modelio.parse.bytes": "bytes",
    "modelio.parse.errors": "count",
    "modelio.build.self_s": "s",
    "modelio.build.errors": "count",
    "modelio.serialize.self_s": "s",
    "modelio.emit_report.self_s": "s",
    "poset.construct.calls": "count",
    "poset.construct.self_s": "s",
    "poset.join.calls": "count",
    "poset.meet.calls": "count",
    "poset.join.distinct_ratio": "ratio",
    "poset.meet.distinct_ratio": "ratio",
    "poset.is_lattice.self_s": "s",
    "poset.max_n": "count",
    "ortho.construct.calls": "count",
    "ortho.construct.self_s": "s",
    "ortho.construct.errors": "count",
    "ortho.classify.self_s": "s",
    "ortho.is_boolean_algebra.self_s": "s",
    "ortho.is_orthomodular_poset.self_s": "s",
    "ortho.derive_boolean_ortho.self_s": "s",
    "ortho.sasaki_projection.calls": "count",
    "repsys.check_rs_axioms.calls": "count",
    "repsys.check_rs_axioms.self_s": "s",
    "repsys.check_boolean_rs_axioms.calls": "count",
    "repsys.check_boolean_rs_axioms.self_s": "s",
    "repsys.views": "count",
    "repsys.table_entries": "count",
    "sums.build_presum.self_s": "s",
    "sums.presum_pairs": "count",
    "sums.quotient_sum.self_s": "s",
    "sums.classes": "count",
    "sums.closure_table.calls": "count",
    "sums.closure_table.self_s": "s",
    "sums.verify_closure_properties.self_s": "s",
    "sums.sum_as_orthoposet.self_s": "s",
    "conditions.check_condition_omp.self_s": "s",
    "conditions.check_condition_oml.self_s": "s",
    "conditions.build_amp.self_s": "s",
    "conditions.verify_amp_axioms.self_s": "s",
    "conditions.verify_amp_axioms.checked": "count",
    "conditions.derived_meet.calls": "count",
    "conditions.derived_meet.self_s": "s",
    "conditions.amp_vs_sasaki.self_s": "s",
    "decompose.enumerate_boolean_subalgebras.calls": "count",
    "decompose.enumerate_boolean_subalgebras.self_s": "s",
    "decompose.subalgebra.calls": "count",
    "decompose.subalgebra.accept_ratio": "ratio",
    "decompose.subalgebras": "count",
    "decompose.build_canonical_rs.self_s": "s",
    "decompose.upper_projection.calls": "count",
    "decompose.roundtrip_check.self_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(module, dotted):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = 0
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = defaultdict(float)
        self.sizes = Counter()
        self.max_n = 0
        self._stack = []
        self._next_id = 0
        self._distinct = {"poset.join": set(), "poset.meet": set()}
        self._distinct_total = Counter()
        self._restore = []

    # -- request boundaries ---------------------------------------------------

    def begin_request(self, request_id):
        """Start a request. Distinct join/meet pairs are counted per request
        (posets never outlive one) and folded into the totals here."""
        self.end_request()
        self.request = request_id

    def end_request(self):
        for name, seen in self._distinct.items():
            self._distinct_total[name] += len(seen)
            seen.clear()

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            failed = False
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                # An error counts once per layer entry, not once per frame
                # it unwinds through inside the same group.
                if failed and (parent is None or parent[2] != name):
                    tracer.errors[name] += 1
                tracer.spans.append((sid, parent[0] if parent else None, tracer.request, name, start, end))
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def _count(self, name, fn):
        tracer = self
        distinct = self._distinct.get(name)

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if distinct is not None:
                # Keyed on the poset itself (identity hash), which also keeps
                # it alive, so a new poset cannot reuse its id mid-request.
                poset, i, j = args
                distinct.add((poset, i, j) if i <= j else (poset, j, i))
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.errors[name] += 1
                raise

        return wrapper

    def _hooks(self):
        sizes = self.sizes

        def parse(result, args):
            sizes["modelio.parse.bytes"] += len(args[0])

        def construct(result, args):
            self.max_n = max(self.max_n, args[0].n)

        def rs_checked(result, args):
            rs = args[0]
            sizes["repsys.views"] += len(rs.views)
            sizes["repsys.table_entries"] += sum(len(t) for t in rs.transforms.values())

        return {
            "modelio.parse": parse,
            "poset.construct": construct,
            "repsys.check_rs_axioms": rs_checked,
            "sums.build_presum": lambda r, a: sizes.update({"sums.presum_pairs": len(r.pairs)}),
            "sums.quotient_sum": lambda r, a: sizes.update({"sums.classes": r.order.n}),
            "conditions.verify_amp_axioms": lambda r, a: sizes.update(
                {"conditions.verify_amp_axioms.checked": sum(r.checked.values())}
            ),
            "decompose.enumerate_boolean_subalgebras": lambda r, a: sizes.update({"decompose.subalgebras": len(r)}),
        }

    def install(self):
        mods = {m: importlib.import_module(f"orthoview.{m}") for m in MODULES}
        everywhere = list(mods.values()) + [importlib.import_module("orthoview")]
        hooks = self._hooks()
        for table, make in ((SPANS, lambda n, f: self._span(n, f, hooks.get(n))), (COUNTS, self._count)):
            for module, dotted, name in table:
                owner, attr = _resolve(mods[module], dotted)
                original = getattr(owner, attr)
                wrapper = make(name, original)
                if owner is mods[module]:
                    # A module-level function: rebind it in every module
                    # that holds it, under whatever name it was imported.
                    for m in everywhere:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._restore.append((m, key, original))
                                setattr(m, key, wrapper)
                else:
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self):
        self.end_request()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self, passes):
        """Per-pass values of the PER_LAYER metrics measured in traced passes
        (the caller adds cli.cpu_s and trace.overhead_s), and ratio bases."""
        self.end_request()
        tables = {"calls": self.calls, "self_s": self.self_s, "errors": self.errors}
        out = {}
        for name in PER_LAYER:
            prefix, _, kind = name.rpartition(".")
            out[name] = (tables[kind][prefix] if kind in tables else self.sizes[name]) / passes
        accepted = self.calls["decompose.subalgebra"] - self.errors["decompose.subalgebra"]
        bases = {
            "poset.join.distinct_ratio": {"distinct": self._distinct_total["poset.join"], "calls": self.calls["poset.join"]},
            "poset.meet.distinct_ratio": {"distinct": self._distinct_total["poset.meet"], "calls": self.calls["poset.meet"]},
            "decompose.subalgebra.accept_ratio": {"accepted": accepted, "calls": self.calls["decompose.subalgebra"]},
        }
        for name, (num, den) in ((k, tuple(b.values())) for k, b in bases.items()):
            out[name] = num / den if den else 0.0
        out["poset.max_n"] = self.max_n
        bases = {k: {b: v / passes for b, v in base.items()} for k, base in bases.items()}
        return out, bases

    def write_spans(self, path):
        """All spans as gzipped JSON lines: id, parent, request, name, start, end."""
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
