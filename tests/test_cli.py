import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orthoview
from orthoview import (
    build_canonical_rs,
    build_orthoposet,
    check_rs_axioms,
    doc_from_orthoposet,
    make_rs,
    serialize,
    zoo,
    zoo_model,
)
from orthoview.cli import build_parser, main
from orthoview.modelio import MapSpec, ModelDocument

from _models import mutate_random_entry
from test_parser import _edited


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    records = [json.loads(line) for line in out.out.splitlines() if line.startswith("{")]
    return code, records, out


def test_validate_whole_zoo(capsys):
    for name in zoo():
        code, records, _ = run(capsys, "validate", f"zoo:{name}")
        assert code == 0, name
        assert all(r["verdict"] for r in records)


def test_classify_hexagon_exits_one_with_witness(capsys):
    code, records, _ = run(capsys, "classify", "zoo:O6")
    assert code == 1
    omp = next(r for r in records if r["check"] == "orthomodular_poset")
    assert omp["verdict"] is False
    assert omp["witness"] == ["a", "b"]


def test_classify_boolean_exits_zero(capsys):
    code, records, _ = run(capsys, "classify", "zoo:boolean_8")
    assert code == 0
    assert all(r["verdict"] for r in records)


def test_classify_flags_follow_zoo_metadata(capsys):
    names = {
        "boolean_algebra": "is_boolean",
        "ortholattice": "is_ortholattice",
        "orthomodular_poset": "is_omp",
        "orthomodular_lattice": "is_oml",
    }
    for m in zoo().values():
        if m.kind != "orthoposet":
            continue
        code, records, _ = run(capsys, "classify", f"zoo:{m.name}")
        got = {names[r["check"]]: r["verdict"] for r in records}
        assert got == m.expected
        assert code == (0 if all(m.expected.values()) else 1)


def test_roundtrip_mo2(capsys):
    code, records, _ = run(capsys, "roundtrip", "zoo:MO2")
    assert code == 0
    iso = records[0]["data"]["isomorphism"]
    assert len(iso) == 6
    assert records[0]["counts"]["elements"] == 6


def test_roundtrip_whole_zoo(capsys):
    for m in zoo().values():
        if m.kind != "orthoposet":
            continue
        code, _, _ = run(capsys, "roundtrip", f"zoo:{m.name}")
        assert code == 0, m.name


def test_check_firefly_rs(capsys):
    code, records, _ = run(capsys, "check", "zoo:firefly", "--property", "rs")
    assert code == 0
    assert records[0]["check"] == "rs_axioms"


def test_check_firefly_boolean_rs_fails(capsys):
    code, records, _ = run(capsys, "check", "zoo:firefly", "--property", "boolean-rs")
    assert code == 1
    assert records[0]["code"] == "view-not-boolean"
    assert records[0]["witness"][0] == "X"


def test_check_firefly_closure(capsys):
    code, records, _ = run(capsys, "check", "zoo:firefly", "--property", "closure")
    assert code == 0


def test_check_conditions_on_zoo(capsys):
    code, _, _ = run(capsys, "check", "zoo:MO2", "--property", "eq6")
    assert code == 0
    code, _, _ = run(capsys, "check", "zoo:MO2", "--property", "eq11")
    assert code == 0
    code, records, _ = run(capsys, "check", "zoo:O6", "--property", "eq6")
    assert code == 1
    assert records[0]["code"] == "no-shared-view"
    code, records, _ = run(capsys, "check", "zoo:greechie_cycle_4", "--property", "eq11")
    assert code == 1
    assert records[0]["code"] == "no-preferred-view"


def test_sum_firefly(capsys):
    code, records, _ = run(capsys, "sum", "zoo:firefly")
    assert code == 0
    assert records[0]["counts"] == {"pairs": 10, "classes": 9}


def test_sum_emit_model_reparses_and_revalidates(capsys, tmp_path):
    for name in ("firefly", "MO2", "boolean_4"):
        code, records, out = run(capsys, "sum", f"zoo:{name}", "--emit-model")
        assert code == 0
        assert not records
        path = tmp_path / f"{name}_sum.oml-model"
        path.write_text(out.out)
        code, records, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert all(r["verdict"] for r in records)


def test_decompose_list(capsys):
    code, records, _ = run(capsys, "decompose", "zoo:MO2", "--list")
    assert code == 0
    assert records[0]["counts"]["subalgebras"] == 3
    assert records[1]["data"]["carrier"] == ["0", "1"]


def test_amp_with_sasaki(capsys):
    code, records, _ = run(capsys, "amp", "zoo:MO2", "--vs-sasaki")
    assert code == 0
    by_check = {r["check"]: r for r in records}
    assert by_check["amp_axioms"]["verdict"] is True
    assert by_check["amp_vs_sasaki"]["data"]["agreement"] == 1.0


def test_amp_computes_each_array_and_verdict_once(capsys, monkeypatch):
    """One `amp` request gathers the closure table, runs the preferred-view
    kernel and decides each condition once: the shared-view check, the
    preferred-view check and `build_amp` read them off the sum."""
    import orthoview.sums as sums

    computed = []
    original = sums._cached

    def counting(o, key, compute):
        return original(o, key, lambda: computed.append(key[0]) or compute())

    monkeypatch.setattr(sums, "_cached", counting)
    code, records, _ = run(capsys, "amp", "zoo:greechie_cycle_5", "--vs-sasaki")
    assert code == 0 and [r["check"] for r in records][:3] == ["condition_omp", "condition_oml", "amp_axioms"]
    assert sorted(computed) == sorted(["closure_table", "_preferred_views", "check_condition_omp", "check_condition_oml"])


def test_system_without_views_exits_cleanly(capsys, tmp_path):
    # every scan runs on empty stacked tables; the sum has no bounds, a
    # fault of the input (exit 1), not of the program (exit 3)
    path = tmp_path / "empty.oml-model"
    path.write_text("repsys empty {\n}\n")
    for prop in ("rs", "boolean-rs", "closure", "eq6", "eq11"):
        assert run(capsys, "check", str(path), "--property", prop)[0] == 0, prop
    assert run(capsys, "validate", str(path))[0] == 0
    for command in ("sum", "amp"):
        code, _, out = run(capsys, command, str(path))
        assert code == 1 and "validation failure [not-bounded]" in out.err


def test_amp_on_hexagon_reports_condition_failure(capsys):
    code, records, _ = run(capsys, "amp", "zoo:O6")
    assert code == 1
    assert records[0]["check"] == "condition_omp"
    assert records[0]["verdict"] is False


def test_zoo_listing_and_print(capsys):
    code, records, _ = run(capsys, "zoo")
    assert code == 0
    assert len(records) == len(zoo())
    code, _, out = run(capsys, "zoo", "MO2")
    assert code == 0
    assert out.out == zoo()["MO2"].text


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.oml-model"
    path.write_text("posett p { elements x }")
    assert main(["validate", str(path)]) == 2
    capsys.readouterr()


def test_non_utf8_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.oml-model"
    path.write_bytes(b"poset p { elements \xff ; }\n")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_byte_order_mark_is_dropped(capsys, tmp_path):
    """A file that starts with a UTF-8 byte-order mark reads as the same file
    without it: the same records and exit code, and a parse error at the same
    line and column; an undecodable byte after it is still a usage error."""
    cases = [
        ("validate", "poset p { elements x }"),
        ("classify", "orthoposet o {\n  elements 0 a a' 1 ;\n  covers 0<a 0<a' a<1 a'<1 ;\n  ortho 0:1 a:a'\n}\n"),
        ("check", zoo()["firefly"].text),
        ("classify", zoo()["hexagon_O6"].text),
        ("validate", "poset p { elements x y ; covers x<y y<x }"),
        ("validate", "poset p {\n  elements x ;\n  covers x<q\n}\n"),
        ("validate", "poset p { elements x ; bogus }"),
    ]
    for cmd, text in cases:
        outs = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "doc.oml"
            path.write_bytes(prefix + text.encode("utf-8"))
            code = main([cmd, str(path)])
            outs.append((code, capsys.readouterr()))
        (code, out), (bom_code, bom_out) = outs
        assert (bom_code, bom_out.out, bom_out.err) == (code, out.out, out.err), text
    assert bom_out.err == "parse error: line 1, column 24: unknown section 'bogus' in poset\n"
    path.write_bytes(b"\xef\xbb\xbfposet p { elements \xff ; }\n")
    assert main(["validate", str(path)]) == 2
    assert "'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


def test_invalid_model_exit_code(capsys, tmp_path):
    path = tmp_path / "cycle.oml-model"
    path.write_text("poset p { elements x y ; covers x<y y<x }")
    code, records, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert records[0]["verdict"] is False
    assert records[0]["code"] == "antisymmetry"


def test_usage_errors(capsys):
    assert main(["classify", "zoo:firefly"]) == 2
    capsys.readouterr()
    assert main(["validate", "zoo:nonesuch"]) == 2
    capsys.readouterr()
    assert main(["validate", "/no/such/file.oml-model"]) == 2
    capsys.readouterr()
    assert main(["classify", "zoo:MO2", "--bogus"]) == 2
    capsys.readouterr()
    assert main(["decompose", "zoo:greechie_cycle_5", "--cap", "12"]) == 2
    capsys.readouterr()


def test_cap_is_offered_only_where_a_decomposition_runs(capsys):
    """validate and classify never decompose, so --cap is a usage error
    there; the commands that may decompose an orthoposet take it."""
    for command in ("validate", "classify"):
        assert main([command, "zoo:MO2", "--cap", "64"]) == 2
        assert "unrecognized arguments: --cap" in capsys.readouterr().err
    assert main(["zoo", "--cap", "64"]) == 2
    capsys.readouterr()
    for argv in (["sum", "zoo:MO2"], ["check", "zoo:MO2", "--property", "eq6"], ["decompose", "zoo:MO2"], ["roundtrip", "zoo:MO2"], ["amp", "zoo:MO2"]):
        assert main(argv + ["--cap", "64"]) == 0, argv
        capsys.readouterr()


def test_record_stream_is_stable_across_runs(capsys):
    _, _, out1 = run(capsys, "classify", "zoo:O6")
    _, _, out2 = run(capsys, "classify", "zoo:O6")
    assert out1.out == out2.out


def test_calls_in_one_process_match_calls_run_alone():
    """The parser is built once per process; every call in a mixed sequence
    (a usage error, a bad --property choice, failures and successes) gives
    the exit code, stdout and stderr of the same call in a fresh process."""
    sequence = [
        ["classify", "zoo:O6"],
        ["check", "zoo:firefly", "--property", "bogus"],
        ["check", "zoo:firefly", "--property", "rs"],
        ["classify", "zoo:MO2", "--bogus"],
        [],
        ["amp", "zoo:O6"],
        ["validate", "zoo:nonesuch"],
        ["sum", "zoo:firefly", "--emit-model"],
        ["check", "zoo:firefly", "--property", "closure"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(orthoview.__file__).parents[1]))
    alone = []
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from orthoview.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    together = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        together.append((code, out.getvalue(), err.getvalue()))
    assert together == alone
    assert {code for code, _, _ in alone} == {0, 1, 2}
    assert build_parser() is build_parser()


def write_repsys(path, rs, orthos):
    """A repsys document of orthoposet views; identity tables stay implicit."""
    views = tuple((v, doc_from_orthoposet(v, o)) for v, o in zip(rs.views, orthos))
    maps = tuple(
        MapSpec(i, j, tuple(range(len(table))), table)
        for (i, j), table in sorted(rs.transforms.items())
        if i != j
    )
    path.write_text(serialize(ModelDocument("repsys", "rewired", views=views, maps=maps)))
    return str(path)


def test_amp_on_rewired_system_reports_rs_axioms(capsys, tmp_path):
    brs = build_canonical_rs(build_orthoposet(zoo_model("MO2").doc))
    rng = random.Random(5)
    while True:
        mutated = mutate_random_entry(brs.rs, rng)
        identities = all(mutated.transforms[(v, v)] == brs.rs.transforms[(v, v)] for v in mutated.views)
        if identities and not check_rs_axioms(mutated):
            break
    path = write_repsys(tmp_path / "rewired.oml-model", mutated, brs.orthos)
    code, records, _ = run(capsys, "amp", path)
    assert code == 1
    assert [r["check"] for r in records] == ["rs_axioms"]
    assert records[0]["verdict"] is False
    assert (code, records) == run(capsys, "sum", path)[:2]
    assert (code, records) == run(capsys, "check", path, "--property", "eq11")[:2]


def test_amp_on_non_boolean_views_reports_boolean_rs_axioms(capsys, tmp_path):
    o = build_orthoposet(zoo_model("MO2").doc)
    path = write_repsys(tmp_path / "mo2.oml-model", make_rs(["M"], [o.poset], {}), (o,))
    code, records, _ = run(capsys, "amp", path)
    assert code == 1
    assert [(r["check"], r["code"]) for r in records] == [("boolean_rs_axioms", "view-not-boolean")]


def test_amp_needs_orthocomplemented_views(capsys):
    assert main(["amp", "zoo:firefly"]) == 2
    capsys.readouterr()


_COMMANDS = [
    ["validate"], ["classify"], ["sum"], ["sum", "--emit-model"], ["decompose"], ["decompose", "--list"],
    ["roundtrip"], ["amp"], ["amp", "--vs-sasaki"],
] + [["check", "--property", p] for p in ("rs", "boolean-rs", "eq6", "eq11", "closure")]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.oml-model"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_main_exits_0_to_3_on_any_input(model_path, data):
    """Every command and flag, on zoo references good and bad, on
    token-edited zoo documents and on those with a byte that is not UTF-8
    spliced in: main returns an exit code of the contract and raises
    nothing."""
    name = data.draw(st.sampled_from(sorted(zoo()) + ["nonesuch"]))
    source = data.draw(st.sampled_from(["zoo", "edited", "bytes"]))
    ref = f"zoo:{name}"
    if source != "zoo" and name in zoo():
        text = " ".join(_edited(zoo()[name].text, data)).encode()
        if source == "bytes":
            i = data.draw(st.integers(0, len(text)))
            text = text[:i] + bytes([data.draw(st.integers(0x80, 0xFF))]) + text[i:]
        model_path.write_bytes(text)
        ref = str(model_path)
    argv = data.draw(st.sampled_from(_COMMANDS)) + [ref] + data.draw(st.sampled_from([[], ["--cap", "8"]]))
    argv = data.draw(st.sampled_from([argv, ["zoo"], ["zoo", name]]))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
