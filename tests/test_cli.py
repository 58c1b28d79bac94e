import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import clustercat
from clustercat import arquiver, derived, orbit, quiver, verify
from clustercat.cli import main

from conftest import A2, A3, D4


@pytest.fixture
def a2_path(tmp_path):
    p = tmp_path / "a2.quiver"
    p.write_text(A2, encoding="utf-8")
    return str(p)


@pytest.fixture
def a3_path(tmp_path):
    p = tmp_path / "a3.quiver"
    p.write_text(A3, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ar_json(capsys, a2_path):
    code, out, _ = run(capsys, "ar", "--quiver", a2_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["dynkin"] == {"family": "A", "rank": 2}
    assert len(payload["modules"]) == 3
    assert payload["tau"] == [{"from": "m3", "to": "m2"}]
    assert payload["hom"][0][0] == 1


def test_ar_tsv_sections(capsys, a2_path):
    code, out, _ = run(capsys, "ar", "--quiver", a2_path, "--format", "tsv")
    assert code == 0
    for section in ("# modules", "# arrows", "# tau", "# hom", "# ext"):
        assert section in out
    assert "m1\t1,1\t1\t2" in out


def test_ar_a1_single_row(capsys, tmp_path):
    p = tmp_path / "a1.quiver"
    p.write_text("vertices 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "ar", "--quiver", str(p))
    payload = json.loads(out)
    assert code == 0
    assert len(payload["modules"]) == 1
    assert payload["tau"] == []


def test_ar_cycle_exits_2(capsys, tmp_path):
    p = tmp_path / "cycle.quiver"
    p.write_text("vertices 3\narrow 1 2\narrow 2 3\narrow 3 1\n", encoding="utf-8")
    code, _, err = run(capsys, "ar", "--quiver", str(p))
    assert code == 2
    assert "cycle" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "ar", "--quiver", "/nonexistent/q.quiver")
    assert code == 2
    assert "error" in err


def test_ind_counts(capsys, a2_path):
    code, out, _ = run(capsys, "ind", "--quiver", a2_path, "--m", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["m"] == 3
    assert len(payload["objects"]) == 15
    tiers = {r["tier"] for r in payload["objects"]}
    assert tiers == {0, 1, 2}


def test_hom_pair(capsys, a2_path):
    code, out, _ = run(capsys, "hom", "--quiver", a2_path, "--m", "2", "m1[0]", "m1[0]")
    payload = json.loads(out)
    assert code == 0
    assert payload["hom"] == 1
    assert payload["ext"] == 0


def test_hom_pair_self_ext_zero_everywhere(capsys, a3_path):
    code, out, _ = run(capsys, "hom", "--quiver", a3_path, "--m", "2")
    payload = json.loads(out)
    assert code == 0
    for x in payload["ids"]:
        assert payload["ext"][x][x] == 0
        assert payload["hom"][x][x] == 1


def test_hom_malformed_object_exits_2(capsys, a2_path):
    code, _, err = run(capsys, "hom", "--quiver", a2_path, "m1[", "m1[0]")
    assert code == 2
    assert "syntax" in err


def test_hom_unknown_id_exits_2(capsys, a2_path):
    code, _, err = run(capsys, "hom", "--quiver", a2_path, "m9[0]", "m1[0]")
    assert code == 2
    assert "unknown" in err


@pytest.mark.parametrize("operand", ["m1[{}]", "m{}[0]"], ids=["shift", "module-id"])
def test_hom_object_with_too_many_digits_exits_2_in_one_line(capsys, a2_path, operand):
    # past 4300 digits int() itself refuses; the reference is refused before it
    code, out, err = run(capsys, "hom", "--quiver", a2_path, "m1[0]", operand.format("1" * 5000))
    assert code == 2
    assert out == ""
    digits = f"m1[{'1' * 21}..." if operand.startswith("m1[") else f"m{'1' * 23}..."
    assert err == f"error: object {digits} has a number of over {derived.MAX_DIGITS} digits\n"


def test_hom_long_malformed_object_exits_2_in_one_short_line(capsys, a2_path):
    code, out, err = run(capsys, "hom", "--quiver", a2_path, "m1[0]", "x" * 5000)
    assert code == 2
    assert out == ""
    assert err == f"error: bad object syntax '{'x' * 24}...'; expected e.g. m3[-1]\n"
    assert len(err.encode()) < 200


def test_hom_single_object_usage_error(capsys, a2_path):
    with pytest.raises(SystemExit) as info:
        main(["hom", "--quiver", a2_path, "m1[0]"])
    assert info.value.code == 2


def test_tilting_listing(capsys, a3_path):
    code, out, _ = run(capsys, "tilting", "--quiver", a3_path)
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 14
    assert len(payload["tilting_objects"]) == 14
    assert all(len(members) == 3 for members in payload["tilting_objects"])


def test_tilting_members_scale_with_m(capsys, a3_path):
    code, out, _ = run(capsys, "tilting", "--quiver", a3_path, "--m", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["count"] == 14
    assert all(len(members) == 6 for members in payload["tilting_objects"])


def test_graph_json(capsys, a2_path):
    code, out, _ = run(capsys, "graph", "--quiver", a2_path, "--m", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["connected"] is True
    assert len(payload["vertices"]) == 5
    assert len(payload["edges"]) == 5


def test_graph_dot(capsys, a2_path):
    code, out, _ = run(capsys, "graph", "--quiver", a2_path, "--format", "dot")
    assert code == 0
    assert out.startswith("graph tilting {")
    assert out.rstrip().endswith("}")
    assert out.count(" -- ") == 5


def test_dot_rejected_outside_graph(capsys, a2_path):
    with pytest.raises(SystemExit) as info:
        main(["tilting", "--quiver", a2_path, "--format", "dot"])
    assert info.value.code == 2


def test_endo_report(capsys, a2_path):
    code, out, _ = run(capsys, "endo", "1", "--quiver", a2_path, "--m", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["vertex"] == "T1"
    assert payload["pattern_ok"] is True
    assert payload["dim_E"] == 0
    assert payload["block_dims"] == [[3, 0], [0, 3]]


def test_endo_vertex_out_of_range(capsys, a2_path):
    code, out, err = run(capsys, "endo", "9", "--quiver", a2_path)
    assert code == 2
    assert out == ""
    assert err == "error: vertex index 9 out of range 1..5\n"


def test_endo_past_the_side_cap_fails_fast_in_one_line(capsys, a2_path):
    start = time.perf_counter()
    m = str(orbit.MAX_TABLE_SIDE + 1)
    code, out, err = run(capsys, "endo", "1", "--quiver", a2_path, "--m", m)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"error: endo blocks of A2 at m={m} need {m} tiers;"
        f" at most {orbit.MAX_TABLE_SIDE} are supported\n"
    )


def test_endo_at_the_side_cap(capsys, a2_path):
    code, out, _ = run(capsys, "endo", "1", "--quiver", a2_path, "--m", str(orbit.MAX_TABLE_SIDE))
    assert code == 0
    blocks = json.loads(out)["block_dims"]
    assert len(blocks) == orbit.MAX_TABLE_SIDE and blocks[0][0] == 3


def test_verify_restricted_battery(capsys):
    code, out, _ = run(capsys, "verify", "--battery", "A2")
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["battery"] == ["A2"]
    assert payload["checks_failed"] == 0


def test_verify_fault_injection_fails_with_named_invariant(capsys, monkeypatch):
    # the battery behind the CLI sees A2#0 with one Hom table entry bumped
    def tamper(label, ar):
        if label == "A2#0":
            ar.hom_table[0][0] += 1

    run_verification = verify.run_verification
    monkeypatch.setattr(verify, "run_verification", lambda **kw: run_verification(**kw, tamper=tamper))
    code, out, _ = run(capsys, "verify", "--battery", "A2")
    payload = json.loads(out)
    assert code == 1
    assert payload["passed"] is False
    failing = {
        ch["name"]
        for cell in payload["cells"]
        for ch in cell["checks"]
        if not ch["passed"]
    }
    assert "oracle-hom-equivalence" in failing


def test_inject_fault_option_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--battery", "A2", "--inject-fault", "hom-table"])
    assert info.value.code == 2


def test_verify_unknown_battery_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--battery", "B7"])
    assert info.value.code == 2


@pytest.mark.parametrize("battery", [",", " ", ""])
def test_verify_battery_naming_no_diagram_exits_2(capsys, battery):
    code, out, err = run(capsys, "verify", "--battery", battery)
    assert code == 2
    assert out == ""
    assert err == f"error: --battery {battery!r} names no diagram\n"


def test_m_must_be_positive(capsys, a2_path):
    with pytest.raises(SystemExit) as info:
        main(["ind", "--quiver", a2_path, "--m", "0"])
    assert info.value.code == 2


def test_outputs_deterministic(capsys, a3_path):
    _, first, _ = run(capsys, "graph", "--quiver", a3_path, "--m", "2")
    _, second, _ = run(capsys, "graph", "--quiver", a3_path, "--m", "2")
    assert first == second
    _, t1, _ = run(capsys, "tilting", "--quiver", a3_path, "--format", "tsv")
    _, t2, _ = run(capsys, "tilting", "--quiver", a3_path, "--format", "tsv")
    assert t1 == t2


# every command in every format it accepts; endo and the point query take extra operands
OUT_CASES = [
    (command, fmt, extra)
    for command, formats, extra in (
        ("ar", ("json", "tsv"), ()),
        ("ind", ("json", "tsv"), ()),
        ("hom", ("json", "tsv"), ()),
        ("hom", ("json", "tsv"), ("m1[0]", "m2[1]")),
        ("tilting", ("json", "tsv"), ()),
        ("graph", ("json", "dot"), ()),
        ("endo", ("json",), ("2",)),
        ("verify", ("json",), ()),
    )
    for fmt in formats
]


def test_out_flag_writes_file(tmp_path, capsys, a2_path):
    # --out receives exactly the bytes stdout would, and stdout stays empty
    target = tmp_path / "out.txt"
    for command, fmt, extra in OUT_CASES:
        if command == "verify":
            argv = [command, "--battery", "A1"]
        else:
            argv = [command, "--quiver", a2_path, "--format", fmt, *extra]
            argv += [] if command == "ar" else ["--m", "2"]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0, argv
        assert run(capsys, *argv, "--out", str(target)) == (0, "", ""), argv
        assert target.read_text(encoding="utf-8") == stdout, argv
        if fmt == "json":
            assert next(iter(json.loads(stdout))) == "schema_version", argv


def test_tilting_listing_past_the_member_cap_fails_fast_in_one_line(capsys, tmp_path):
    # 50 tilting objects of D4, each lifted to 4 * 6000 members: 1.2M texts
    p = tmp_path / "d4.quiver"
    p.write_text(D4, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "tilting", "--quiver", str(p), "--m", "6000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "error: the tilting objects of D4 at m=6000 have 1200000 members;"
        f" at most {orbit.MAX_LISTED_MEMBERS} are supported\n"
    )


def _unreachable(*args):
    raise AssertionError("reached a stage a refused command must not start")


@pytest.mark.parametrize(
    "argv", [["tilting"], ["tilting", "--format", "tsv"], ["graph"]], ids=["tilting-json", "tilting-tsv", "graph-json"]
)
def test_member_listing_past_the_cap_is_refused_before_enumerating(capsys, a3_path, monkeypatch, argv):
    # the 14 tilting objects of A3 list 42 member texts at m = 1
    monkeypatch.setattr(orbit, "MAX_LISTED_MEMBERS", 41)
    with monkeypatch.context() as patched:
        patched.setattr(orbit.OrbitCategory, "rigid_position_sets", _unreachable)
        code, out, err = run(capsys, argv[0], "--quiver", a3_path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == "error: the tilting objects of A3 at m=1 have 42 members; at most 41 are supported\n"
    # graph --format dot lists no members, so the cap leaves it alone
    code, out, _ = run(capsys, "graph", "--quiver", a3_path, "--format", "dot")
    assert code == 0 and out.count(" -- ") == 21


def test_cluster_number_cap_admits_a11_d10_and_e8():
    admitted = {
        str(c)
        for c in [quiver.DynkinClass("A", n) for n in range(1, 32)]
        + [quiver.DynkinClass("D", n) for n in range(4, 23)]
        + [quiver.DynkinClass("E", n) for n in (6, 7, 8)]
        if quiver.cluster_number(c) <= orbit.MAX_TILTING_OBJECTS
    }
    assert admitted == {*(f"A{n}" for n in range(1, 12)), *(f"D{n}" for n in range(4, 11)), "E6", "E7", "E8"}


@pytest.mark.parametrize(
    "argv", [["tilting"], ["graph"], ["graph", "--format", "dot"], ["endo", "1"]], ids=["tilting", "graph", "dot", "endo"]
)
def test_tilting_objects_past_the_cap_fail_fast_before_the_search(capsys, tmp_path, monkeypatch, argv):
    # A12 has 742900 tilting objects; the search would walk them all first
    monkeypatch.setattr(orbit.OrbitCategory, "rigid_position_sets", _unreachable)
    p = tmp_path / "a12.quiver"
    p.write_text("vertices 12\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 12)))
    code, out, err = run(capsys, argv[0], "--quiver", str(p), *argv[1:])
    assert (code, out) == (2, "")
    if argv in (["tilting"], ["graph"]):  # the listing cap answers first
        assert err == "error: the tilting objects of A12 at m=1 have 8914800 members; at most 500000 are supported\n"
    else:
        assert err == "error: A12 has 742900 cluster tilting objects; at most 250000 are supported\n"


def test_huge_vertex_count_fails_fast_in_one_line(capsys, tmp_path):
    p = tmp_path / "huge.quiver"
    p.write_text("vertices 1000000\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "ar", "--quiver", str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "unreachable" in err
    assert len(err.encode()) < 200
    assert peak < 4 * 2**20


def test_non_utf8_quiver_file_exits_2_in_one_line(capsys, tmp_path):
    p = tmp_path / "latin.quiver"
    p.write_bytes(A2.encode() + b"\xff\xfe\n")
    code, out, err = run(capsys, "ind", "--quiver", str(p))
    assert code == 2
    assert out == ""
    assert err == f"error: line 3: not UTF-8 text at byte {len(A2)}\n"


def test_quiver_file_over_the_read_cap_exits_2_in_one_line(capsys, tmp_path):
    # a regular file one byte over the cap: valid text up to it, all read at once
    p = tmp_path / "big.quiver"
    p.write_bytes(A2.encode() + b"#" * (quiver.MAX_QUIVER_BYTES + 1 - len(A2)))
    start = time.perf_counter()
    code, out, err = run(capsys, "ar", "--quiver", str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: quiver file exceeds {quiver.MAX_QUIVER_BYTES} bytes\n"
    p.write_bytes(A2.encode() + b"#" * (quiver.MAX_QUIVER_BYTES - len(A2)))
    assert run(capsys, "ar", "--quiver", str(p))[0] == 0


def test_oversized_dynkin_quiver_fails_fast_in_one_line(capsys, tmp_path):
    # A80 is a valid Dynkin chain with 3240 indecomposables, far past the cap
    p = tmp_path / "a80.quiver"
    p.write_text("vertices 80\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 80)))
    start = time.perf_counter()
    code, out, err = run(capsys, "ar", "--quiver", str(p))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == f"error: A80 has 3240 indecomposables; at most {arquiver.MAX_MODULES} are supported\n"


def test_knitting_error_exits_3_naming_type_and_mesh(capsys, a2_path, monkeypatch):
    # a brick check that always fails; on A2 the first mesh is at m2 = P_2
    monkeypatch.setattr(arquiver, "rep_hom_dim", lambda q, a, b: 2)
    code, out, err = run(capsys, "ar", "--quiver", a2_path)
    assert code == 3
    assert out == ""
    assert err == "error: internal: KnittingError: A2: mesh cokernel at m2 is decomposable\n"


def test_unexpected_exception_exits_3_without_traceback(capsys, a3_path, monkeypatch):
    def broken(self, nid, inj_dv):
        raise ZeroDivisionError("division by zero\nin a mesh")

    monkeypatch.setattr(arquiver.ARQuiver, "_complete_mesh", broken)
    code, out, err = run(capsys, "tilting", "--quiver", a3_path)
    assert code == 3
    assert out == ""
    assert err == "error: internal: ZeroDivisionError: division by zero in a mesh\n"


def test_shift_past_the_limit_is_a_usage_error(capsys, a2_path):
    code, out, err = run(capsys, "hom", "--quiver", a2_path, "m1[3000000]", "m2[0]")
    assert code == 2
    assert out == ""
    assert err == f"error: shift 3000000 of m1 exceeds limit {derived.SHIFT_LIMIT}\n"


def test_large_modulus_catalog_is_linear(capsys, a2_path):
    # 20000 tiers of 5 objects: the catalog cap exactly; each tier is one
    # twist of the one before, so this takes seconds, not a quadratic walk
    start = time.perf_counter()
    code, out, _ = run(capsys, "ind", "--quiver", a2_path, "--m", "20000")
    assert time.perf_counter() - start < 10.0
    assert code == 0
    rows = json.loads(out)["objects"]
    assert len(rows) == orbit.MAX_CATALOG
    assert rows[-1]["tier"] == 19999


def test_modulus_past_the_catalog_cap_fails_fast_in_one_line(capsys, a2_path):
    start = time.perf_counter()
    code, out, err = run(capsys, "ind", "--quiver", a2_path, "--m", "20001")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        f"error: A2 at m=20001 has 100005 orbit objects; at most {orbit.MAX_CATALOG} are supported\n"
    )


@pytest.mark.parametrize("command", ["hom"])
def test_full_tables_past_the_side_cap_fail_fast_in_one_line(capsys, a2_path, command):
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--quiver", a2_path, "--m", "100")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == (
        "error: full Hom/Ext tables of A2 at m=100 need 500 objects per side;"
        f" at most {orbit.MAX_TABLE_SIDE} are supported\n"
    )


def test_graph_past_the_table_side_cap_reads_the_modulus_1_graph(capsys, a2_path):
    # the graph builds no modulus-m table, so only the catalog and listing caps apply
    code, out, err = run(capsys, "graph", "--quiver", a2_path, "--m", "100")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["connected"] is True and len(payload["edges"]) == 5
    assert all(len(v["members"]) == 200 for v in payload["vertices"])


def test_graph_dot_is_the_same_at_every_modulus(capsys, a3_path):
    outs = [run(capsys, "graph", "--quiver", a3_path, "--m", m, "--format", "dot") for m in "123"]
    assert outs[0][0] == 0 and outs[0][1].count(" -- ") == 21
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_full_tables_of_a_small_quiver_at_a_large_modulus(capsys, tmp_path):
    # A1 at m = 150 has 300 objects per side; each entry is a lookup in the
    # base-domain layers, not a walk of the twist over m tiers
    p = tmp_path / "a1.quiver"
    p.write_text("vertices 1\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, "hom", "--quiver", str(p), "--m", "150")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    payload = json.loads(out)
    assert len(payload["ids"]) == 300
    assert all(payload["hom"][x][x] == 1 and payload["ext"][x][x] == 0 for x in payload["ids"])


def _fresh_stdout(code: str) -> str:
    """Standard output of code run in a fresh interpreter that imports src/."""
    src = str(Path(clustercat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_cli_import_leaves_verify_unloaded():
    # verify is the largest module and only the verify command needs it
    code = "import sys, clustercat.cli; print('clustercat.verify' in sys.modules)"
    assert _fresh_stdout(code) == "False\n"


def test_ar_loads_no_layer_it_does_not_use(tmp_path):
    # a bare package import loads no submodule, and ar stops at the derived
    # layer; its records are named tuples, so dataclasses and inspect stay out
    quiver_path, out_path = tmp_path / "a3.quiver", tmp_path / "ar.json"
    quiver_path.write_text(A3, encoding="utf-8")
    code = (
        "import sys, clustercat\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('clustercat.'))\n"
        "print(*loaded())\n"
        "from clustercat.cli import main\n"
        f"assert main(['ar', '--quiver', {str(quiver_path)!r}, '--out', {str(out_path)!r}]) == 0\n"
        "print(*loaded())\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    bare, after_ar, stdlib = _fresh_stdout(code).splitlines()
    assert bare == ""
    assert stdlib == "False False"
    unused = {f"clustercat.{name}" for name in ("orbit", "tilting", "endo", "verify")}
    assert "clustercat.arquiver" in after_ar.split()
    assert not unused & set(after_ar.split())
    assert json.loads(out_path.read_text(encoding="utf-8"))["dynkin"] == {"family": "A", "rank": 3}


def test_verify_help_names_the_battery_diagrams(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "A1,A2,A3,A4,D4" in capsys.readouterr().out
