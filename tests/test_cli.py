import ast
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clustercat
from clustercat import arquiver, cli, derived, orbit, quiver, verify
from clustercat.arquiver import ARQuiver
from clustercat.cli import _write_json, main
from clustercat.derived import DerivedCategory

from conftest import A1, A2, A3, D4, D5, E6, TREES, oriented_trees


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


def test_point_query_builds_no_catalog(capsys, monkeypatch, tmp_path):
    # a D5 pair at m = 1000 with shifts near 10^5: canonicalize finds the tiers
    # by arithmetic and the texts come from the base catalog, so none of the
    # 25000 orbit objects is built; the answer is the one the catalog gives
    path = tmp_path / "d5.quiver"
    path.write_text(D5, encoding="utf-8")
    made, category = [], cli._category
    monkeypatch.setattr(cli, "_category", lambda args: made.append(category(args)) or made[-1])
    code, out, _ = run(capsys, "hom", "--quiver", str(path), "--m", "1000", "m3[100213]", "m7[-98011]")
    assert code == 0
    (cat,) = made
    assert "catalog" not in cat.__dict__ and "catalog" in cat.base.__dict__
    i, j = (cat.canonicalize(cat.derived.parse_object(text)) for text in ("m3[100213]", "m7[-98011]"))
    expected = {"m": 1000, "x": cat.catalog[i].text, "y": cat.catalog[j].text, "hom": cat.dim(i, j, 0), "ext": cat.dim(i, j, 1)}
    assert json.loads(out) == {"schema_version": 1, **expected}


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


# (quiver text, command and arguments after --quiver): each echoes user input
_LONG_INPUTS = {
    "arrow-line": (A2 + "arrow 1 " + "x" * 200_000 + "\n", ["ar"]),
    "keyword-line": (A2 + "y" * 200_000 + "\n", ["ar"]),
    "vertex-count-token": ("vertices " + "z" * 100_000 + "\n", ["ar"]),
    "vertex-count-digits": ("vertices " + "9" * 4000 + "\n", ["ar"]),
    "vertex-index": (A2 + "arrow 1 " + "9" * 4000 + "\n", ["ar"]),
    "modulus": (A2, ["ind", "--m", "9" * 3000]),
    "endo-vertex": (A2, ["endo", "9" * 5000]),
    "object-number": (A2, ["hom", "m1[0]", "m" + "1" * 5000 + "[0]"]),
}


@pytest.mark.parametrize("case", sorted(_LONG_INPUTS))
def test_long_input_is_refused_in_one_short_line(capsys, tmp_path, case):
    text, (command, *rest) = _LONG_INPUTS[case]
    p = tmp_path / "q.quiver"
    p.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--quiver", str(p), *rest)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


def test_long_quiver_path_is_refused_in_one_short_line(capsys, tmp_path):
    code, out, err = run(capsys, "ar", "--quiver", str(tmp_path / ("q" * 5000)))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno ") and err.endswith("...'\n")
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_modulus_past_the_int_limit_is_a_short_usage_error(capsys, a2_path):
    # int() refuses over 4300 digits, so the parser reports it, quoting 24
    with pytest.raises(SystemExit) as info:
        main(["ind", "--quiver", a2_path, "--m", "9" * 5000])
    assert info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"clustercat ind: error: argument --m: invalid positive integer '{'9' * 24}...'"


@pytest.mark.parametrize("operand", ["m\u0661[\u0660]", "m1[+0]", "m1[1_0]", "m1[ 0]", "m\uff11[0]"])
def test_hom_object_numbers_are_ascii_digits(capsys, a2_path, operand):
    code, out, err = run(capsys, "hom", "--quiver", a2_path, operand, "m1[0]")
    assert (code, out) == (2, "")
    assert err == f"error: bad object syntax {operand!r}; expected e.g. m3[-1]\n"


@pytest.mark.parametrize("vertex", ["\u0663", "+3", "3 ", "0_3"])
def test_endo_vertex_is_ascii_digits(capsys, a3_path, vertex):
    code, out, err = run(capsys, "endo", "--quiver", a3_path, vertex)
    assert (code, out) == (2, "")
    assert err == f"error: vertex index {vertex} out of range 1..14\n"


def test_hom_single_object_usage_error(capsys, a2_path):
    with pytest.raises(SystemExit) as info:
        main(["hom", "--quiver", a2_path, "m1[0]"])
    assert info.value.code == 2


_USAGE_ERRORS = {
    "m-zero": (["ind", "--m", "0"], "clustercat ind: error: argument --m: must be a positive integer"),
    "m-text": (["ind", "--m", "abc"], "clustercat ind: error: argument --m: invalid positive integer 'abc'"),
    "m-underscore": (["ind", "--m", "1_0"], "clustercat ind: error: argument --m: invalid positive integer '1_0'"),
    "m-arabic-indic": (["ind", "--m", "\u0663"], "clustercat ind: error: argument --m: invalid positive integer '\u0663'"),
    "m-plus": (["ind", "--m", "+3"], "clustercat ind: error: argument --m: invalid positive integer '+3'"),
    "m-space": (["ind", "--m", " 3"], "clustercat ind: error: argument --m: invalid positive integer ' 3'"),
    "m-negative": (["ind", "--m", "-3"], "clustercat ind: error: argument --m: invalid positive integer '-3'"),
    "no-quiver": (["ind"], "clustercat ind: error: the following arguments are required: --quiver"),
    "battery": (
        ["verify", "--battery", "Z9"],
        "clustercat: error: unknown diagrams ['Z9']; choose from ['A1', 'A2', 'A3', 'A4', 'D4']",
    ),
    "one-object": (["hom", "m1[0]"], "clustercat: error: hom takes exactly two objects, or none for the full tables"),
    "format": (
        ["ind", "--format", "dot"],
        "clustercat ind: error: argument --format: invalid choice: 'dot' (choose from 'json', 'tsv')",
    ),
    "command": (["frob"], "clustercat: error: argument command: invalid choice: 'frob' (choose from"),
    "long-extra": (["ind", "x" * 5000], "clustercat: error: unrecognized arguments: xxx"),
}


@pytest.mark.parametrize("case", sorted(_USAGE_ERRORS))
def test_usage_error_is_one_line(capsys, a2_path, case):
    argv, start = _USAGE_ERRORS[case]
    if argv[0] in ("ind", "hom") and argv != ["ind"]:
        argv = [argv[0], "--quiver", a2_path, *argv[1:]]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(start) and err.count("\n") == 1
    assert len(err.encode()) <= 200


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


@pytest.mark.parametrize("vertex, m", [("9", "1"), ("0", "1"), ("abc", "1"), ("6", "3")])
def test_endo_vertex_out_of_range(capsys, a2_path, monkeypatch, vertex, m):
    # the range is the cluster number: an index is judged before the exchange walk
    monkeypatch.setattr(orbit.OrbitCategory, "_exchange_walk", property(_unreachable))
    code, out, err = run(capsys, "endo", vertex, "--quiver", a2_path, "--m", m)
    assert (code, out) == (2, "")
    assert err == f"error: vertex index {vertex} out of range 1..5\n"


def test_endo_past_the_side_cap_fails_fast_in_one_line(capsys, a2_path, monkeypatch):
    # the tier cap is judged after the vertex range and, like it, before the exchange walk
    monkeypatch.setattr(orbit.OrbitCategory, "_exchange_walk", property(_unreachable))
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
    assert run(capsys, "endo", "6", "--quiver", a2_path, "--m", m) == (2, "", "error: vertex index 6 out of range 1..5\n")


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

    verification_report = verify.verification_report
    monkeypatch.setattr(verify, "verification_report", lambda **kw: verification_report(**kw, tamper=tamper))
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


def test_verify_timings_add_seconds_and_nothing_else(capsys):
    # without the flag the report is the battery's, byte for byte; with it each
    # check also carries its wall time, and everything else is unchanged
    code, plain, _ = run(capsys, "verify", "--battery", "A2,A3")
    report = {"schema_version": 1, **verify.run_verification(["A2", "A3"])}
    assert code == 0 and plain == json.dumps(report, indent=2) + "\n"
    assert '"seconds"' not in plain
    code, timed, _ = run(capsys, "verify", "--battery", "A2,A3", "--timings")
    payload = json.loads(timed)
    checks = [check for cell in payload["cells"] for check in cell["checks"]]
    assert code == 0 and len(checks) == payload["checks_total"] == report["checks_total"]
    assert all(isinstance(check.pop("seconds"), float) for check in checks)
    assert json.dumps(payload, indent=2) + "\n" == plain


# sha256 of verify's stdout as the battery printed it before its checks were
# rewritten to read whole rows: a change that only speeds the battery up keeps
# these bytes; one that adds or changes a check updates them and says so
VERIFY_STDOUT_SHA256 = {
    (): "8aacc2609ab3e8f5c32ff5968d07e824e1839e1452fe864044cbfd492b6c4e21",
    ("--battery", "D4"): "1a066659738d6120d8542ab7735616a542afe2978ab09cc99defc65d5d23ce9e",
}


@pytest.mark.parametrize("extra", VERIFY_STDOUT_SHA256, ids=["default", "D4"])
def test_verify_stdout_is_byte_identical_to_the_pinned_digest(capsys, extra):
    code, out, err = run(capsys, "verify", *extra)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_STDOUT_SHA256[extra]


# sha256 of each TSV and dot output as it was printed before every table went
# through one encoder; "hom-pair" is the point query hom m1[0] m2[1]
TEXT_STDOUT_SHA256 = {
    ("ar", "A1"): "af57f2c1a0d4fbd3fea7fe0360d3f8766f414a7a678fc2572188a65e93e8c2df",
    ("ar", "A3"): "e61acccfe3dbae49c07c38d5479ebfadf123f5c3f41946420115e14968858d18",
    ("ar", "D4"): "ad688ca82a36bf87a9c2d4298bec0a550fa6263ec785eccb261c91d205b132aa",
    ("ar", "E6"): "22fa455d106264c1b7c77caaa027d161ea43b45065b01544f1c52f0174749ebb",
    ("ind", "A3", "1"): "192ce0c435f83c28d4aabf2a0f3a4859463e511597aad06bc1054b507a873f99",
    ("hom", "A3", "1"): "c2129020b4edf76b8ed7a54ba94724cf53f3da90a6a529cc94637c6d77029970",
    ("hom-pair", "A3", "1"): "ff0a2d54b6bff0ae78d4e6b982438b6cb84c21817021908f2ea72e6172c03ea2",
    ("tilting", "A3", "1"): "d355f1856613c35a401d775dc3d7372ea62a83bb679e90c5c0686deeabadf826",
    ("graph", "A3", "1"): "fd9cc8a3e219a089ccc3c2bc63d66f94305bd44cb2665999dff4c9331753cf41",
    ("ind", "A3", "2"): "469ec4ff4935c2871fe15eacebe6bf00f6e7589708cb53fd9c73250330de7056",
    ("hom", "A3", "2"): "3dd310481598b501539c06946411087dba4525756116301daca7bf360d524bbd",
    ("hom-pair", "A3", "2"): "b78db1d7b2a06e82a3605599856604e921e7d0fd13b53f5041a40886afabf88d",
    ("tilting", "A3", "2"): "d580e84dc137a66e2c78942273a7eec124292e49ecd3d0a4c1cb16a469460571",
    ("graph", "A3", "2"): "fd9cc8a3e219a089ccc3c2bc63d66f94305bd44cb2665999dff4c9331753cf41",
    ("ind", "D4", "1"): "6a7bea5bd27344e37a1a5b302d170922628eaa690850766321fc9cd60ba94fbc",
    ("hom", "D4", "1"): "6d9fe2a95b0d150ecf277ded056b4ec34ce7e49841ffa9e0829a49c5b6dd4960",
    ("hom-pair", "D4", "1"): "b78db1d7b2a06e82a3605599856604e921e7d0fd13b53f5041a40886afabf88d",
    ("tilting", "D4", "1"): "72b830012cfcb4deffa704d674fa788c3e8f8841a62a8c772fda153ef98146e3",
    ("graph", "D4", "1"): "501d34d8daad1c76de0f98eea0ddc363d0d4ea6ce4f2a055491793d28329db05",
    ("ind", "D4", "2"): "85a544ec7651f382947aa1bfa774f82539dfcc68fdb006d91dbf680762010475",
    ("hom", "D4", "2"): "dde7c1096ffe8ceb57ac38653bca245818dc83c00b9f9412f81dec884983d640",
    ("hom-pair", "D4", "2"): "b78db1d7b2a06e82a3605599856604e921e7d0fd13b53f5041a40886afabf88d",
    ("tilting", "D4", "2"): "ec4e83d5ce06e5bfa9cccddc90a98bf92c8afcec3640ad7a689236ce61ffb0f3",
    ("graph", "D4", "2"): "501d34d8daad1c76de0f98eea0ddc363d0d4ea6ce4f2a055491793d28329db05",
}


@pytest.mark.parametrize("case", TEXT_STDOUT_SHA256, ids=" ".join)
def test_text_output_is_byte_identical_to_the_pinned_digest(tmp_path, capsys, case):
    command, diagram, *m = case
    path = tmp_path / f"{diagram}.quiver"
    path.write_text({"A1": A1, "A3": A3, "D4": D4, "E6": E6}[diagram], encoding="utf-8")
    argv = ["hom", "m1[0]", "m2[1]"] if command == "hom-pair" else [command]
    fmt = "dot" if command == "graph" else "tsv"
    code, out, err = run(capsys, *argv, "--quiver", str(path), "--format", fmt, *(["--m", *m] if m else []))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TEXT_STDOUT_SHA256[case]


def test_verify_battery_runs_a_repeated_diagram_once(capsys):
    code, once, _ = run(capsys, "verify", "--battery", "A2")
    assert code == 0 and json.loads(once)["checks_total"] == 112
    assert run(capsys, "verify", "--battery", "A2,a2, A2") == (0, once, "")


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


# -- the streamed emitter: the bytes of json.dumps(indent=2) plus a newline --

# strings with quotes, backslashes, control and non-ASCII characters and lone surrogates
_STRINGS = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800\udfff\xe9\U0001f600'),
    max_size=8,
)
_SCALARS = st.one_of(
    _STRINGS,
    st.integers(),
    st.integers(-(10**60), 10**60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
# leaf lists that a fast path must not take for all-int or all-str lists
_MIXED = st.sampled_from(
    [[1, True], [True, 1], [1, 1.0], [1.0, 1], [1, "1"], ["1", 1], [False], [0.5], ["a", None]]
)
_PAYLOADS = st.recursive(
    _SCALARS | _MIXED,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.lists(st.integers() | st.booleans(), max_size=5),
        st.lists(_STRINGS, max_size=5),
        st.dictionaries(_STRINGS, children, max_size=5),
    ),
    max_leaves=25,
)


def _emitted(payload) -> str:
    fh = io.StringIO()
    _write_json(payload, fh)
    return fh.getvalue()


@settings(max_examples=150, deadline=None)
@given(payload=_PAYLOADS)
def test_emitter_writes_the_indent_2_dump(payload):
    assert _emitted(payload) == json.dumps(payload, indent=2) + "\n"


def test_emitter_leaf_lists_keep_bools_and_floats_apart():
    for leaf in ([1, True], [True, False], [1, 1.0], [2.0, 3], [1, "1"], ["a", None], [-(10**30), 10**30]):
        assert _emitted({"x": leaf}) == json.dumps({"x": leaf}, indent=2) + "\n"


@pytest.mark.parametrize(
    "bad", [{1, 2}, b"bytes", frozenset(), object()], ids=["set", "bytes", "frozenset", "object"]
)
def test_emitter_refuses_other_types(bad):
    for payload in (bad, [1, bad], {"k": [bad]}):
        with pytest.raises(TypeError):
            _emitted(payload)


def test_emitter_writes_in_chunks(monkeypatch):
    # a payload of many parts reaches the output in several writes, the same bytes
    monkeypatch.setattr(cli, "_FLUSH_PARTS", 16)
    payload = {"rows": [{"id": f"x{k}", "members": [k, True]} for k in range(40)]}
    writes = []

    class Sink:
        write = writes.append

    _write_json(payload, Sink())
    assert len(writes) > 10
    assert "".join(writes) == json.dumps(payload, indent=2) + "\n"


def test_no_module_calls_json_dumps():
    # every payload goes through the streamed emitter
    package = Path(clustercat.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert "dumps" not in {f.attr for f in calls if isinstance(f, ast.Attribute)}, path.name


@pytest.mark.parametrize("diagram", ["A3", "D4"])
def test_every_json_output_is_the_indent_2_dump_byte_for_byte(tmp_path, capsys, diagram):
    # each command's JSON equals the indent-2 dump of its own parse, and --out
    # holds exactly the bytes of stdout for the same argv
    path = tmp_path / f"{diagram}.quiver"
    path.write_text({"A3": A3, "D4": D4}[diagram], encoding="utf-8")
    target = tmp_path / "out.json"
    argvs = [["ar", "--quiver", str(path)], ["verify", "--battery", diagram]]
    argvs.append(["verify", "--battery", diagram, "--timings"])
    for m in ("1", "2"):
        for command, *extra in (["ind"], ["hom"], ["hom", "m1[0]", "m2[1]"], ["tilting"], ["graph"], ["endo", "1"]):
            argvs.append([command, "--quiver", str(path), "--m", m, *extra])
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "", argv
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        target.unlink(missing_ok=True)
        assert run(capsys, *argv, "--out", str(target)) == (0, "", ""), argv
        written, expected = target.read_bytes(), out.encode("utf-8")
        if "--timings" in argv:  # the seconds differ from run to run
            written, expected = (re.sub(rb'"seconds": [-+.e0-9]+', b'"seconds": 0', b) for b in (written, expected))
        assert written == expected, argv


def _collected(x):
    """A handler's payload with its iterators, lazy objects and callables read whole, in order."""
    if isinstance(x, dict):
        return {key: _collected(value) for key, value in x.items()}
    if isinstance(x, cli._Object):
        return {key: _collected(value) for key, value in x.items}
    if isinstance(x, (list, tuple, Iterator)):
        return [_collected(item) for item in x]
    return _collected(x()) if callable(x) else x


@pytest.mark.parametrize("diagram", ["A3", "D4", "E6"])
def test_every_output_is_the_dump_of_its_collected_payload(tmp_path, capsys, monkeypatch, diagram):
    # what main streams is json.dumps(indent=2) of the handler's payload read
    # whole, or its text lines joined; the categories are shared by the runs,
    # so that each quiver is knitted and walked once
    path = tmp_path / f"{diagram}.quiver"
    path.write_text({"A3": A3, "D4": D4, "E6": E6}[diagram], encoding="utf-8")
    derived = DerivedCategory(ARQuiver(quiver.load_quiver(str(path))))
    cats = {m: derived.orbit(m) for m in (1, 2)}
    monkeypatch.setattr(cli, "_category", lambda args: cats[args.m])
    argvs = [["ar", "--quiver", str(path), "--format", fmt] for fmt in ("json", "tsv")]
    argvs += [["verify", "--battery", diagram]] if diagram in quiver.DIAGRAMS else []
    for m in ("1", "2"):
        for command, formats, *extra in (
            ("ind", "json tsv"),
            ("hom", "json tsv"),
            ("hom", "json tsv", "m1[0]", "m2[1]"),
            ("tilting", "json tsv"),
            ("graph", "json dot"),
            ("endo", "json", "3"),
        ):
            argvs += [[command, *extra, "--quiver", str(path), "--m", m, "--format", fmt] for fmt in formats.split()]
    parser = cli._build_parser()
    for argv in argvs:
        code, result = (args := parser.parse_args(argv)).handler(args, parser)
        if isinstance(result, dict):
            expected = json.dumps({"schema_version": 1, **_collected(result)}, indent=2) + "\n"
        else:
            expected = "".join(line + "\n" for line in result)
        assert run(capsys, *argv) == (0, expected, ""), argv


# inputs refused with exit 2, by where they are refused; {a2} and the like name quiver files
_REFUSED = {
    "parser": ["ind", "--quiver", "{a2}", "--m", "0"],
    "hom-operands": ["hom", "--quiver", "{a2}", "m1[0]"],
    "battery": ["verify", "--battery", ","],
    "missing-file": ["ind", "--quiver", "{absent}"],
    "quiver-cycle": ["graph", "--quiver", "{cycle}"],
    "object-syntax": ["hom", "--quiver", "{a2}", "m9[0]", "m1[0]"],
    "catalog": ["ind", "--quiver", "{a2}", "--m", "20001"],
    "table-side-json": ["hom", "--quiver", "{a2}", "--m", "100"],
    "table-side-tsv": ["hom", "--quiver", "{a2}", "--m", "100", "--format", "tsv"],
    "listed-members": ["tilting", "--quiver", "{a3}"],  # with the cap at 41 below
    "tilting-objects": ["graph", "--quiver", "{a12}", "--format", "dot"],
    "endo-range": ["endo", "15", "--quiver", "{a3}"],
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_a_refusal_comes_before_the_output_is_opened(tmp_path, monkeypatch, case):
    # the refusal's own line, with --out in a missing directory too, and an
    # existing --out file keeps its bytes
    monkeypatch.setattr(orbit, "MAX_LISTED_MEMBERS", 41)
    texts = {
        "a2": A2,
        "a3": A3,
        "cycle": "vertices 2\narrow 1 2\narrow 2 1\n",
        "a12": "vertices 12\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 12)),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.quiver").write_text(text, encoding="utf-8")
    argv = [arg.format_map({name: str(tmp_path / f"{name}.quiver") for name in [*texts, "absent"]}) for arg in _REFUSED[case]]
    code, out, err = _main_captured(argv)
    assert (code, out) == (2, "") and err.count("\n") == 1, err
    kept = tmp_path / "kept.json"
    kept.write_bytes(b'{"kept": true}\n')
    assert _main_captured([*argv, "--out", str(kept)]) == (2, "", err)
    assert kept.read_bytes() == b'{"kept": true}\n'
    assert _main_captured([*argv, "--out", str(tmp_path / "missing" / "out.json")]) == (2, "", err)


@pytest.mark.parametrize(
    "argv", [["verify"], ["graph"], ["graph", "--format", "dot"], ["tilting", "--format", "tsv"], ["ind"]]
)
def test_an_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, a3_path, argv):
    # the output is opened before the first check, the walk or the first row
    # (hom reads its tables first: that is where it refuses them past MAX_TABLE_SIDE)
    monkeypatch.setattr(verify, "_run_cell", _unreachable)
    monkeypatch.setattr(orbit.OrbitCategory, "_exchange_walk", property(_unreachable))
    monkeypatch.setattr(orbit.OrbitCategory, "catalog", property(_unreachable))
    if argv != ["verify"]:
        argv = [*argv, "--quiver", a3_path]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out.json"))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory: ") and err.count("\n") == 1


def test_a_failing_check_exits_1_with_the_whole_report(capsys, monkeypatch):
    # exit 1 means only "battery failed": a complete, parseable report whose totals count the failure
    monkeypatch.setattr(verify, "CHECKS", (*verify.CHECKS, ("planted", "cell", None, lambda cat: "planted failure")))
    code, out, err = run(capsys, "verify", "--battery", "A2")
    payload = json.loads(out)
    assert (code, err) == (1, "")
    assert payload["passed"] is False
    assert (payload["checks_total"], payload["checks_failed"]) == (112 + 6, 6)  # 2 orientations, m = 1, 2, 3


@pytest.mark.parametrize(
    "argv, target",
    [(["verify", "--battery", "A2"], (verify, "_run_cell")), (["tilting", "--format", "tsv"], (orbit.OrbitCategory, "texts"))],
    ids=["json", "text"],
)
def test_an_error_mid_stream_exits_3_with_the_output_cut_short(tmp_path, capsys, monkeypatch, a3_path, argv, target):
    # every part is written as it is made; the third call of target raises
    argv = argv if argv[0] == "verify" else [*argv, "--quiver", a3_path]
    code, whole, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(cli, "_FLUSH_PARTS", 1)
    made, calls = getattr(*target), iter(range(1 << 30))

    def third_raises(*args):
        if next(calls) == 2:
            raise ZeroDivisionError("planted\nfault")
        return made(*args)

    monkeypatch.setattr(*target, third_raises)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "error: internal: ZeroDivisionError: planted fault\n")
    assert 0 < len(out) < len(whole) and whole.startswith(out)
    calls = iter(range(1 << 30))
    written = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(written)) == (3, "", err)
    assert written.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("m, fmt, read", [("20000", "tsv", 2), ("20000", "json", 2), ("2", "tsv", 0)])
def test_a_reader_that_closes_the_pipe_early_ends_the_output_quietly(tmp_path, m, fmt, read):
    # at m = 20000 the output is far past a 64 KiB pipe buffer, so writes after
    # the reader has gone fail with EPIPE; at m = 2 it is one small write from
    # stdout's buffer, which fails if the reader has gone by then. Either way
    # the command exits 0, with no error line
    path = tmp_path / "a2.quiver"
    path.write_text(A2, encoding="utf-8")
    argv = [sys.executable, "-m", "clustercat.cli", "ind", "--quiver", str(path), "--m", m, "--format", fmt]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env()) as proc:
        head = [proc.stdout.readline() for _ in range(read)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    first = [b"id\tmodule\tshift\ttier\n", b"m1[0]\tm1\t0\t0\n"] if fmt == "tsv" else [b"{\n", b'  "schema_version": 1,\n']
    assert head == first[:read]
    assert (proc.returncode, err) == (0, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("m", ["2", "2000"])
def test_a_full_disk_exits_2_in_one_line(tmp_path, m):
    # under --out and on a redirected stdout, with the output in one buffer or past it
    path = tmp_path / "a2.quiver"
    path.write_text(A2, encoding="utf-8")
    argv, line = ["ind", "--quiver", str(path), "--m", m, "--format", "tsv"], "error: [Errno 28] No space left on device\n"
    assert _main_captured([*argv, "--out", "/dev/full"]) == (2, "", line)
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "clustercat.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=_fresh_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (2, line.encode())


@pytest.mark.parametrize(
    "argv, limit",
    [(["verify"], 0.85), (["ind", "A2", "--m", "2000"], 2.5), (["graph", "E6", "--m", "10"], 2.5)],
    ids=["verify", "ind", "graph"],
)
def test_no_command_holds_its_whole_output(tmp_path, argv, limit):
    # traced peaks in MiB, after a small run of the same command has made its lazy
    # imports; the parent commit, which held whole payloads, peaked at 1.10 (verify),
    # 4.13 (A2 ind --m 2000) and 5.95 (E6 graph --m 10) on CPython 3.11
    if len(argv) > 1:
        path = tmp_path / "q.quiver"
        path.write_text({"A2": A2, "E6": E6}[argv[1]], encoding="utf-8")
        argv = [argv[0], "--quiver", str(path), *argv[2:]]
    small = ["verify", "--battery", "A1"] if argv == ["verify"] else argv[:3]
    assert main([*small, "--out", os.devnull]) == 0
    tracemalloc.start()
    try:
        code = main([*argv, "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < limit * 2**20, peak / 2**20


def test_verify_lets_each_orientation_go_once_its_cells_are_read():
    # an orientation is knitted as its first cell is read, and its AR quiver is
    # freed, by reference counting alone, after its four cells
    knitted = []
    report = verify.verification_report(["A3", "D4"], tamper=lambda label, ar: knitted.append(weakref.ref(ar)))
    alive, checks = [], 0
    gc.disable()
    try:
        for k, cell in enumerate(report["cells"]):
            checks += len(cell["checks"])
            if k % 4 == 0:
                alive.append(sum(ref() is not None for ref in knitted))
    finally:
        gc.enable()
    assert alive == [1] * 12
    assert report["checks_total"]() == checks and report["passed"]()


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
        patched.setattr(orbit.OrbitCategory, "_exchange_walk", property(_unreachable))
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
    # A12 has 742900 tilting objects; the exchange walk refuses them before
    # it reads compat_mask, the one table it walks over
    monkeypatch.setattr(orbit.OrbitCategory, "compat_mask", property(_unreachable))
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


def test_quiver_file_with_a_byte_order_mark_reads_as_the_plain_file(capsys, tmp_path, a2_path):
    p = tmp_path / "bom.quiver"
    p.write_bytes(b"\xef\xbb\xbf" + A2.encode())
    plain, bom = run(capsys, "ar", "--quiver", a2_path), run(capsys, "ar", "--quiver", str(p))
    assert bom == plain and plain[0] == 0 and plain[1]


def test_bad_byte_after_a_byte_order_mark_is_reported_at_its_file_offset(capsys, tmp_path):
    p = tmp_path / "bom-latin.quiver"
    p.write_bytes(b"\xef\xbb\xbf" + A2.encode() + b"\xff\n")
    code, out, err = run(capsys, "ind", "--quiver", str(p))
    assert code == 2
    assert out == ""
    assert err == f"error: line 3: not UTF-8 text at byte {3 + len(A2)}\n"


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
    # a Tits form that is never 1; on A2 the first mesh is at m2 = P_2
    monkeypatch.setattr(arquiver, "euler_form", lambda q, d, e: 2)
    code, out, err = run(capsys, "ar", "--quiver", a2_path)
    assert code == 3
    assert out == ""
    assert err == (
        "error: internal: KnittingError: A2 quiver [(1, 2)]: knit: mesh at m2 produced dimension vector (1, 0),"
        " not a positive root\n"
    )


def test_unexpected_exception_exits_3_without_traceback(capsys, a3_path, monkeypatch):
    def broken(self):
        raise ZeroDivisionError("division by zero\nin a mesh")

    monkeypatch.setattr(arquiver.ARQuiver, "_knit", broken)
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


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports src/, with its
    standard streams buffered as they are by default."""
    src = str(Path(clustercat.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _fresh_stdout(code: str) -> str:
    """Standard output of code run in a fresh interpreter that imports src/."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_env(), check=True
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


def test_ar_loads_neither_exact_nor_fractions(tmp_path):
    # the knit and the Hom table work on dimension vectors; only the
    # battery's oracles build matrix representations through exact
    quiver_path = tmp_path / "d4.quiver"
    quiver_path.write_text(D4, encoding="utf-8")
    code = (
        "import sys\n"
        "from clustercat.cli import main\n"
        f"assert main(['ar', '--quiver', {str(quiver_path)!r}, '--out', {str(tmp_path / 'ar.json')!r}]) == 0\n"
        "print('clustercat.exact' in sys.modules, 'fractions' in sys.modules)\n"
    )
    assert _fresh_stdout(code) == "False False\n"


def test_verify_loads_neither_dataclasses_nor_fractions(tmp_path):
    # the endo records are named tuples and the battery's matrices keep unit
    # pivots, so neither dataclasses (and inspect) nor fractions is loaded
    code = (
        "import sys\n"
        "from clustercat.cli import main\n"
        f"assert main(['verify', '--battery', 'A2', '--out', {str(tmp_path / 'verify.json')!r}]) == 0\n"
        "print(*(name in sys.modules for name in ('dataclasses', 'inspect', 'fractions')))\n"
    )
    assert _fresh_stdout(code) == "False False False\n"


def test_rref_imports_fractions_at_the_first_non_unit_pivot():
    code = (
        "import sys\n"
        "from clustercat import exact\n"
        "assert exact.rref([[1, 2], [0, -1]], 2) == ([[1, 0], [0, 1]], [0, 1])\n"
        "print('fractions' in sys.modules)\n"
        "ech, pivots = exact.rref([[2, 1]], 2)\n"
        "from fractions import Fraction\n"
        "print(ech == [[Fraction(1), Fraction(1, 2)]], {type(x).__name__ for x in ech[0]}, pivots)\n"
    )
    assert _fresh_stdout(code) == "False\nTrue {'Fraction'} [0]\n"


def test_verify_help_names_the_battery_diagrams(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "A1,A2,A3,A4,D4" in capsys.readouterr().out


# -- fuzzing: every outcome is a result (exit 0) or one short line (exit 2) --

_HUGE = st.integers(1, 5000).map(lambda k: "9" * k)  # past int()'s 4300-digit limit too
_LONG = st.integers(100, 5000).map(lambda k: "x" * k)
_GARBAGE = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "0", "-1", "7", "1_0", "+2", " 3", "\u0663", "\u0661\u0662", "arrow", "vertices", "#", "m1", "[0]"]),
    st.integers(-(10**30), 10**30).map(str),
    _HUGE,
    _LONG,
)


@st.composite
def _quiver_bytes(draw):
    """A Dynkin quiver of at most 6 vertices, oriented and labelled at random,
    with LF or CRLF line ends; half of them corrupted by garbage lines and
    NUL, CR, LF or non-UTF-8 bytes."""
    q = draw(st.sampled_from(sorted(TREES)).flatmap(lambda name: oriented_trees(TREES[name])))
    lines = [f"vertices {q.vertex_count}"] + [f"arrow {a} {b}" for a, b in q.arrows]
    corrupt = draw(st.booleans())
    for _ in range(draw(st.integers(0, 3)) if corrupt else 0):
        tokens = draw(st.lists(_GARBAGE, min_size=1, max_size=3))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(tokens))
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode() + b"\n"
    for _ in range(draw(st.integers(0, 2)) if corrupt else 0):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\x00", b"\xff", b"\xc3", b"\r", b"\n"])) + data[at:]
    return data


_FORMATS = {
    "ar": ["json", "tsv"],
    "ind": ["json", "tsv"],
    "hom": ["json", "tsv"],
    "tilting": ["json", "tsv"],
    "graph": ["json", "dot"],
    "endo": ["json"],
}
_OBJECT = st.builds("m{}[{}]".format, st.integers(0, 40), st.integers(-6, 6))


@settings(max_examples=60, deadline=None)
@given(text=_quiver_bytes(), command=st.sampled_from(sorted(_FORMATS)), data=st.data())
def test_fuzzed_input_exits_0_or_2_with_one_short_line(tmp_path_factory, text, command, data):
    # half the runs draw flag values and operands from garbage as well
    garbled = data.draw(st.booleans())

    def draw(valid):
        return data.draw(valid | _GARBAGE if garbled else valid)

    path = tmp_path_factory.getbasetemp() / "fuzz.quiver"
    path.write_bytes(text)
    argv = [command, "--quiver", str(path)]
    if command == "hom":
        count = data.draw(st.integers(0, 3) if garbled else st.sampled_from([0, 2]))
        argv += [draw(_OBJECT | st.builds("m{}[{}]".format, _HUGE, _HUGE)) for _ in range(count)]
    elif command == "endo":
        argv.append(draw(st.integers(1, 60).map(str)))
    if command != "ar" and data.draw(st.booleans()):
        # a large modulus is only slow; a garbage one past MAX_CATALOG is refused before any work
        argv += ["--m", draw(st.sampled_from(["1", "2", "3", "4"]))]
    if data.draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "tsv", "dot"] if garbled else _FORMATS[command]))]
    code, out, err = _main_captured(argv)
    assert code in (0, 2), err
    assert err.count("\n") <= 1 and err[-1:] in ("", "\n")
    assert len(err.encode("utf-8", "backslashreplace")) <= 200, err
    assert code == 0 or (out == "" and err != "")
    # the same argv with --out: the file holds stdout's bytes, or is never created
    target = tmp_path_factory.getbasetemp() / "fuzz.out"
    target.unlink(missing_ok=True)
    code_out, out_out, err_out = _main_captured([*argv, "--out", str(target)])
    assert (code_out, out_out) == (code, ""), err_out
    if code == 0:
        assert err_out == err and target.read_bytes() == out.encode("utf-8")
    else:
        assert not target.exists()
        assert err_out.count("\n") == 1 and err_out.endswith("\n")
        assert len(err_out.encode("utf-8", "backslashreplace")) <= 200, err_out


def _misspelled(draw, value, spaces=True):
    """value as int() reads it but not as ASCII digits: one digit from another
    script, an underscore, a plus sign, or (where no tokenizer splits on it) a space."""
    digits = str(value)
    how = draw(st.sampled_from(["script", "underscore", "plus"] + ["space"] * spaces))
    if how == "script":  # Arabic-Indic, Devanagari and fullwidth digits
        at, zero = draw(st.integers(0, len(digits) - 1)), ord(draw(st.sampled_from("\u0660\u0966\uff10")))
        spelled = digits[:at] + chr(zero + int(digits[at])) + digits[at + 1 :]
    else:
        spelled = {"underscore": f"0_{digits}", "plus": f"+{digits}", "space": f" {digits}"}[how]
    assert int(spelled) == value
    return spelled


# where a number is read, and the values the A3 quiver below accepts there
_NUMBER_PLACES = {
    "vertex-count": st.just(3),
    "arrow": st.just(1),
    "modulus": st.integers(1, 3),
    "module-id": st.integers(1, 6),
    "shift": st.integers(0, 6),
    "endo": st.integers(1, 14),
}


@settings(max_examples=40, deadline=None)
@given(place=st.sampled_from(sorted(_NUMBER_PLACES)), data=st.data())
def test_numbers_spelled_other_than_ascii_digits_exit_2_in_one_line(tmp_path_factory, place, data):
    # the argv with the number at place in ASCII digits exits 0, and in another spelling 2
    value = data.draw(_NUMBER_PLACES[place])
    spelled = _misspelled(data.draw, value, spaces=place in ("modulus", "endo"))
    path = tmp_path_factory.getbasetemp() / "spelled.quiver"

    def argv(number):
        at = {place: number}.get
        path.write_text(f"vertices {at('vertex-count', 3)}\narrow {at('arrow', 1)} 2\narrow 2 3\n", encoding="utf-8")
        operands = [at("endo", "1")] if place == "endo" else [f"m{at('module-id', 1)}[{at('shift', 0)}]", "m1[0]"]
        return ["endo" if place == "endo" else "hom", *operands, "--quiver", str(path), "--m", at("modulus", "1")]

    assert _main_captured(argv(str(value)))[0] == 0
    code, out, err = _main_captured(argv(spelled))
    assert (code, out) == (2, ""), err
    assert err.count("\n") == 1 and len(err.encode()) <= 200, err


# battery tokens: A1-A3 in either case, padded or empty; A4 and D4 take
# about 0.1 s each and are left to the digest tests
_BATTERY_TOKEN = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["A1", "a1", "A2", "a2", "A3", "a3", ""]),
    st.sampled_from(["", " ", "  "]),
)


@settings(max_examples=40, deadline=None)
@given(tokens=st.lists(_BATTERY_TOKEN | _GARBAGE, max_size=5), timings=st.booleans())
def test_fuzzed_verify_battery_exits_0_or_2_with_one_short_line(tokens, timings):
    battery = ",".join(tokens)
    code, out, err = _main_captured(["verify", "--battery", battery, *["--timings"] * timings])
    assert code in (0, 2), err
    assert err.count("\n") <= 1 and err[-1:] in ("", "\n")
    assert len(err.encode("utf-8", "backslashreplace")) <= 200, err
    if code == 0:
        named = [token.strip().upper() for token in battery.split(",") if token.strip()]
        assert err == "" and json.loads(out)["battery"] == list(dict.fromkeys(named))
    else:
        assert out == "" and err != ""

def _main_captured(argv):
    """(exit code, stdout, stderr) of main(argv), the parser's usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()
