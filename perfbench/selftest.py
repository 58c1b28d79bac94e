"""Tests for the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

WORKDIR = run.WORK / "selftest"


def cli(*argv: str) -> str:
    from clustercat.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def a3_quiver() -> str:
    path = WORKDIR / "a3.quiver"
    path.write_text("vertices 3\narrow 1 2\narrow 3 2\n", encoding="utf-8")
    return str(path)


class SeededInputs(unittest.TestCase):
    def build(self, name: str, seed: int, tag: str) -> dict[str, bytes]:
        work = WORKDIR / tag
        work.mkdir()
        run.build(name, seed, work)
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    def test_same_seed_same_bytes_and_valid(self):
        # each workload function validates every file it writes with load_quiver
        for name in run.WORKLOADS:
            first = self.build(name, 7, f"{name}-a")
            self.assertEqual(first, self.build(name, 7, f"{name}-b"), name)
            if first:
                self.assertNotEqual(first, self.build(name, 8, f"{name}-c"), name)

    def test_every_type_generates(self):
        rng = random.Random(0)
        for name in ("A1", "A5", "D4", "D7", "E6", "E7", "E8"):
            path = WORKDIR / f"{name}.quiver"
            inputs.write_quiver(path, name, rng, "test")
            inputs.validate(path, name)

    def test_known_counts(self):
        self.assertEqual([inputs.cluster_number(f"A{n}") for n in range(1, 6)], [2, 5, 14, 42, 132])
        self.assertEqual(inputs.cluster_number("D4"), 50)
        self.assertEqual(inputs.cluster_number("D7"), 2508)
        self.assertEqual(inputs.positive_roots("D5"), 20)


class CheckerRejectsCorruption(unittest.TestCase):
    def test_graph_with_an_edge_dropped(self):
        payload = json.loads(cli("graph", "--quiver", a3_quiver(), "--m", "1"))
        check = checks.check_graph("A3", 1)
        self.assertIsNone(check(json.dumps(payload)))
        payload["edges"].pop()
        self.assertIsNotNone(check(json.dumps(payload)))

    def test_tilting_count_off_by_one(self):
        payload = json.loads(cli("tilting", "--quiver", a3_quiver(), "--m", "2"))
        check = checks.check_tilting("A3", 2)
        self.assertIsNone(check(json.dumps(payload)))
        payload["tilting_objects"].pop()
        payload["count"] -= 1
        self.assertIsNotNone(check(json.dumps(payload)))

    def test_battery_not_passed(self):
        payload = json.loads(cli("verify", "--battery", "A1"))
        check = checks.check_verify()
        self.assertIsNone(check(json.dumps(payload)))
        payload["passed"] = False
        self.assertIsNotNone(check(json.dumps(payload)))

    def test_not_json(self):
        self.assertIsNotNone(checks.check_verify()("Traceback (most recent call last):"))


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        names = [
            "cli.main",
            "tilting.build_tilting_graph",
            "tilting.enumerate_cluster_tilting",
            "orbit.OrbitCategory.compat_mask",
            "derived.DerivedCategory.twist",
        ]
        # (name id, parent, start, end)
        spans = [
            (0, -1, 0.0, 10.0),  # cli.main
            (1, 0, 1.0, 9.0),  # graph
            (2, 1, 2.0, 5.0),  # enumerate, inside graph
            (3, 2, 3.0, 4.0),  # compat, inside enumerate
            (4, 1, 6.0, 6.5),  # twist, inside graph
            (4, 0, 9.5, 9.75),  # twist, straight from cli
        ]
        columns = [array(t, [s[k] for s in spans]) for k, t in enumerate("Hidd")]
        got = tracing.span_times(names, *columns)
        want = {
            "cli.self_s": 10 - 8 - 0.25,
            "tilting.self_s": (8 - 3 - 0.5) + (3 - 1),
            "orbit.self_s": 1.0,
            "derived.self_s": 0.75,
            "tilting.graph_s": 4.5 + 0.5,
            "tilting.enumerate_s": 2.0,
            "orbit.compat_s": 1.0,
        }
        self.assertEqual(set(got), set(want))
        for key, value in want.items():
            self.assertAlmostEqual(got[key], value, msg=key)


class Wrappers(unittest.TestCase):
    def snapshot(self):
        import clustercat

        owners = [getattr(clustercat, layer) for layer in tracing.LAYERS]
        for layer, classes in tracing.CLASSES.items():
            owners += [getattr(getattr(clustercat, layer), c) for c in classes]
        return {id(o): dict(vars(o)) for o in owners}

    def test_traced_output_identical_and_restored(self):
        quiver = a3_quiver()
        plain = cli("graph", "--quiver", quiver, "--m", "2")
        before = self.snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = cli("graph", "--quiver", quiver, "--m", "2")
            patched = len(tracer._patches)
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertGreater(patched, 50)
        self.assertGreater(len(tracer.span_name), 0)
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, attrs in before.items():
            self.assertEqual(attrs.keys(), after[key].keys())
            for attr, value in attrs.items():
                self.assertIs(after[key][attr], value, attr)

    def test_spans_file_round_trip(self):
        spans = WORKDIR / "graph.spans"
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cli("graph", "--quiver", a3_quiver(), "--m", "2")
        finally:
            tracer.uninstall()
        tracer.dump(spans, 3)
        header, _ = tracing.load(spans)
        self.assertEqual(header["op"], 3)
        metrics = tracing.op_metrics(spans)
        self.assertGreater(metrics["tilting.graph_s"], 0)
        self.assertGreater(metrics["tilting.ct_check_passes"], 0)
        self.assertGreaterEqual(metrics["tilting.ct_check_calls"], metrics["tilting.ct_check_passes"])


class ChildReadings(unittest.TestCase):
    def test_peak_rss_is_the_op_own(self):
        ballast = bytearray(96 * 1024 * 1024)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        op = run.Op("verify A1", ["verify", "--battery", "A1"], checks.check_verify())
        result = run.run_op(op, WORKDIR, timeout=30.0)
        self.assertIsNone(result.error)
        self.assertLess(result.rss_mib, 64)
        self.assertGreater(result.setup_s, 0)
        del ballast


class Timeout(unittest.TestCase):
    def test_hang_becomes_failed_op(self):
        quiver = WORKDIR / "a2.quiver"
        quiver.write_text("vertices 2\narrow 1 2\n", encoding="utf-8")
        op = run.Op("ind m20000", ["ind", "--quiver", str(quiver), "--m", "20000"], checks.check_ind("A2", 20000))
        result = run.run_op(op, WORKDIR, timeout=1.0)
        self.assertIn("timed out", result.error)
        self.assertLess(result.wall_s, 5.0)


def setUpModule():
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir(parents=True)


if __name__ == "__main__":
    unittest.main()
