"""Benchmark for clustercat: seeded CLI workloads, timed from outside.

    python3 perfbench/run.py --workload knit --seed 1 --seconds 55 --trace 0

One op is one ``clustercat <command> ...`` invocation in a fresh
interpreter, run from the source tree of this checkout.  Ops run one at a
time from this single process (a closed loop with one client).  A run
repeats the workload's op list while the next pass should end within
``--seconds`` (judged by the median pass so far; at least one), checks
every op's output and prints a summary; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 1`` instead runs the op list once untraced and
once under ``tracing.py`` and reports the per-layer metrics.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# a hung op becomes a failed op after this long
OP_TIMEOUT_S = 60.0
# the whole run ends well inside the 180 s a run is allowed
RUN_DEADLINE_S = 150.0
# import-only interpreter starts per pass, so that setup_s has enough
# samples even when a pass is one long op
SETUP_PROBES = 3

# The console script's work (import the CLI, call main), plus two readings
# written to fd 3: the time right after the import and, at the end, the
# peak RSS of this process image (VmHWM).  The rusage from os.wait4 cannot
# give the peak: a child made by posix_spawn takes over the parent's RSS
# high-water mark at exec.
CHILD = """\
import os, sys, time
import clustercat.cli
os.write(3, b"%r\\n" % time.perf_counter())
try:
    code = clustercat.cli.main(sys.argv[1:])
finally:
    with open("/proc/self/status") as status:
        hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    os.write(3, hwm.encode() + b"\\n")
sys.exit(code)
"""

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "exact.rank_calls": "count",
    "exact.rref_calls": "count",
    "exact.rref_cells": "count",
    "exact.self_s": "s",
    "arquiver.knit_calls": "count",
    "arquiver.knit_s": "s",
    "arquiver.oracle_calls": "count",
    "arquiver.self_s": "s",
    "derived.twist_steps": "count",
    "derived.twist_power_calls": "count",
    "derived.self_s": "s",
    "orbit.catalog_s": "s",
    "orbit.tables_s": "s",
    "orbit.compat_s": "s",
    "orbit.canonicalize_calls": "count",
    "orbit.twist_stable_calls": "count",
    "orbit.self_s": "s",
    "tilting.enumerate_s": "s",
    "tilting.graph_s": "s",
    "tilting.near_complements_calls": "count",
    "tilting.complements_calls": "count",
    "tilting.ct_check_calls": "count",
    "tilting.ct_check_pass_ratio": "1",
    "tilting.self_s": "s",
    "endo.profile_calls": "count",
    "endo.self_s": "s",
    "verify.checks_total": "count",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "quiver.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class Op:
    label: str
    argv: list[str]
    check: checks.Check


@dataclass
class Workload:
    ops: list[Op]
    inputs: list[dict] = field(default_factory=list)

    def quiver(self, work: Path, dynkin: str, rng: random.Random, tag: str) -> str:
        """Write, record and validate one seeded quiver; returns its path."""
        path = work / f"{tag}.quiver"
        self.inputs.append(inputs.write_quiver(path, dynkin, rng, tag))
        inputs.validate(path, dynkin)
        return str(path)


# -- workloads ----------------------------------------------------------------
# Each workload function writes its seeded quivers into work and returns
# them with the op list.


def knit(rng: random.Random, work: Path) -> Workload:
    """ar on ten E7 orientations: knitting and its rank calls dominate."""
    w = Workload([])
    for k in range(10):
        path = w.quiver(work, "E7", rng, f"e7_{k}")
        arrows = w.inputs[-1]["arrows"]
        w.ops.append(Op(f"ar E7#{k}", ["ar", "--quiver", path], checks.check_ar("E7", arrows)))
    return w


def exchange(rng: random.Random, work: Path) -> Workload:
    """Tilting enumeration, exchange graphs and endo profiles on E6 and D7."""
    w = Workload([])
    e6 = w.quiver(work, "E6", rng, "e6")
    d7 = w.quiver(work, "D7", rng, "d7")
    w.ops += [
        Op("tilting E6 m2", ["tilting", "--quiver", e6, "--m", "2"], checks.check_tilting("E6", 2)),
        Op("graph E6 m1", ["graph", "--quiver", e6, "--m", "1"], checks.check_graph("E6", 1)),
        Op("graph E6 m2", ["graph", "--quiver", e6, "--m", "2"], checks.check_graph("E6", 2)),
    ]
    for k in sorted(rng.sample(range(1, inputs.cluster_number("E6") + 1), 3)):
        w.ops.append(
            Op(f"endo E6 m2 T{k}", ["endo", "--quiver", e6, "--m", "2", str(k)], checks.check_endo(k, 2))
        )
    w.ops.append(Op("graph D7 m1", ["graph", "--quiver", d7, "--m", "1"], checks.check_graph("D7", 1)))
    return w


def orbit(rng: random.Random, work: Path) -> Workload:
    """Large moduli on small types: twist walks, Hom tables, big output."""
    w = Workload([])
    a5 = w.quiver(work, "A5", rng, "a5")
    d5 = w.quiver(work, "D5", rng, "d5")
    w.ops += [
        Op("ind A5 m200", ["ind", "--quiver", a5, "--m", "200"], checks.check_ind("A5", 200)),
        Op("hom D5 m12", ["hom", "--quiver", d5, "--m", "12"], checks.check_hom_tables("D5", 12)),
    ]
    m = 1000
    period = m * (inputs.coxeter_number("D5") + 2)  # [m(h+2)] = F^(hm) = id
    roots = inputs.positive_roots("D5")
    memo: dict = {}

    def obj(module: int, shift: int) -> str:
        return f"m{module}[{shift}]"

    def far() -> int:
        return rng.choice((-1, 1)) * rng.randint(95_000, 105_000)

    def query(key, x, y, **kw):
        argv = ["hom", "--quiver", d5, "--m", str(m), x, y]
        w.ops.append(Op(f"hom D5 m{m} {key}", argv, checks.check_hom_point(memo, key, **kw)))

    for first, second in (("q1", "q2"), ("q3", "q4")):
        a, b = rng.randint(1, roots), rng.randint(1, roots)
        s, t = far(), far()
        query(first, obj(a, s), obj(b, t))
        query(second, obj(a, s + period), obj(b, t - period), same_as=first)
    c, u = rng.randint(1, roots), far()
    query("q5", obj(c, u), obj(c, u + period), self_pair=True)
    return w


def battery(rng: random.Random, work: Path) -> Workload:
    """The default verify battery; its input is fixed."""
    return Workload([Op("verify", ["verify"], checks.check_verify())])


WORKLOADS = {"knit": knit, "exchange": exchange, "orbit": orbit, "battery": battery}


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload's seeded inputs and ops; same seed, same bytes."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)


# -- running ops ----------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    setup_s: float | None
    rss_mib: float | None
    error: str | None
    out_bytes: int


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], work: Path, timeout: float) -> tuple[float, float, int, bool]:
    """Run cmd with fds 1, 2 and 3 to op.out, op.err and op.fd3 in work.

    Returns (start, end, exit code, timed out).
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0)]
    for fd, name in enumerate(("op.out", "op.err", "op.fd3"), start=1):
        actions.append((os.POSIX_SPAWN_OPEN, fd, str(work / name), flags, 0o644))
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, cmd, _env(), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], timeout)[0]
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, _ = os.wait4(pid, 0)
    except BaseException:
        # interrupted (Ctrl-C, or SIGTERM through main's handler): leave no child behind
        with contextlib.suppress(ProcessLookupError):
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    end = time.perf_counter()
    return start, end, os.waitstatus_to_exitcode(status), timed_out


def _readings(work: Path, start: float) -> tuple[float | None, float | None]:
    """(setup seconds, peak RSS MiB) from what CHILD wrote to fd 3."""
    values = (work / "op.fd3").read_text(encoding="utf-8").split()
    setup = float(values[0]) - start if values else None
    rss = int(values[1]) / 1024 if len(values) > 1 else None
    return setup, rss


def spans_file(work: Path, op_id: int) -> Path:
    return work / f"op{op_id}.spans"


def run_op(op: Op, work: Path, timeout: float, trace_id: int | None = None) -> OpResult:
    """One op in a fresh interpreter; under tracing.py when trace_id is given."""
    if trace_id is None:
        cmd = [sys.executable, "-c", CHILD, *op.argv]
    else:
        spans = spans_file(work, trace_id)
        cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), str(trace_id), "--", *op.argv]
    start, end, code, timed_out = spawn(cmd, work, timeout)
    setup, rss = _readings(work, start)
    out = work / "op.out"
    if timed_out:
        error = f"timed out after {timeout:.0f} s"
    elif code != 0:
        err_lines = (work / "op.err").read_text(encoding="utf-8", errors="replace").splitlines()
        error = f"exit code {code}: {err_lines[-1] if err_lines else ''}"
    else:
        error = op.check(out.read_text(encoding="utf-8"))
    return OpResult(end - start, setup, rss, error, out.stat().st_size)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, op: Op, result: OpResult) -> None:
        self.attempted += 1
        if result.error is not None:
            self.failed += 1
            self.errors.append(f"{op.label}: {result.error}")


def run_pass(ops: list[Op], work: Path, tally: Tally, deadline: float, traced: bool = False):
    """Every op once, in order; returns the per-op results (None if not run)."""
    results = []
    for k, op in enumerate(ops):
        left = deadline - time.perf_counter()
        if left <= 0:
            tally.add(op, OpResult(0.0, None, None, "not run: run deadline passed", 0))
            results.append(None)
            continue
        result = run_op(op, work, min(OP_TIMEOUT_S, left), k if traced else None)
        tally.add(op, result)
        results.append(result)
    return results


def setup_probe(work: Path) -> float | None:
    """Start the CLI with --help: interpreter start and import, little else.

    The first call in a checkout also compiles the package's bytecode.
    """
    start, _, code, _ = spawn([sys.executable, "-c", CHILD, "--help"], work, OP_TIMEOUT_S)
    return _readings(work, start)[0] if code == 0 else None


# -- measuring ------------------------------------------------------------------


def measure(w: Workload, work: Path, seconds: float, tally: Tally, deadline: float) -> dict:
    """Repeat the op list while the next pass should end within seconds; end-to-end metrics."""
    walls, setups, rss, passes = [], [], [], []
    per_op = [[] for _ in w.ops]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        setups += [t for t in (setup_probe(work) for _ in range(SETUP_PROBES)) if t is not None]
        results = run_pass(w.ops, work, tally, deadline)
        for k, r in enumerate(results):
            if r is not None:
                per_op[k].append(r.wall_s)
                if r.rss_mib is not None:
                    rss.append(r.rss_mib)
                if r.setup_s is not None:
                    setups.append(r.setup_s)
        walls.append(sum(r.wall_s for r in results if r is not None))
        now = time.perf_counter()
        passes.append(now - pass_start)
        if now - start + statistics.median(passes) > seconds or now >= deadline:
            break
    for op, times in zip(w.ops, per_op):
        if times:
            print(f"  op {op.label:30s} median {statistics.median(times):9.4f} s  n={len(times)}")
    return {
        "wall_s": (statistics.median(walls), len(walls)),
        "setup_s": (statistics.median(setups) if setups else 0.0, len(setups)),
        "peak_rss_mib": (max(rss, default=0.0), len(rss)),
    }


def measure_traced(w: Workload, work: Path, tally: Tally, deadline: float) -> dict:
    """One untraced pass, one traced pass; per-layer metrics and overhead."""
    plain = [r for r in run_pass(w.ops, work, tally, deadline) if r is not None]
    traced = run_pass(w.ops, work, tally, deadline, traced=True)
    sums = dict.fromkeys(PER_LAYER, 0)
    for k, result in enumerate(traced):
        if result is None or result.error is not None:
            continue
        for name, value in tracing.op_metrics(spans_file(work, k)).items():
            sums[name] = sums.get(name, 0.0) + value
        sums["cli.out_bytes"] += result.out_bytes
    calls = sums["tilting.ct_check_calls"]
    sums["tilting.ct_check_pass_ratio"] = sums.get("tilting.ct_check_passes", 0) / calls if calls else 0.0
    sums["trace.wall_s"] = sum(r.wall_s for r in traced if r is not None)
    sums["trace.overhead_s"] = sums["trace.wall_s"] - sum(r.wall_s for r in plain)
    return {name: (sums[name], 1) for name in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    w = build(name, seed, work)
    (work / "inputs.json").write_text(json.dumps({"seed": seed, "quivers": w.inputs}, indent=1) + "\n")
    print(f"workload {name} seed {seed}: {len(w.ops)} ops per pass")
    for q in w.inputs:
        print(f"  input {q['file']} {q['type']} arrows {q['arrows']}")
    setup_probe(work)  # warm-up: no timed op pays for compiling bytecode
    tally = Tally()
    if trace:
        metrics = measure_traced(w, work, tally, deadline)
    else:
        metrics = measure(w, work, seconds, tally, deadline)
    units = PER_LAYER if trace else END_TO_END
    for metric, (value, samples) in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {units[metric]:6s} n={samples}")
    ratio = tally.failed / tally.attempted
    print(f"  {'fail_ratio':32s} {ratio:14.6g} {'1':6s} ({tally.failed}/{tally.attempted} ops)")
    for error in tally.errors[:10]:
        print(f"  FAILED {error}")
    return tally, {m: {"value": v, "unit": units[m]} for m, (v, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clustercat" / "cli.py").is_file():
        print(f"error: no clustercat source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: v for m, v in found.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
