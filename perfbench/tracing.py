"""Traced runs: spans around the calls into each ``clustercat`` layer.

A layer is one module of the package.  ``Tracer.install`` replaces every
public function of the package in each namespace that looks it up, and
the public methods and cached properties of the classes that do the
work, with a wrapper that counts the call and records a span (name,
start, end, parent span).  ``uninstall`` puts every original back.

A call opens a span when it crosses from one layer into another, or when
it is a stage (``STAGES``); a call within the caller's own layer is only
counted, since its time already belongs to that layer.  The spans stay in
memory and are written to one file per op when the op ends; all spans in
a file carry that file's op id.

Run as a script, this module is the traced op: it installs the wrappers,
calls ``clustercat.cli.main`` and writes the spans:

    python3 perfbench/tracing.py SPANS_FILE OP_ID -- CLI_ARGS...
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from functools import cached_property, update_wrapper

LAYERS = ("quiver", "exact", "arquiver", "derived", "orbit", "tilting", "endo", "verify", "cli")

# classes whose methods do the layer's work; their public methods and
# cached properties are wrapped, and __init__ where the class defines it
CLASSES = {
    "exact": ("KernelSpace", "QuotientSpace"),
    "arquiver": ("ARQuiver",),
    "derived": ("DerivedCategory",),
    "orbit": ("OrbitCategory",),
}
# plain accessors called once per twist step; spans on them would double
# the span count of the orbit workload without informing any metric
UNWRAPPED = {"arquiver.ARQuiver.module", "arquiver.ARQuiver.rep"}

# stage metric -> span names; a stage always opens a span, and a stage's
# time is the self time of every span whose nearest enclosing stage
# (itself included) is one of its names
STAGES = {
    "arquiver.knit_s": ("arquiver.ARQuiver.__init__",),
    "orbit.catalog_s": ("orbit.OrbitCategory.catalog",),
    "orbit.tables_s": ("orbit.OrbitCategory.hom_table", "orbit.OrbitCategory.ext_table"),
    "orbit.compat_s": (
        "orbit.OrbitCategory.ext_zero_out",
        "orbit.OrbitCategory.ext_zero_in",
        "orbit.OrbitCategory.compat_mask",
    ),
    "tilting.enumerate_s": ("tilting.enumerate_cluster_tilting",),
    "tilting.graph_s": ("tilting.build_tilting_graph",),
}

# count metric -> wrapped names whose calls it sums
COUNTS = {
    "exact.rank_calls": ("exact.rank",),
    "exact.rref_calls": ("exact.rref",),
    "arquiver.knit_calls": ("arquiver.ARQuiver.__init__",),
    "arquiver.oracle_calls": ("arquiver.rep_hom_dim",),
    "derived.twist_steps": ("derived.DerivedCategory.twist", "derived.DerivedCategory.twist_inv"),
    "derived.twist_power_calls": ("derived.DerivedCategory.twist_power",),
    "orbit.canonicalize_calls": ("orbit.OrbitCategory.canonicalize",),
    "orbit.twist_stable_calls": ("orbit.OrbitCategory.build_twist_stable",),
    "tilting.near_complements_calls": ("tilting.near_complements",),
    "tilting.complements_calls": ("tilting.complements",),
    "tilting.ct_check_calls": ("tilting.cluster_tilting_check",),
    "endo.profile_calls": ("endo.endo_profile",),
}

_STAGE_NAMES = {name for names in STAGES.values() for name in names}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.counts: list[int] = []
        # values that need a call's arguments or result
        self.extra = {"exact.rref_cells": 0, "tilting.ct_check_passes": 0, "verify.checks_total": 0}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._stack_layer: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return self._ids[name]

    def _observed(self, name: str, fn):
        extra = self.extra
        if name == "exact.rref":

            def observed(rows, width):
                extra["exact.rref_cells"] += len(rows) * width
                return fn(rows, width)

        elif name == "tilting.cluster_tilting_check":

            def observed(*args, **kwargs):
                result = fn(*args, **kwargs)
                extra["tilting.ct_check_passes"] += bool(result[0])
                return result

        elif name == "verify.run_verification":

            def observed(*args, **kwargs):
                report = fn(*args, **kwargs)
                extra["verify.checks_total"] += report["checks_total"]
                return report

        else:
            return fn
        return observed

    def wrap(self, fn, layer: str, name: str):
        """Counting, span-recording stand-in for fn."""
        nid = self._name_id(name)
        stage = name in _STAGE_NAMES
        inner = self._observed(name, fn)
        counts, stack, stack_layer = self.counts, self._stack, self._stack_layer
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[nid] += 1
            if not stage and stack_layer and stack_layer[-1] == layer:
                return inner(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            stack_layer.append(layer)
            starts.append(clock())
            try:
                return inner(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                stack_layer.pop()

        return update_wrapper(wrapper, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public clustercat function where it is looked up."""
        modules = [importlib.import_module(f"clustercat.{layer}") for layer in LAYERS]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("clustercat."):
                    continue
                layer = value.__module__.split(".")[1]
                self._patch(mod, attr, self.wrap(value, layer, f"{layer}.{value.__qualname__}"))
        for layer, class_names in CLASSES.items():
            mod = importlib.import_module(f"clustercat.{layer}")
            for class_name in class_names:
                self._wrap_class(layer, getattr(mod, class_name))

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if (attr.startswith("_") and attr != "__init__") or name in UNWRAPPED:
                continue
            if isinstance(value, cached_property):
                prop = cached_property(self.wrap(value.func, layer, name))
                prop.__set_name__(cls, attr)
                self._patch(cls, attr, prop)
            elif inspect.isfunction(value):
                self._patch(cls, attr, self.wrap(value, layer, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def dump(self, path, op: int) -> None:
        header = {
            "op": op,
            "names": self.names,
            "counts": self.counts,
            "extra": self.extra,
            "spans": len(self.span_name),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(fh)


def load(path) -> tuple[dict, list[array]]:
    """Header and span columns (name id, parent, start, end) of one op."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for typecode in "Hidd":
            column = array(typecode)
            column.fromfile(fh, header["spans"])
            columns.append(column)
    return header, columns


def span_times(names: list[str], name_ids, parents, starts, ends) -> dict[str, float]:
    """Per-layer self times (``<layer>.self_s``) and stage times.

    A span's self time is its duration minus the durations of its child
    spans.  Parents always precede their children in the columns.
    """
    size = len(name_ids)
    child = [0.0] * size
    for i in range(size):
        if parents[i] >= 0:
            child[parents[i]] += ends[i] - starts[i]
    layer_of = [f"{name.split('.')[0]}.self_s" for name in names]
    stage_of = [None] * len(names)
    for metric, stage_names in STAGES.items():
        for i, name in enumerate(names):
            if name in stage_names:
                stage_of[i] = metric
    out: dict[str, float] = {}
    nearest: list[str | None] = [None] * size
    for i in range(size):
        nid = name_ids[i]
        own = ends[i] - starts[i] - child[i]
        out[layer_of[nid]] = out.get(layer_of[nid], 0.0) + own
        stage = stage_of[nid] or (nearest[parents[i]] if parents[i] >= 0 else None)
        nearest[i] = stage
        if stage is not None:
            out[stage] = out.get(stage, 0.0) + own
    return out


def op_metrics(path) -> dict[str, float]:
    """Layer metrics of one traced op, read from its spans file."""
    header, columns = load(path)
    out = span_times(header["names"], *columns)
    calls = dict(zip(header["names"], header["counts"]))
    for metric, names in COUNTS.items():
        out[metric] = sum(calls.get(name, 0) for name in names)
    out.update(header["extra"])
    out["trace.spans"] = header["spans"]
    return out


def _main(argv: list[str]) -> int:
    spans_path, op = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracing.py SPANS_FILE OP_ID -- CLI_ARGS...")
    import clustercat.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = clustercat.cli.main(argv[3:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path, op)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
