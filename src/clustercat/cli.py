"""Command-line surface.

Subcommands: ar, ind, hom, tilting, graph, endo, verify.  Exit status is
0 on success, 1 when the verification battery fails, 2 on usage or
ingestion errors, 3 on internal errors (one ``error:`` line each).  All
outputs are deterministic.

A handler computes its result and returns ``(exit_code, result)``, where
the result is a JSON payload dict or a list of text lines; ``main`` alone
stamps ``schema_version`` first in every payload, streams the encoding in
chunks to stdout or ``--out`` and returns the exit code.
A usage error the parser cannot see raises ``UsageError``, reported like
an ingestion error.  A handler imports the layers past ``derived`` that it
uses itself, so ``ar`` loads none of orbit, tilting, endo and verify.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii as _quote

from .arquiver import ARQuiver
from .derived import MAX_DIGITS, DerivedCategory, ObjectSyntaxError
from .quiver import DIAGRAMS, QuiverError, QuiverTooLargeError, ascii_int, cluster_number, load_quiver, shown

SCHEMA_VERSION = 1
_FLUSH_PARTS = 4096  # encoded parts held before one write to the output


class UsageError(Exception):
    """A usage error only a handler can see (an index or list out of range)."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, result = args.handler(args, parser)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            if isinstance(result, dict):
                _write_json({"schema_version": SCHEMA_VERSION, **result}, fh)
            else:
                fh.write("\n".join(result) + "\n")
        return code
    except (QuiverError, ObjectSyntaxError, UsageError, OSError) as exc:
        if getattr(exc, "filename", None) is not None:  # a path as the user gave it
            exc.filename = shown(str(exc.filename))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a bug, reported without a traceback
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


def _write_json(payload, fh) -> None:
    """Write payload to fh as ``json.dumps`` with ``indent=2`` and a final
    newline would, never holding the whole text: _FLUSH_PARTS parts a write."""
    parts: list[str] = []
    put = parts.append

    def emit(x, pad: str) -> None:
        if isinstance(x, str):
            put(_quote(x))
        elif x is None or x is True or x is False:
            put("null" if x is None else "true" if x else "false")
        elif isinstance(x, (int, float)):
            put(int.__repr__(x) if isinstance(x, int) else float.__repr__(x))
        elif isinstance(x, (list, tuple, dict)) and not x:
            put("{}" if isinstance(x, dict) else "[]")
        elif isinstance(x, (list, tuple)):
            inner = pad + "  "
            kinds = set(map(type, x))
            if kinds == {int} or kinds == {str}:  # a leaf list, one join; a bool or float is neither
                encode = int.__repr__ if kinds == {int} else _quote
                put("[\n" + inner + (",\n" + inner).join(map(encode, x)) + "\n" + pad + "]")
            else:
                for k, item in enumerate(x):
                    put(",\n" + inner if k else "[\n" + inner)
                    emit(item, inner)
                put("\n" + pad + "]")
        elif isinstance(x, dict):
            inner = pad + "  "
            for k, (key, item) in enumerate(x.items()):
                put((",\n" if k else "{\n") + inner + _quote(key) + ": ")
                emit(item, inner)
            put("\n" + pad + "}")
        else:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        if len(parts) >= _FLUSH_PARTS:
            fh.write("".join(parts))
            parts.clear()

    emit(payload, "")
    put("\n")
    fh.write("".join(parts))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line, exit 2."""

    def error(self, message):
        # argparse quotes a bad choice or the unrecognized arguments whole: one line, cut to 160 bytes
        line = " ".join(message.split()).encode("utf-8", "backslashreplace")
        line = line if len(line) <= 160 else line[:157] + b"..."
        self.exit(2, f"{self.prog}: error: {line.decode('utf-8', 'ignore')}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clustercat",
        description="orbit categories of Dynkin path algebras: catalogs, "
        "Hom/Ext tables, tilting objects, exchange graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, formats, needs_quiver=True, needs_m=True):
        p = sub.add_parser(name, help=help_text)
        if needs_quiver:
            p.add_argument("--quiver", required=True, help="path to a quiver file")
        if needs_m:
            p.add_argument(
                "--m", type=_positive_int, default=1, help="orbit modulus (default 1)"
            )
        p.add_argument(
            "--format",
            choices=formats,
            default="json",
            help="output format (default json)",
        )
        p.add_argument("--out", help="output path (default: standard output)")
        return p

    p_ar = add("ar", "module catalog, translation pairs, irreducible arrows", ["json", "tsv"], needs_m=False)
    p_ar.set_defaults(handler=_cmd_ar)

    p_ind = add("ind", "indecomposables of the orbit category", ["json", "tsv"])
    p_ind.set_defaults(handler=_cmd_ind)

    p_hom = add("hom", "Hom/Ext dimensions in the orbit category", ["json", "tsv"])
    p_hom.add_argument("objects", nargs="*", metavar="OBJ", help="two objects like m3[-1]; omit for full tables")
    p_hom.set_defaults(handler=_cmd_hom)

    p_tilt = add("tilting", "generalized cluster tilting objects", ["json", "tsv"])
    p_tilt.set_defaults(handler=_cmd_tilting)

    p_graph = add("graph", "tilting graph with connectivity verdict", ["json", "dot"])
    p_graph.set_defaults(handler=_cmd_graph)

    p_endo = add("endo", "endomorphism block-dimension report", ["json"])
    p_endo.add_argument("vertex", help="1-based tilting-object index")
    p_endo.set_defaults(handler=_cmd_endo)

    p_verify = add("verify", "run the invariant battery", ["json"], needs_quiver=False, needs_m=False)
    p_verify.add_argument(
        "--battery",
        help=f"comma-separated diagrams (default all of {','.join(DIAGRAMS)})",
    )
    p_verify.add_argument(
        "--timings",
        action="store_true",
        help="add each check's wall time in seconds, with the shared tables and the exchange walk it is the first to build",
    )
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def _positive_int(text: str) -> int:
    try:
        value = ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid positive integer {shown(text)!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _category(args):
    from .orbit import MAX_CATALOG

    if args.m > MAX_CATALOG:  # past any catalog: refused before a message quotes m
        raise UsageError(f"--m {shown(str(args.m))} exceeds the catalog cap {MAX_CATALOG}")
    q = load_quiver(args.quiver)
    derived = DerivedCategory(ARQuiver(q))
    return derived.orbit(args.m)


def _tsv_matrix(title: str, ids: list[str], table) -> list[str]:
    lines = [f"# {title}", "\t".join(["."] + ids)]
    for label, row in zip(ids, table):
        lines.append("\t".join([label] + [str(v) for v in row]))
    return lines


# -- subcommands -----------------------------------------------------------


def _cmd_ar(args, parser):
    ar = ARQuiver(load_quiver(args.quiver))
    ids = [m.name for m in ar.modules]
    if args.format == "json":
        return 0, {
            "quiver": {
                "vertices": ar.quiver.vertex_count,
                "arrows": [list(a) for a in ar.quiver.arrows],
            },
            "dynkin": {"family": ar.dynkin.family, "rank": ar.dynkin.rank},
            "modules": [
                {
                    "id": m.name,
                    "dim_vector": list(m.dim_vector),
                    "projective_vertex": m.projective_vertex,
                    "injective_vertex": m.injective_vertex,
                }
                for m in ar.modules
            ],
            "tau": [
                {"from": f"m{src}", "to": f"m{tgt}"}
                for src, tgt in sorted(ar.tau.items())
            ],
            "arrows": [
                {"source": f"m{s}", "target": f"m{t}", "multiplicity": mult}
                for s, t, mult in ar.arrow_multiplicities()
            ],
            "hom": ar.hom_table,
            "ext": ar.ext_table,
        }
    lines = ["# modules", "id\tdim_vector\tprojective_vertex\tinjective_vertex"]
    for m in ar.modules:
        lines.append(
            "\t".join(
                [
                    m.name,
                    ",".join(str(d) for d in m.dim_vector),
                    str(m.projective_vertex or "-"),
                    str(m.injective_vertex or "-"),
                ]
            )
        )
    lines += ["", "# arrows", "source\ttarget\tmultiplicity"]
    for s, t, mult in ar.arrow_multiplicities():
        lines.append(f"m{s}\tm{t}\t{mult}")
    lines += ["", "# tau", "from\tto"]
    for src, tgt in sorted(ar.tau.items()):
        lines.append(f"m{src}\tm{tgt}")
    lines.append("")
    lines += _tsv_matrix("hom", ids, ar.hom_table)
    lines.append("")
    lines += _tsv_matrix("ext", ids, ar.ext_table)
    return 0, lines


def _cmd_ind(args, parser):
    cat = _category(args)
    rows = [
        {"id": x.text, "module": f"m{x.module_id}", "shift": x.shift, "tier": cat.tier_of(i)}
        for i, x in enumerate(cat.catalog)
    ]
    if args.format == "json":
        return 0, {"m": cat.modulus, "objects": rows}
    return 0, ["id\tmodule\tshift\ttier"] + [
        f"{r['id']}\t{r['module']}\t{r['shift']}\t{r['tier']}" for r in rows
    ]


def _cmd_hom(args, parser):
    if args.objects and len(args.objects) != 2:
        parser.error("hom takes exactly two objects, or none for the full tables")
    cat = _category(args)
    if args.objects:
        i, j = (cat.canonicalize(cat.derived.parse_object(text)) for text in args.objects)
        x, y = (cat.derived.twist_power(cat.base.catalog[cat.project(p)], cat.tier_of(p)) for p in (i, j))
        hom, ext = cat.dim(i, j, 0), cat.dim(i, j, 1)
        if args.format == "json":
            return 0, {"m": cat.modulus, "x": x.text, "y": y.text, "hom": hom, "ext": ext}
        return 0, ["x\ty\thom\text", f"{x.text}\t{y.text}\t{hom}\t{ext}"]
    ids = [obj.text for obj in cat.catalog]
    if args.format == "json":
        return 0, {
            "m": cat.modulus,
            "ids": ids,
            "hom": {
                ids[i]: dict(zip(ids, cat.hom_table[i])) for i in range(len(ids))
            },
            "ext": {
                ids[i]: dict(zip(ids, cat.ext_table[i])) for i in range(len(ids))
            },
        }
    return 0, _tsv_matrix("hom", ids, cat.hom_table) + [""] + _tsv_matrix("ext", ids, cat.ext_table)


def _refuse_long_listing(cat) -> None:
    """Refuse, before enumerating, a listing of more than MAX_LISTED_MEMBERS member texts."""
    from .orbit import MAX_LISTED_MEMBERS

    members = cluster_number(cat.ar.dynkin) * cat.modulus * cat.ar.quiver.vertex_count
    if members > MAX_LISTED_MEMBERS:
        raise QuiverTooLargeError(
            f"the tilting objects of {cat.ar.dynkin} at m={cat.modulus} have {members} members;"
            f" at most {MAX_LISTED_MEMBERS} are supported"
        )


def _cmd_tilting(args, parser):
    from .tilting import enumerate_cluster_tilting

    cat = _category(args)
    _refuse_long_listing(cat)
    # each entry is the member-id list of one tilting object; the 1-based
    # position in this array is the vertex index that cmd_endo consumes
    rows = [cat.texts(cat.build_twist_stable(t)) for t in enumerate_cluster_tilting(cat.base)]
    if args.format == "json":
        return 0, {"m": cat.modulus, "count": len(rows), "tilting_objects": rows}
    return 0, ["id\tmembers"] + [f"T{i + 1}\t{','.join(members)}" for i, members in enumerate(rows)]


def _cmd_graph(args, parser):
    from .tilting import build_tilting_graph, enumerate_cluster_tilting

    cat = _category(args)
    if args.format == "json":  # dot lists no members
        _refuse_long_listing(cat)
    # the lift is a bijection carrying mutations to mutations: the modulus-1 graph at every m;
    # the walk that finds it reaches only its seed's component, so the graph is
    # connected exactly when that component holds all cluster_number vertices
    vertices, edges = enumerate_cluster_tilting(cat.base), build_tilting_graph(cat)
    names = [f"T{i + 1}" for i in range(len(vertices))]
    if args.format == "json":
        return 0, {
            "m": cat.modulus,
            "vertices": [
                {"id": names[i], "members": cat.texts(cat.build_twist_stable(v))}
                for i, v in enumerate(vertices)
            ],
            "edges": [[names[a], names[b]] for a, b in edges],
            "connected": len(vertices) == cluster_number(cat.ar.dynkin),
        }
    return 0, [
        "graph tilting {",
        *(f"  {name};" for name in names),
        *(f"  {names[a]} -- {names[b]};" for a, b in edges),
        "}",
    ]


def _cmd_endo(args, parser):
    from .endo import block_pattern_report, endo_profile
    from .tilting import enumerate_cluster_tilting

    vertex = int(args.vertex) if len(args.vertex) <= MAX_DIGITS and args.vertex.isascii() and args.vertex.isdigit() else 0
    cat = _category(args)
    tiltings = enumerate_cluster_tilting(cat.base)
    if not 1 <= vertex <= len(tiltings):
        raise UsageError(f"vertex index {shown(args.vertex)} out of range 1..{len(tiltings)}")
    generator = tiltings[vertex - 1]
    profile = endo_profile(cat, generator)
    report = block_pattern_report(profile)
    return 0, {
        "m": cat.modulus,
        "vertex": f"T{vertex}",
        "generator": cat.base.texts(generator),
        "tiers": [[x.text for x in tier] for tier in profile.tiers],
        "block_dims": profile.block_dims,
        "dim_C": profile.dim_c,
        "dim_E": profile.dim_e,
        "total_dim": profile.total,
        "pattern_ok": report.ok,
        "deviations": report.deviations,
        "annotations": report.annotations,
    }


def _cmd_verify(args, parser):
    from .verify import run_verification

    diagrams = None
    if args.battery is not None:
        diagrams = [token.strip().upper() for token in args.battery.split(",") if token.strip()]
        if not diagrams:
            raise UsageError(f"--battery {shown(args.battery)!r} names no diagram")
        unknown = [d for d in diagrams if d not in DIAGRAMS]
        if unknown:
            parser.error(f"unknown diagrams {shown(str(unknown))}; choose from {list(DIAGRAMS)}")
    report = run_verification(diagrams=diagrams, timings=args.timings)
    return (0 if report["passed"] else 1), report


if __name__ == "__main__":
    sys.exit(main())
