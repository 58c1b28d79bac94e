"""Command-line surface.

Subcommands: ar, ind, hom, tilting, graph, endo, verify.  Exit status is
0 on success, 1 when the verification battery fails, 2 on usage or
ingestion errors, 3 on internal errors (one ``error:`` line each).  All
outputs are deterministic; JSON payloads carry a top-level schema_version.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arquiver import ARQuiver
from .derived import DerivedCategory, ObjectSyntaxError
from .endo import block_pattern_report, endo_profile
from .orbit import OrbitCategory
from .quiver import DIAGRAMS, QuiverError, load_quiver
from .tilting import enumerate_cluster_tilting, is_connected, lift

SCHEMA_VERSION = 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (QuiverError, ObjectSyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a bug, reported without a traceback
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
            choices=["json", "tsv", "dot"],
            default="json",
            help=f"output format; this command accepts {'|'.join(formats)}",
        )
        p.add_argument("--out", help="output path (default: standard output)")
        p.set_defaults(formats=formats)
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
    p_endo.add_argument("vertex", type=int, help="1-based tilting-object index")
    p_endo.set_defaults(handler=_cmd_endo)

    p_verify = add("verify", "run the invariant battery", ["json"], needs_quiver=False, needs_m=False)
    p_verify.add_argument(
        "--battery",
        help=f"comma-separated diagrams (default all of {','.join(DIAGRAMS)})",
    )
    p_verify.add_argument("--inject-fault", choices=["hom-table"], help=argparse.SUPPRESS)
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _check_format(args, parser) -> None:
    if args.format not in args.formats:
        parser.error(f"--format {args.format} not supported by this command")


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2)


def _category(args) -> OrbitCategory:
    q = load_quiver(args.quiver)
    derived = DerivedCategory(ARQuiver(q))
    return derived.orbit(args.m)


def _tsv_matrix(title: str, ids: list[str], table) -> list[str]:
    lines = [f"# {title}", "\t".join(["."] + ids)]
    for label, row in zip(ids, table):
        lines.append("\t".join([label] + [str(v) for v in row]))
    return lines


# -- subcommands -----------------------------------------------------------


def _cmd_ar(args, parser) -> int:
    _check_format(args, parser)
    ar = ARQuiver(load_quiver(args.quiver))
    ids = [m.name for m in ar.modules]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
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
        _emit(args, _dumps(payload))
        return 0
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
    _emit(args, "\n".join(lines))
    return 0


def _cmd_ind(args, parser) -> int:
    _check_format(args, parser)
    cat = _category(args)
    rows = [
        {
            "id": obj.text,
            "module": f"m{obj.rep.module_id}",
            "shift": obj.rep.shift,
            "tier": cat.tier_of(obj),
        }
        for obj in cat.catalog
    ]
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "m": cat.modulus, "objects": rows}
        _emit(args, _dumps(payload))
        return 0
    lines = ["id\tmodule\tshift\ttier"]
    for r in rows:
        lines.append(f"{r['id']}\t{r['module']}\t{r['shift']}\t{r['tier']}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_hom(args, parser) -> int:
    _check_format(args, parser)
    if args.objects and len(args.objects) != 2:
        parser.error("hom takes exactly two objects, or none for the full tables")
    cat = _category(args)
    if args.objects:
        x = cat.canonicalize(cat.derived.parse_object(args.objects[0]))
        y = cat.canonicalize(cat.derived.parse_object(args.objects[1]))
        hom = cat.hom(x, y)
        ext = cat.ext1(x, y)
        if args.format == "json":
            payload = {
                "schema_version": SCHEMA_VERSION,
                "m": cat.modulus,
                "x": x.text,
                "y": y.text,
                "hom": hom,
                "ext": ext,
            }
            _emit(args, _dumps(payload))
        else:
            _emit(args, f"x\ty\thom\text\n{x.text}\t{y.text}\t{hom}\t{ext}")
        return 0
    ids = [obj.text for obj in cat.catalog]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "m": cat.modulus,
            "ids": ids,
            "hom": {
                ids[i]: dict(zip(ids, cat.hom_table[i])) for i in range(len(ids))
            },
            "ext": {
                ids[i]: dict(zip(ids, cat.ext_table[i])) for i in range(len(ids))
            },
        }
        _emit(args, _dumps(payload))
        return 0
    lines = _tsv_matrix("hom", ids, cat.hom_table)
    lines.append("")
    lines += _tsv_matrix("ext", ids, cat.ext_table)
    _emit(args, "\n".join(lines))
    return 0


def _vertices(cat: OrbitCategory):
    return [lift(t, cat) for t in enumerate_cluster_tilting(cat.base)]


def _members_sorted(cat, gct) -> list[str]:
    return cat.texts(sorted(gct.positions))


def _cmd_tilting(args, parser) -> int:
    _check_format(args, parser)
    cat = _category(args)
    vertices = _vertices(cat)
    # each entry is the member-id list of one tilting object; the 1-based
    # position in this array is the vertex index that cmd_endo consumes
    rows = [_members_sorted(cat, v) for v in vertices]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "m": cat.modulus,
            "count": len(rows),
            "tilting_objects": rows,
        }
        _emit(args, _dumps(payload))
        return 0
    lines = ["id\tmembers"]
    for i, members in enumerate(rows):
        lines.append(f"T{i + 1}\t{','.join(members)}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_graph(args, parser) -> int:
    _check_format(args, parser)
    cat = _category(args)
    graph = cat.tilting_graph
    names = [f"T{i + 1}" for i in range(len(graph.vertices))]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "m": cat.modulus,
            "vertices": [
                {"id": names[i], "members": _members_sorted(cat, v)}
                for i, v in enumerate(graph.vertices)
            ],
            "edges": [[names[a], names[b]] for a, b in graph.edges],
            "connected": is_connected(graph),
        }
        _emit(args, _dumps(payload))
        return 0
    lines = ["graph tilting {"]
    for name in names:
        lines.append(f"  {name};")
    for a, b in graph.edges:
        lines.append(f"  {names[a]} -- {names[b]};")
    lines.append("}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_endo(args, parser) -> int:
    _check_format(args, parser)
    cat = _category(args)
    vertices = _vertices(cat)
    if not 1 <= args.vertex <= len(vertices):
        print(
            f"error: vertex index {args.vertex} out of range 1..{len(vertices)}",
            file=sys.stderr,
        )
        return 2
    gct = vertices[args.vertex - 1]
    profile = endo_profile(cat, gct)
    report = block_pattern_report(profile)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "m": cat.modulus,
        "vertex": f"T{args.vertex}",
        "generator": cat.base.texts(gct.generator),
        "tiers": [[x.text for x in tier] for tier in profile.tiers],
        "block_dims": profile.block_dims,
        "dim_C": profile.dim_c,
        "dim_E": profile.dim_e,
        "total_dim": profile.total,
        "pattern_ok": report.ok,
        "deviations": report.deviations,
        "annotations": report.annotations,
    }
    _emit(args, _dumps(payload))
    return 0


def _cmd_verify(args, parser) -> int:
    from .verify import run_verification  # the largest module; only this command needs it

    _check_format(args, parser)
    diagrams = None
    if args.battery is not None:
        diagrams = [token.strip().upper() for token in args.battery.split(",") if token.strip()]
        if not diagrams:
            print(f"error: --battery {args.battery!r} names no diagram", file=sys.stderr)
            return 2
        unknown = [d for d in diagrams if d not in DIAGRAMS]
        if unknown:
            parser.error(f"unknown diagrams {unknown}; choose from {list(DIAGRAMS)}")
    tamper = None
    if args.inject_fault == "hom-table":
        state = {"done": False}

        def tamper(label, ar):
            if not state["done"]:
                ar.hom_table[0][0] += 1
                state["done"] = True

    report = run_verification(diagrams=diagrams, tamper=tamper)
    _emit(args, _dumps(report))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
