"""Command-line surface.

Subcommands: ar, ind, hom, tilting, graph, endo, verify.  Exit status is
0 on success, 1 when the verification battery fails, 2 on usage or
ingestion errors, 3 on internal errors (one ``error:`` line each).  All
outputs are deterministic.

A handler computes its result and returns ``(exit_code, result)``, where
the result is a JSON payload dict or a list of text lines; ``main`` alone
checks ``--format``, stamps ``schema_version`` first in every payload,
encodes, writes once to stdout or ``--out`` and returns the exit code.
A usage error the parser cannot see raises ``UsageError``, reported like
an ingestion error.  A handler imports the layers past ``derived`` that it
uses itself, so ``ar`` loads none of orbit, tilting, endo and verify.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .arquiver import ARQuiver
from .derived import DerivedCategory, ObjectSyntaxError
from .quiver import DIAGRAMS, QuiverError, QuiverTooLargeError, cluster_number, load_quiver

SCHEMA_VERSION = 1


class UsageError(Exception):
    """A usage error only a handler can see (an index or list out of range)."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format not in args.formats:
        parser.error(f"--format {args.format} not supported by this command")
    try:
        code, result = args.handler(args, parser)
        if isinstance(result, dict):
            text = json.dumps({"schema_version": SCHEMA_VERSION, **result}, indent=2)
        else:
            text = "\n".join(result)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
            fh.write(text + "\n")
        return code
    except (QuiverError, ObjectSyntaxError, UsageError, OSError) as exc:
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
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _category(args):
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
        i = cat.canonicalize(cat.derived.parse_object(args.objects[0]))
        j = cat.canonicalize(cat.derived.parse_object(args.objects[1]))
        x, y, hom, ext = cat.catalog[i], cat.catalog[j], cat.dim(i, j, 0), cat.dim(i, j, 1)
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
    from .tilting import build_tilting_graph, enumerate_cluster_tilting, is_connected

    cat = _category(args)
    if args.format == "json":  # dot lists no members
        _refuse_long_listing(cat)
    # the lift is a bijection carrying mutations to mutations: the modulus-1 graph at every m
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
            "connected": is_connected(len(vertices), edges),
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

    cat = _category(args)
    tiltings = enumerate_cluster_tilting(cat.base)
    if not 1 <= args.vertex <= len(tiltings):
        raise UsageError(f"vertex index {args.vertex} out of range 1..{len(tiltings)}")
    generator = tiltings[args.vertex - 1]
    profile = endo_profile(cat, generator)
    report = block_pattern_report(profile)
    return 0, {
        "m": cat.modulus,
        "vertex": f"T{args.vertex}",
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
            raise UsageError(f"--battery {args.battery!r} names no diagram")
        unknown = [d for d in diagrams if d not in DIAGRAMS]
        if unknown:
            parser.error(f"unknown diagrams {unknown}; choose from {list(DIAGRAMS)}")
    report = run_verification(diagrams=diagrams)
    return (0 if report["passed"] else 1), report


if __name__ == "__main__":
    sys.exit(main())
