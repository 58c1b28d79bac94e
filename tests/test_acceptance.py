"""Acceptance suite: one test per criterion, full battery, exact tolerances.

The battery is every orientation of A_1..A_4 and D_4 with modulus 1, 2
and 3.  Each test prints a single PASS/FAIL line for its criterion.
Everything asserted here is exact integer equality.
"""

from collections import Counter

import pytest

import clustercat as cc
from clustercat.endo import block_pattern_report, endo_profile
from clustercat.tilting import build_tilting_graph, enumerate_cluster_tilting, is_connected
from clustercat.verify import DIAGRAMS, orientations, run_verification

A_FAMILY_COUNTS = {"A1": 2, "A2": 5, "A3": 14, "A4": 42}
M_VALUES = (1, 2, 3)


@pytest.fixture(scope="module")
def report():
    return run_verification()


@pytest.fixture(scope="module")
def contexts():
    out = {}
    for name in DIAGRAMS:
        for label, q in orientations(name):
            out[label] = (name, cc.DerivedCategory(cc.ARQuiver(q)))
    return out


def _collect(report, names, m_filter=None):
    """(cell, check) pairs for the given check names; fail if none found."""
    hits = []
    for cell in report["cells"]:
        if m_filter is not None and not m_filter(cell["m"]):
            continue
        for check in cell["checks"]:
            if check["name"] in names:
                hits.append((cell, check))
    assert hits, f"no battery cells carry checks {names}"
    return hits


def _criterion(number, label, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {verdict}")
    assert not failures, f"criterion {number} failed: {failures[:10]}"


def _failures(hits):
    return [
        f"{cell['quiver']} m={cell['m']}: {check['name']}: {check['detail']}"
        for cell, check in hits
        if not check["passed"]
    ]


def test_criterion_1_oracle_equivalence(report):
    hits = _collect(report, {"oracle-hom-equivalence", "oracle-ext-equivalence"})
    assert len(hits) == 2 * 23  # 23 orientations across the five diagrams
    walked = _collect(report, {"hom-walk-oracle"})
    assert len(walked) == 23 * len(M_VALUES)
    _criterion(
        1,
        "mesh recursion matches matrix and resolution oracles; orbit tables match the twist walk",
        _failures(hits) + _failures(walked),
    )


def test_criterion_2_catalog_sizes(report, contexts):
    failures = _failures(_collect(report, {"catalog-size-modules", "catalog-size-orbit"}))
    expected_roots = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "D4": 12}
    for label, (name, dc) in contexts.items():
        n = dc.ar.quiver.vertex_count
        if len(dc.ar.modules) != expected_roots[name]:
            failures.append(f"{label}: module count {len(dc.ar.modules)}")
        for m in M_VALUES:
            size = len(dc.orbit(m).catalog)
            if size != m * (expected_roots[name] + n):
                failures.append(f"{label} m={m}: orbit catalog {size}")
    _criterion(2, "catalog sizes equal root and orbit counts", failures)


def test_criterion_3_tilting_counts(report, contexts):
    failures = _failures(
        _collect(
            report,
            {"tilting-count", "tilting-brute-force", "lift-check", "direct-enumeration"},
        )
    )
    for label, (name, dc) in contexts.items():
        if name not in A_FAMILY_COUNTS:
            continue
        count = len(enumerate_cluster_tilting(dc.orbit(1)))
        if count != A_FAMILY_COUNTS[name]:
            failures.append(f"{label}: {count} tilting objects")
        for m in M_VALUES:
            vertices = len(enumerate_cluster_tilting(dc.orbit(m).base))
            if vertices != A_FAMILY_COUNTS[name]:
                failures.append(f"{label} m={m}: {vertices} lifted tilting objects")
    _criterion(3, "tilting counts 2/5/14/42, identical across m and orientation", failures)


def test_criterion_4_rigidity_twist_orbitcount_suites(report):
    hits = _collect(
        report,
        {"rigidity-transfer", "twist-hom-invariance", "orbit-count-criterion"},
    )
    _criterion(4, "rigidity transfer, twist Hom invariance, orbit-count criterion", _failures(hits))


def test_criterion_5_complement_counts(report):
    hits = _collect(report, {"complement-counts", "near-complement-pairs"})
    _criterion(5, "one complement for m >= 2, two for m = 1, two near completions", _failures(hits))


def test_criterion_6_graph_connectivity_and_shape(report, contexts):
    failures = _failures(_collect(report, {"graph-connected", "graph-shape"}))
    for label, (name, dc) in contexts.items():
        for m in M_VALUES:
            cat = dc.orbit(m)
            count, edges = len(enumerate_cluster_tilting(cat.base)), list(build_tilting_graph(cat))
            if not is_connected(count, edges):
                failures.append(f"{label} m={m}: disconnected")
            ends = Counter(v for edge in edges for v in edge)
            degrees = {ends[v] for v in range(count)}
            if name == "A2" and (count, len(edges), degrees) != (5, 5, {2}):
                failures.append(f"{label} m={m}: not a 5-cycle")
            if name == "A3" and degrees != {3}:
                failures.append(f"{label} m={m}: not 3-regular")
    _criterion(6, "tilting graph connected; A2 pentagon; A3 3-regular", failures)


def test_criterion_7_endo_dimension_suite(report, contexts):
    failures = _failures(
        _collect(report, {"exchange-layer-dim", "endo-blocks"})
    )
    failures += _failures(
        _collect(report, {"end-dim-one"}, m_filter=lambda m: m is not None and m >= 2)
    )
    # the wrap-around twist block is flagged, never normalized away
    flagged = False
    for label, (name, dc) in contexts.items():
        cat = dc.orbit(2)
        for t in enumerate_cluster_tilting(dc.orbit(1)):
            profile = endo_profile(cat, t)
            if profile.module_tier and profile.dim_e:
                rep = block_pattern_report(profile)
                if any("wrap-around" in a for a in rep.annotations):
                    flagged = True
                elif rep.ok:
                    failures.append(f"{label}: nonzero twist layer without a flag")
    if not flagged:
        failures.append("no module-tier generator with nonzero twist layer was flagged")
    _criterion(7, "endomorphism dimensions: fields, exchange layers, block pattern", failures)


def test_criterion_8_serre_and_cy_suite(report):
    hits = _collect(
        report, {"serre-derived", "serre-orbit", "cy-symmetry", "fractional-cy"}
    )
    _criterion(8, "Serre duality and Calabi-Yau symmetries", _failures(hits))
