"""Orbit categories of Dynkin path algebras: catalogs, Hom/Ext tables,
cluster tilting objects, exchange graphs, and endomorphism block profiles.

Each exported name is imported from its home module on first access, so
``import clustercat`` loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {
    name: module
    for module, names in {
        "quiver": (
            "DisconnectedQuiverError",
            "DynkinClass",
            "NotDynkinError",
            "Quiver",
            "QuiverCycleError",
            "QuiverError",
            "QuiverSyntaxError",
            "QuiverTooLargeError",
            "classify_dynkin",
            "cluster_number",
            "euler_form",
            "load_quiver",
            "parse_quiver",
            "positive_root_count",
            "validate_quiver",
        ),
        "arquiver": ("ARQuiver", "IndModule", "KnittingError", "Rep"),
        "derived": ("DerivedCategory", "DObject", "ObjectSyntaxError"),
        "orbit": ("OrbitCategory",),
        "tilting": (
            "NotExchangeError",
            "NotRigidError",
            "build_tilting_graph",
            "cluster_tilting_check",
            "complements",
            "enumerate_cluster_tilting",
            "enumerate_stable_tilting_direct",
            "is_connected",
            "near_complements",
        ),
        "endo": (
            "EndoProfile",
            "PatternReport",
            "block_pattern_report",
            "endo_profile",
            "exchange_layer_dim",
        ),
        "verify": ("run_verification",),
    }.items()
    for name in names
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
