"""The package namespace: every exported name resolves."""

import clustercat


def test_every_name_in_all_resolves():
    assert [name for name in clustercat.__all__ if not hasattr(clustercat, name)] == []
    namespace = {}
    exec("from clustercat import *", namespace)  # raises on a stale name
    assert set(clustercat.__all__) <= set(namespace)
