"""The package's public names."""

import types

import chaoscpg


def test_every_public_name_resolves():
    names = chaoscpg.__all__
    assert len(names) == len(set(names)) == 45
    for name in names:
        value = getattr(chaoscpg, name)
        assert not isinstance(value, types.ModuleType), name
    namespace = {}
    exec("from chaoscpg import *", namespace)
    assert set(names) <= set(namespace)
