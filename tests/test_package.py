"""The package's public surface: ``__all__`` is derived from the names
``dagstab/__init__.py`` imports."""

import types

import dagstab


def test_star_import_binds_exactly_all_and_no_submodule():
    ns: dict = {}
    exec("from dagstab import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == dagstab.__all__
    assert not any(isinstance(value, types.ModuleType) for value in ns.values())
    assert not any(name.startswith("_") for name in ns)
    # a new public name is a deliberate change: importing a helper into
    # __init__ without an underscore would export it
    assert len(dagstab.__all__) == 64
