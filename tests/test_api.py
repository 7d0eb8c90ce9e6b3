"""The exported names: each resolves, and the package re-exports its modules' objects."""

import importlib

import genbound

MODULES = ("bounds", "checks", "data", "network", "training")


def test_exported_names_resolve_to_one_module_object():
    assert len(set(genbound.__all__)) == len(genbound.__all__)
    owners: dict[str, list] = {}
    for name in MODULES:
        module = importlib.import_module(f"genbound.{name}")
        assert len(set(module.__all__)) == len(module.__all__), name
        for exported in module.__all__:
            assert hasattr(module, exported), f"genbound.{name}.{exported}"
            owners.setdefault(exported, []).append(module)
    for exported in genbound.__all__:
        modules = owners.get(exported, [])
        assert len(modules) == 1, (exported, modules)
        assert getattr(genbound, exported) is getattr(modules[0], exported), exported
