"""Every module's public export list names things that exist."""

import importlib
import pkgutil

import qdpb


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"qdpb.{info.name}") for info in pkgutil.iter_modules(qdpb.__path__)]
    assert len(modules) >= 9
    for module in modules:
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}, which do not exist"
