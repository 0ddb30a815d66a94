"""Every module's public export list names things that exist, every import and
private name is used, and only ``harness`` reads or writes JSON."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qdpb


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"qdpb.{info.name}") for info in pkgutil.iter_modules(qdpb.__path__)]
    assert len(modules) >= 9
    for module in modules:
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}, which do not exist"


def test_every_imported_name_is_used():
    # The package has no linter configuration; this is its unused-import check.
    paths = sorted(Path(qdpb.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = importlib.import_module("qdpb" if path.stem == "__init__" else f"qdpb.{path.stem}")
        unused = sorted(imported - used - set(getattr(module, "__all__", ())))
        assert not unused, f"{path.name} imports {unused} and never uses them"


def test_only_harness_reads_and_writes_json():
    # Instance files, configs and reports are parsed and written by one codec.
    banned = {"load", "loads", "dump", "dumps"}
    for path in sorted(Path(qdpb.__file__).parent.glob("*.py")):
        if path.stem == "harness":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                names = {alias.name for alias in node.names}
                assert not names & banned, f"{path.name} imports {sorted(names & banned)} from json"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                called = isinstance(owner, ast.Name) and owner.id == "json" and node.func.attr in banned
                assert not called, f"{path.name}:{node.lineno} calls json.{node.func.attr}"


def test_every_private_name_is_used():
    # A private helper a refactor left behind: an underscore-named function,
    # method, class or module constant that nothing in the package reads
    # outside its own definition.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(qdpb.__file__).parent.glob("*.py"))
    }
    assert len(trees) >= 10
    definitions, references = [], []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((name, node.name, node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.append((name, node.id, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                references.append((name, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                references.append((name, node.name, node.lineno))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            definitions.extend((name, t.id, node) for t in targets if isinstance(t, ast.Name))
    unused = [
        f"{file}:{node.lineno} {private}"
        for file, private, node in definitions
        if private.startswith("_")
        and not private.startswith("__")
        and not any(
            used == private and not (where == file and node.lineno <= line <= node.end_lineno)
            for where, used, line in references
        )
    ]
    assert not unused, f"private names nothing uses: {unused}"
