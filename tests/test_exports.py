"""Every module's public export list names things that exist, every import and
private name is used, each module imports only the layers below it and the
standard library, only ``harness`` reads or writes JSON, no module reads the
environment, and starting the CLI loads none of the process pool's modules."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qdpb

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"qdpb.{info.name}") for info in pkgutil.iter_modules(qdpb.__path__)]
    assert len(modules) >= 9
    for module in modules:
        exported = getattr(module, "__all__", ())
        assert len(set(exported)) == len(exported), f"{module.__name__}.__all__ repeats a name"
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}, which do not exist"


def unused_imports(path: Path, exported=()) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(exported))


def test_every_imported_name_is_used():
    # The repository has no linter configuration; this is its unused-import
    # check, over the package and the tests.
    paths = sorted(Path(qdpb.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:
        module = importlib.import_module("qdpb" if path.stem == "__init__" else f"qdpb.{path.stem}")
        unused = unused_imports(path, getattr(module, "__all__", ()))
        assert not unused, f"{path.name} imports {unused} and never uses them"
    others = sorted(ROOT.glob("tests/*.py"))
    assert len(others) >= 12
    unused = {str(path.relative_to(ROOT)): unused_imports(path) for path in others}
    unused = {name: names for name, names in unused.items() if names}
    assert not unused, f"imported and never used: {unused}"


# The package modules each module may import.  analysis and algorithms are
# siblings: the exact oracles judge the engines and may not import them.
_BASE = {"core", "errors", "instances", "problems"}
LAYERS = {
    "__init__": set(),
    "errors": set(),
    "core": {"errors"},
    "problems": {"core", "errors"},
    "instances": {"core", "errors", "problems"},
    "algorithms": {"core", "errors", "problems"},
    "analysis": _BASE,
    "harness": _BASE | {"algorithms", "analysis"},
    "acceptance": _BASE | {"algorithms", "analysis", "harness"},
    "cli": _BASE | {"algorithms", "analysis", "harness", "acceptance"},
}


def module_imports(tree) -> tuple[set, set]:
    """The package modules and the top-level names of the other modules that
    a module's AST imports, at any depth."""
    imported, outside = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module if not node.level else "qdpb" + (f".{node.module}" if node.module else "")
            if module == "qdpb":  # from . import harness
                imported.update(alias.name for alias in node.names)
            elif module.startswith("qdpb."):
                imported.add(module.split(".")[1])
            else:
                outside.add(module.split(".")[0])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("qdpb."):
                    imported.add(alias.name.split(".")[1])
                else:
                    outside.add(alias.name.split(".")[0])
    return imported, outside


def test_each_module_imports_only_the_layers_below_it():
    # Outside the package, only the standard library: so neither starting
    # the CLI nor a serial experiment can load numpy or scipy, whose imports
    # take about a second and, for numpy, about 12 MB of RSS.
    paths = sorted(Path(qdpb.__file__).parent.glob("*.py"))
    assert {path.stem for path in paths} == set(LAYERS), "place a new module in LAYERS"
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported, outside = module_imports(tree)
        stray = imported - LAYERS[path.stem]
        assert not stray, f"{path.name} imports {sorted(stray)}, outside its layer"
        foreign = outside - sys.stdlib_module_names
        assert not foreign, f"{path.name} imports {sorted(foreign)}, outside the standard library"


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


def test_no_module_reads_the_environment():
    # Every run setting lives in the config, so a run is described by its inputs.
    banned = {"environ", "environb", "getenv", "getenvb"}
    for path in sorted(Path(qdpb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & banned, f"{path.name} imports {sorted(names & banned)} from os"
            if isinstance(node, ast.Attribute) and node.attr in banned:
                raise AssertionError(f"{path.name}:{node.lineno} reads the environment ({node.attr})")


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


def modules_loaded_at_start_up(*packages) -> str:
    """The sorted names of the loaded modules of ``packages`` after a fresh
    interpreter imports the CLI and the modules it uses."""
    code = (
        "import sys\n"
        "import qdpb.acceptance, qdpb.analysis, qdpb.cli, qdpb.harness, qdpb.instances\n"
        f"print(sorted(name for name in sys.modules if name.split('.')[0] in {packages!r}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qdpb.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_start_up_loads_no_process_pool():
    # The pool starts only for workers > 1; multiprocessing and what it loads
    # (socket, logging, pickle) would cost every serial run about 2 MB.
    assert modules_loaded_at_start_up("multiprocessing", "concurrent") == "[]"
