"""The package's module graph, read from the source with ``ast``."""

import ast
import importlib
import types
from pathlib import Path

import swstem
from swstem import invariants

SOURCE = Path(swstem.__file__).parent

#: each module's ``from .x import`` targets; ``recognize`` inverts patterns over
#: ``blocks`` alone, reading a connected sum is the engine's, and ``_json_text``,
#: the one JSON writer, imports no module of the package
GRAPH = {
    "__init__": {"blocks", "errors", "invariants", "lattice", "manifold_io", "recognize", "stems"},
    "__main__": {"cli"},
    "_json_text": set(),
    "_record": {"errors"},
    "blocks": {"_record", "errors"},
    "cli": {"_json_text", "blocks", "errors", "invariants", "lattice", "manifold_io", "recognize"},
    "errors": set(),
    "invariants": {"_record", "blocks", "errors", "lattice", "stems"},
    "lattice": {"_record", "errors"},
    "manifold_io": {"_json_text", "_record", "blocks", "errors", "invariants", "lattice"},
    "recognize": {"_record", "blocks", "errors"},
    "stems": {"_record", "errors"},
}

#: ``ConnectedSum``'s sorted parts, built by its check
SUM_PARTS = {"_neutral", "_negdef", "_ac", "_digest"}


def parsed():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}


def test_each_module_imports_the_pinned_modules():
    graph = {}
    for name, tree in parsed().items():
        froms = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
        assert all(node.level == 1 and node.module for node in froms), name
        graph[name] = {node.module for node in froms}
    assert graph == GRAPH


def test_only_the_engine_reads_the_parts_of_a_connected_sum():
    readers = {
        name
        for name, tree in parsed().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SUM_PARTS
    }
    assert readers == {"invariants"}


def test_the_package_exports_the_engines_distinction():
    assert swstem.distinguish is invariants.distinguish
    assert swstem.DistinctionVerdict is invariants.DistinctionVerdict
    # the package exports the function ``recognize`` under the module's name
    recognize_module = importlib.import_module("swstem.recognize")
    assert not {"distinguish", "DistinctionVerdict"} & set(vars(recognize_module))


def test_the_package_exports_exactly_the_public_names_it_binds():
    bound = (
        name
        for name, value in vars(swstem).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert swstem.__all__ == sorted(bound)
    # ``__all__`` is derived: it is the names that __init__'s imports list
    imported = [
        alias.name
        for node in ast.walk(parsed()["__init__"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert swstem.__all__ == sorted(imported)
