"""The package's module graph, read from the source with ``ast``."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import swstem
from swstem import _record, invariants
from conftest import child_env

SOURCE = Path(swstem.__file__).parent

#: each module's ``from .x import`` targets; ``recognize`` inverts patterns over
#: the listing half alone, and a listing
#: loads no block kind; reading a connected sum is the engine's, and
#: ``_json_text``, the one JSON writer, imports no module of the package.
#: ``blocks`` and ``invariants`` import ``_listing`` only when a listing runs,
#: and ``invariants`` imports ``_split`` only when split-check runs
GRAPH = {
    "__init__": set(),
    "__main__": {
        "_json_text", "_listing", "_split", "blocks", "errors", "invariants", "lattice",
        "manifold_io", "recognize",
    },
    "_elliptic": {"errors"},
    "_json_text": set(),
    "_listing": {"_elliptic", "_record", "errors"},
    "_record": {"errors"},
    "_split": {"_record", "errors", "invariants", "stems"},
    "blocks": {"_elliptic", "_listing", "_record", "errors"},
    "cli": {"__main__", "blocks", "invariants", "lattice", "manifold_io", "recognize", "stems"},
    "errors": set(),
    "invariants": {"_listing", "_record", "_split", "blocks", "errors", "lattice", "stems"},
    "lattice": {"_record", "errors"},
    "manifold_io": {"_json_text", "_record", "blocks", "errors", "invariants", "lattice"},
    "recognize": {"_listing", "_record", "errors"},
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
        assert all(node.level == 1 for node in froms), name
        # ``from . import x`` imports the module x
        graph[name] = {
            target
            for node in froms
            for target in ([node.module] if node.module else [alias.name for alias in node.names])
        }
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
    # ``__all__`` is derived from ``_EXPORTS``; each name is its submodule's object
    assert swstem.__all__ == sorted(swstem._EXPORTS)
    assert len(swstem.__all__) == 66
    for name, module in swstem._EXPORTS.items():
        value = getattr(swstem, name)
        assert not isinstance(value, types.ModuleType), name
        assert value is getattr(importlib.import_module(f"swstem.{module}"), name), name
    # once read, the public names the package binds are its exports, and no other
    bound = (
        name
        for name, value in vars(swstem).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert swstem.__all__ == sorted(bound)


def test_every_export_is_listed_and_an_unknown_name_is_refused_by_name():
    assert set(swstem.__all__) <= set(dir(swstem))
    assert {"__version__", "__getattr__", "__dir__"} <= set(dir(swstem))
    with pytest.raises(AttributeError, match="module 'swstem' has no attribute 'no_such_name'"):
        swstem.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from swstem import no_such_name  # noqa: F401


#: each way of importing the submodule ``recognize``, before the name is read
IMPORT_ORDERS = (
    "import swstem",
    "import swstem.recognize",
    "from swstem.recognize import Pattern",
    "import swstem.recognize as r",
    "import importlib; importlib.import_module('swstem.recognize')",
)


@pytest.mark.parametrize("order", IMPORT_ORDERS)
def test_the_package_binds_the_function_recognize_in_every_import_order(order):
    # a fresh child each: no submodule binds itself over the export
    probe = (
        "import sys, types, swstem; "
        "bound = vars(swstem).get('recognize'); "
        "from swstem import recognize; "
        "print(isinstance(bound, types.ModuleType), "
        "recognize is swstem.recognize is sys.modules['swstem.recognize'].recognize, "
        "isinstance(vars(swstem)['recognize'], types.ModuleType))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{order}; {probe}"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.stdout, proc.stderr) == ("False True False\n", "")


#: the listing names ``blocks`` forwards to ``_listing``, read on first use
FORWARDED = (
    "basic_class_table", "recognizable_set", "BasicClassTable", "odd_class_sets", "MAX_LISTING",
    "MAX_LISTING_BITS",
)


def test_importing_blocks_loads_no_listing_half():
    probe = "import sys, swstem.blocks; print('swstem._listing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert (proc.stdout, proc.stderr) == ("False\n", "")


def test_blocks_forwards_each_public_listing_name_to_its_object():
    from swstem import _listing, blocks
    from swstem.blocks import (
        MAX_LISTING,
        MAX_LISTING_BITS,
        BasicClassTable,
        basic_class_table,
        odd_class_sets,
        recognizable_set,
    )

    imported = (
        basic_class_table, recognizable_set, BasicClassTable, odd_class_sets, MAX_LISTING,
        MAX_LISTING_BITS,
    )
    for name, value in zip(FORWARDED, imported):
        assert value is getattr(_listing, name) is getattr(blocks, name), name
    assert blocks._LISTING == set(FORWARDED)


@pytest.mark.parametrize("name", ["_table", "_TABLES", "_recognizable", "_admit", "no_such_name"])
def test_blocks_forwards_no_other_name(name):
    # a patch of a private listing name on ``blocks`` fails instead of patching nothing
    from swstem import blocks

    with pytest.raises(AttributeError, match=f"module 'swstem.blocks' has no attribute '{name}'"):
        getattr(blocks, name)


#: the split-check names ``invariants`` forwards to ``_split``, read on first use
SPLIT_FORWARDED = ("SplitKind", "SplitQuery", "SplitVerdict", "split_verdict")


def test_importing_invariants_declares_every_rule_and_loads_no_split_check():
    # the split rules are declared in ``invariants``: ``RULES`` is whole without ``_split``
    probe = (
        "import sys, swstem.invariants as engine; "
        "print(len(engine.RULES), 'swstem._split' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env()
    )
    assert (proc.stdout, proc.stderr) == ("39 False\n", "")


def test_invariants_forwards_each_split_name_to_its_object():
    from swstem import _split
    from swstem.invariants import SplitKind, SplitQuery, SplitVerdict, split_verdict

    imported = (SplitKind, SplitQuery, SplitVerdict, split_verdict)
    for name, value in zip(SPLIT_FORWARDED, imported):
        assert value is getattr(_split, name) is getattr(invariants, name), name
    assert invariants._SPLIT == set(SPLIT_FORWARDED)


@pytest.mark.parametrize("name", ["_split", "_SplitKind", "Split", "no_such_name"])
def test_invariants_forwards_no_other_name(name):
    with pytest.raises(
        AttributeError, match=f"module 'swstem.invariants' has no attribute '{name}'"
    ):
        getattr(invariants, name)


def test_every_record_class_shares_one_eq_and_one_hash():
    importlib.import_module("swstem.cli")  # loads every library module
    importlib.import_module("swstem._split")  # and split-check, loaded on first use
    records = {
        value
        for name, module in sys.modules.items()
        if name.startswith("swstem.")
        for value in vars(module).values()
        if isinstance(value, type) and "_record_fields" in vars(value)
    }
    assert len(records) == 18
    assert {value.__eq__ for value in records} == {_record._eq}
    assert {value.__hash__ for value in records} == {_record._hash}
