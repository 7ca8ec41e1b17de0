"""Run the docstring examples of the package and every module in it."""

import doctest
import importlib
import pkgutil

import swstem


def test_doctests():
    modules = pkgutil.walk_packages(swstem.__path__, "swstem.")
    total = 0
    for name in ["swstem", *(info.name for info in modules)]:
        if name == "swstem.__main__":
            continue  # importing it runs the command line
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        total += result.attempted
    assert total > 0
