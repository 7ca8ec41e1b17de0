"""Run the docstring examples of the package and every module in it."""

import doctest
import importlib
import inspect
import pkgutil

import swstem


def test_doctests():
    modules = pkgutil.walk_packages(swstem.__path__, "swstem.")
    total = 0
    for name in ["swstem", *(info.name for info in modules)]:
        module = importlib.import_module(name)
        result = doctest.testmod(module)
        assert result.failed == 0, name
        total += result.attempted
        # an example in the source that doctest cannot find (a wrapper that
        # hides its docstring) fails here, not silently
        if ">>>" in inspect.getsource(module):
            assert result.attempted > 0, name
    assert total > 0
