"""Shared test settings and fixtures.

``--hypothesis-profile=ci`` runs every property test at 2,000 examples, a
deeper pass than the default 100 (a test's own ``@settings`` still wins for
what it sets).  Without that flag the default profile applies.

Every child process the suite starts takes its environment from
``child_env``, so it runs alike whatever the caller sets.
"""

import os
from collections import OrderedDict

import pytest
from hypothesis import settings

from swstem import manifold_io

# no per-example deadline: at 2,000 examples a stray slow example is not a failure
settings.register_profile("ci", max_examples=2000, deadline=None)


def child_env() -> dict[str, str]:
    """The environment of a child process: the caller's, without
    ``PYTHONUNBUFFERED``, so the child's stdout is buffered as a user's is."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.fixture
def no_summand_held(monkeypatch):
    """An empty intern table of parsed summands in place of ``manifold_io``'s
    for the test, so that every summand a file holds is parsed afresh."""
    monkeypatch.setattr(manifold_io, "_HELD", OrderedDict())
    return manifold_io._HELD
