"""Shared test settings.

``--hypothesis-profile=ci`` runs every property test at 2,000 examples, a
deeper pass than the default 100 (a test's own ``@settings`` still wins for
what it sets).  Without that flag the default profile applies.
"""

from hypothesis import settings

# no per-example deadline: at 2,000 examples a stray slow example is not a failure
settings.register_profile("ci", max_examples=2000, deadline=None)
