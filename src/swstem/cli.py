"""The command line's library face: the program is ``swstem.__main__``.

``build_parser``, ``main`` and ``run`` are the program's own, forwarded on
first read (PEP 562), so that importing this module loads the library's
modules but compiles no program and no argparse.  ``python -m swstem.cli``
runs the program as ``python -m swstem`` does.
"""

# importing cli loads the library's modules, which bench/worker.py and
# test_import_loads_no_dataclasses_and_every_library_module read after it
from . import blocks, invariants, lattice, manifold_io, recognize, stems  # noqa: F401

__all__ = ["build_parser", "main", "run"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import __main__

    value = globals()[name] = getattr(__main__, name)
    return value


if __name__ == "__main__":
    from .__main__ import run

    run()
