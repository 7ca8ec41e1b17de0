"""The command line's library face: the program is ``swstem.__main__``.

``build_parser``, ``main`` and ``run`` are the program's own, re-exported.
``python -m swstem.cli`` runs the program as ``python -m swstem`` does.
"""

from .__main__ import build_parser, main, run

# importing cli loads the whole library, which bench/worker.py and
# test_import_loads_no_dataclasses_and_every_library_module read after it
from . import blocks, invariants, lattice, manifold_io, recognize, stems  # noqa: F401

__all__ = ["build_parser", "main", "run"]

if __name__ == "__main__":
    run()
