"""Exact invariant arithmetic for connected sums of 4-manifolds.

The library computes Seiberg-Witten basic-class data for catalogued building
blocks, pushes it through the truncated stable stems under connected sum, and
answers nonvanishing, splitting and recognition questions with exact integers
and explicit rule traces.  See the README for a tour; the ``swstem`` command
exposes everything on the command line.

The package exports its public names lazily (PEP 562): ``_EXPORTS`` maps each
name to the submodule that defines it, and the first access of a name imports
that submodule and binds the name here, so ``import swstem`` compiles no
submodule.  ``recognize`` names both a submodule and its function; the package
keeps the function bound, whichever is imported first, because its module type
ignores a submodule assigned to an exported name.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: each public name, by the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("_elliptic", "max_multiple odd_binomial"),
        ("_listing", "BasicClassTable basic_class_table recognizable_set"),
        ("_split", "SplitKind SplitQuery SplitVerdict split_verdict"),
        (
            "blocks",
            "CANONICAL K3 BuildingBlock EllipticSurface HomotopySphereLike KaehlerGeneric"
            " NegativeDefinite Parity SymplecticGeneric sw_parity sw_value",
        ),
        (
            "errors",
            "IndexNotIntegral InvalidParameters ManifoldSemanticError ManifoldSyntaxError"
            " NotAnEllipticPattern PositiveIndexOnNegativeDefinite PreconditionNotMet"
            " SwStemError UncataloguedBlock UnknownSW",
        ),
        (
            "invariants",
            "BlowupResult ConnectedSum CriteriaResult DistinctionVerdict InvariantClass Summand"
            " blowup connected_sum distinguish invariant nonvanishing_criteria"
            " odd_basic_fingerprint",
        ),
        ("lattice", "SpinC dirac_index expected_dimension"),
        ("manifold_io", "ManifoldDoc load_manifold parse_manifold serialize_manifold"),
        ("recognize", "Pattern RecognitionResult recognize recognize_oracle"),
        (
            "stems",
            "ETA ONE StemElement StemKind TriState hopf_power integer_class is_nonzero"
            " smash smash_all sq2_detects_hopf unknown zero",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


class _Package(types.ModuleType):
    """The package's module type: an import binds each submodule as an attribute
    of its package, except where the name is an export (``recognize``)."""

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
