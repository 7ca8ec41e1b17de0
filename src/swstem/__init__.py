"""Exact invariant arithmetic for connected sums of 4-manifolds.

The library computes Seiberg-Witten basic-class data for catalogued building
blocks, pushes it through the truncated stable stems under connected sum, and
answers nonvanishing, splitting and recognition questions with exact integers
and explicit rule traces.  See the README for a tour; the ``swstem`` command
exposes everything on the command line.
"""

from .blocks import (
    CANONICAL,
    K3,
    BasicClassTable,
    BuildingBlock,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    Parity,
    SymplecticGeneric,
    basic_class_table,
    max_multiple,
    odd_binomial,
    recognizable_set,
    sw_parity,
    sw_value,
)
from .errors import (
    IndexNotIntegral,
    InvalidParameters,
    ManifoldSemanticError,
    ManifoldSyntaxError,
    NotAnEllipticPattern,
    PositiveIndexOnNegativeDefinite,
    PreconditionNotMet,
    SwStemError,
    UncataloguedBlock,
    UnknownSW,
)
from .invariants import (
    BlowupResult,
    ConnectedSum,
    CriteriaResult,
    DistinctionVerdict,
    InvariantClass,
    SplitKind,
    SplitQuery,
    SplitVerdict,
    Summand,
    blowup,
    connected_sum,
    distinguish,
    invariant,
    nonvanishing_criteria,
    odd_basic_fingerprint,
    split_verdict,
)
from .lattice import (
    SpinC,
    dirac_index,
    expected_dimension,
)
from .manifold_io import (
    ManifoldDoc,
    load_manifold,
    parse_manifold,
    serialize_manifold,
)
from .recognize import (
    Pattern,
    RecognitionResult,
    recognize,
    recognize_oracle,
)
from .stems import (
    ETA,
    ONE,
    StemElement,
    StemKind,
    TriState,
    hopf_power,
    integer_class,
    is_nonzero,
    smash,
    smash_all,
    sq2_detects_hopf,
    unknown,
    zero,
)

__version__ = "0.1.0"

# the public names the imports above bind; importing a submodule binds its
# name too (``blocks``, ...), and a module is no export
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and type(value) is not type(blocks)
)
