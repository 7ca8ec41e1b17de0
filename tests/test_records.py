"""Semantics of the frozen record classes: construction, defaults, equality,
hashing, immutability and repr, pinned for every record in the library."""

import pytest

from swstem.blocks import (
    K3,
    BasicClassTable,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
)
from swstem.errors import InvalidParameters, UncataloguedBlock
from swstem.invariants import (
    BlowupResult,
    ConnectedSum,
    CriteriaResult,
    InvariantClass,
    SplitKind,
    SplitQuery,
    SplitVerdict,
    Summand,
    connected_sum,
)
from swstem.lattice import SpinC
from swstem.manifold_io import ManifoldDoc
from swstem.recognize import Pattern, RecognitionResult
from swstem.stems import ETA, StemElement, StemKind, TriState

_K3_REPR = "EllipticSurface(p_g=1, m=1, n=1)"
_INV = InvariantClass(2, 3, 1, ETA, TriState.YES, 0, ("t",))
_INV_REPR = (
    "InvariantClass(total_d=2, total_b_plus=3, stem_degree=1, "
    "nonequiv_class=StemElement(kind=<StemKind.HOPF: 'hopf'>, degree=1, value=None), "
    "equivariant_nonzero=<TriState.YES: 'yes'>, gamma_power=0, trace=('t',))"
)

# (class, field names, full positional arguments, arguments of an unequal
#  instance, defaults of the trailing fields, exact repr of cls(*args))
RECORDS = [
    (
        StemElement,
        ("kind", "degree", "value"),
        (StemKind.HOPF, 1, None),
        (StemKind.HOPF, 2, None),
        {"value": None},
        "StemElement(kind=<StemKind.HOPF: 'hopf'>, degree=1, value=None)",
    ),
    (
        SpinC,
        ("c_square", "c_coords"),
        (-10, (1, 3)),
        (-10, (3, 1)),
        {"c_coords": None},
        "SpinC(c_square=-10, c_coords=(1, 3))",
    ),
    (
        EllipticSurface,
        ("p_g", "m", "n"),
        (2, 1, 3),
        (2, 1, 5),
        {},
        "EllipticSurface(p_g=2, m=1, n=3)",
    ),
    (
        SymplecticGeneric,
        ("b_plus",),
        (7,),
        (9,),
        {},
        "SymplecticGeneric(b_plus=7)",
    ),
    (
        KaehlerGeneric,
        ("b_plus", "odd_basic"),
        (3, (-2, 0)),
        (3, (0,)),
        {"odd_basic": ()},
        "KaehlerGeneric(b_plus=3, odd_basic=(-2, 0))",
    ),
    (
        NegativeDefinite,
        ("rank",),
        (2,),
        (3,),
        {},
        "NegativeDefinite(rank=2)",
    ),
    (
        HomotopySphereLike,
        (),
        (),
        None,
        {},
        "HomotopySphereLike()",
    ),
    (
        BasicClassTable,
        ("p_g", "m", "n", "keys", "values"),
        (3, 1, 1, (-2, 0, 2), (1, 2, 1)),
        (3, 1, 1, (-2, 0, 2), (1, 3, 1)),
        {},
        "BasicClassTable(p_g=3, m=1, n=1, keys=(-2, 0, 2), values=(1, 2, 1))",
    ),
    (
        Summand,
        ("block", "spin_c", "class_key"),
        (K3, None, 0),
        (K3, None, None),
        {"spin_c": None, "class_key": None},
        f"Summand(block={_K3_REPR}, spin_c=None, class_key=0)",
    ),
    (
        ConnectedSum,
        ("summands",),
        ((Summand(K3),),),
        ((Summand(K3), Summand(K3)),),
        {},
        f"ConnectedSum(summands=(Summand(block={_K3_REPR}, spin_c=None, class_key=None),))",
    ),
    (
        InvariantClass,
        (
            "total_d",
            "total_b_plus",
            "stem_degree",
            "nonequiv_class",
            "equivariant_nonzero",
            "gamma_power",
            "trace",
        ),
        (2, 3, 1, ETA, TriState.YES, 0, ("t",)),
        (2, 3, 1, ETA, TriState.NO, 0, ("t",)),
        {"trace": ()},
        _INV_REPR,
    ),
    (
        CriteriaResult,
        ("verdict", "trace"),
        (TriState.NO, ("a",)),
        (TriState.NO, ("b",)),
        {},
        "CriteriaResult(verdict=<TriState.NO: 'no'>, trace=('a',))",
    ),
    (
        BlowupResult,
        ("invariant", "sw_preserved"),
        (_INV, TriState.UNKNOWN),
        (_INV, TriState.YES),
        {},
        f"BlowupResult(invariant={_INV_REPR}, sw_preserved=<TriState.UNKNOWN: 'unknown'>)",
    ),
    (
        SplitQuery,
        ("modulus", "residue"),
        (4, 1),
        (4, 3),
        {},
        "SplitQuery(modulus=4, residue=1)",
    ),
    (
        SplitVerdict,
        ("kind", "trace"),
        (SplitKind.IMPOSSIBLE, ("r",)),
        (SplitKind.UNKNOWN, ("r",)),
        {},
        "SplitVerdict(kind=<SplitKind.IMPOSSIBLE: 'impossible'>, trace=('r',))",
    ),
    (
        ManifoldDoc,
        ("summands", "name", "notes"),
        ((Summand(K3),), "k3", "n"),
        ((Summand(K3),), "k3", None),
        {"name": None, "notes": None},
        f"ManifoldDoc(summands=(Summand(block={_K3_REPR}, spin_c=None, class_key=None),), "
        "name='k3', notes='n')",
    ),
    (
        Pattern,
        ("multiples",),
        ((-2, 2),),
        ((-2, 0, 2),),
        {},
        "Pattern(multiples=(-2, 2))",
    ),
    (
        RecognitionResult,
        ("p_g", "m", "n", "validated", "diagnostics"),
        (3, 1, 1, True, ("d",)),
        (3, 1, 1, False, ("d",)),
        {"diagnostics": ()},
        "RecognitionResult(p_g=3, m=1, n=1, validated=True, diagnostics=('d',))",
    ),
]

IDS = [case[0].__name__ for case in RECORDS]


@pytest.mark.parametrize("cls, names, args, other, defaults, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction(cls, names, args, other, defaults, text):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert by_position == by_keyword
    for name, value in zip(names, args):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, names, args, other, defaults, text", RECORDS, ids=IDS)
def test_defaults(cls, names, args, other, defaults, text):
    required = args[: len(args) - len(defaults)]
    built = cls(*required)
    for name, value in defaults.items():
        assert getattr(built, name) == value


@pytest.mark.parametrize("cls, names, args, other, defaults, text", RECORDS, ids=IDS)
def test_missing_and_unexpected_arguments(cls, names, args, other, defaults, text):
    required = len(args) - len(defaults)
    if required:
        with pytest.raises(TypeError):
            cls(*args[: required - 1])
    with pytest.raises(TypeError):
        cls(*args, "one too many")
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)


@pytest.mark.parametrize("cls, names, args, other, defaults, text", RECORDS, ids=IDS)
def test_equality_and_hash(cls, names, args, other, defaults, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    if other is not None:
        c = cls(*other)
        assert a != c and not a == c
    assert a != args and a != object() and a != None  # noqa: E711


@pytest.mark.parametrize("cls, names, args, other, defaults, text", RECORDS, ids=IDS)
def test_frozen(cls, names, args, other, defaults, text):
    record = cls(*args)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls, names, args, other, defaults, text", RECORDS, ids=IDS)
def test_repr(cls, names, args, other, defaults, text):
    assert repr(cls(*args)) == text


def test_invariant_class_trace_is_not_compared():
    a = InvariantClass(2, 3, 1, ETA, TriState.YES, 0, ("one",))
    b = InvariantClass(2, 3, 1, ETA, TriState.YES, 0, ("two", "lines"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != InvariantClass(2, 3, 1, ETA, TriState.YES, 1, ("one",))


@pytest.mark.parametrize(
    "record",
    [
        KaehlerGeneric(3),  # an empty tuple field
        KaehlerGeneric(3, (0,)),  # a 1-tuple field
        CriteriaResult(TriState.NO, ()),
        ConnectedSum((Summand(NegativeDefinite(2), SpinC(-2, (1, 1))), Summand(K3))),  # nested
        ManifoldDoc((Summand(EllipticSurface(3, 2, 5)), Summand(KaehlerGeneric(3))), "e", None),
        BasicClassTable(3, 1, 1, (-2, 0, 2), (1, 2, 1)),
        Pattern((-(2**64), 0, 2**64)),
    ],
    ids=["empty", "one-tuple", "empty-trace", "nested", "doc", "table", "pattern"],
)
def test_repr_is_the_fields_repr(record):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._record_fields)
    assert repr(record) == f"{type(record).__qualname__}({fields})"


def test_a_wide_integer_is_named_by_its_bits_in_a_repr_and_a_message():
    wide = Pattern((-(10**5000), 10**5000))  # 16,610 bits: str() refuses them
    assert repr(wide) == "Pattern(multiples=(a 16610-bit integer, a 16610-bit integer))"
    with pytest.raises(UncataloguedBlock, match="a 16610-bit integer"):
        connected_sum(wide)
    with pytest.raises(InvalidParameters, match="a 16610-bit integer"):
        ConnectedSum((wide,))
