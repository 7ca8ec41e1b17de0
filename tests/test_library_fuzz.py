"""Hypothesis fuzz of the library's constructors and table functions.

Each is called with values drawn from small and negative integers, integers
near and past ``MAX_INPUT_BITS``, bools, floats, strings, None, lists and
tuples.  What comes out is the record (or listing) it builds or
``InvalidParameters``: no other exception and no warning, within a fixed
deadline.  A table or odd-SW set past ``MAX_LISTING`` entries or
``MAX_LISTING_BITS`` bits (of keys, and of a table's values) is refused
unbuilt, so a valid but huge triple ends at once.  An error message names
an integer too wide to print by its bit length, and a value nested too
deeply to print by its type; each exported enum refuses such a value so.
"""

import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from swstem import DistinctionVerdict, Parity, SplitKind, StemKind, TriState
from swstem.blocks import (
    BasicClassTable,
    EllipticSurface,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
    basic_class_table,
    recognizable_set,
    sw_value,
)
from swstem.errors import (
    MAX_INPUT_BITS,
    InvalidParameters,
    SwStemError,
    UncataloguedBlock,
    exact_int,
)
from swstem.invariants import ConnectedSum, SplitQuery, connected_sum
from swstem.lattice import SpinC, dirac_index
from swstem.recognize import Pattern, recognize
from swstem.stems import hopf_power, sq2_detects_hopf

#: seconds one call may take; the largest drawn table holds 50^3 entries
DEADLINE_S = 5

_small = st.integers(-50, 50)
# 2^b - 1, 2^b and 2^b + 1 for b about MAX_INPUT_BITS, and their negatives
_wide = st.builds(
    lambda bits, offset, sign: sign * (2**bits + offset),
    st.integers(MAX_INPUT_BITS - 2, MAX_INPUT_BITS + 2),
    st.integers(-1, 1),
    st.sampled_from([1, -1]),
)
_ints = _small | st.integers(-(10**6), -1) | _wide
_values = st.one_of(
    _ints,
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
    st.none(),
    st.lists(_ints | st.floats() | st.none(), max_size=4),
    st.lists(_ints, max_size=4).map(tuple),
)
# a negation-symmetric list reaches a pattern's later checks, not only its refusal
_symmetric = st.lists(_ints, min_size=1, max_size=6).map(lambda xs: xs + [-x for x in xs])

# (callable, what a success returns, strategies of its positional arguments)
CALLS = [
    (EllipticSurface, EllipticSurface, (_values, _values, _values)),
    (EllipticSurface, EllipticSurface, (_small, _small, _small)),
    (SymplecticGeneric, SymplecticGeneric, (_values,)),
    (KaehlerGeneric, KaehlerGeneric, (_values, _values)),
    (NegativeDefinite, NegativeDefinite, (_values,)),
    (SpinC, SpinC, (_values, _values)),
    (basic_class_table, BasicClassTable, (_values, _values, _values)),
    (basic_class_table, BasicClassTable, (_small | _wide, _small, _small)),
    (recognizable_set, tuple, (_values, _values, _values)),
    (recognizable_set, tuple, (_small | _wide, _small, _small)),
    (Pattern, Pattern, (_values,)),
    (Pattern, Pattern, (_symmetric,)),
]
IDS = [
    f"{call.__name__}-{'any' if args[0] is _values else 'ints'}" for call, _, args in CALLS
]


@pytest.mark.parametrize("call, returns, strategies", CALLS, ids=IDS)
@settings(
    max_examples=150,
    deadline=None,  # DEADLINE_S is asserted instead, past hypothesis' shrinking
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_constructor_builds_or_refuses(call, returns, strategies, data):
    args = [data.draw(strategy) for strategy in strategies]
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call(*args)
        except InvalidParameters:
            out = None
    elapsed = time.perf_counter() - start
    assert out is None or type(out) is returns, (args, out)
    assert [str(w.message) for w in caught] == []
    assert elapsed < DEADLINE_S, (args, elapsed)


K = 10**5000  # 16,610 bits: str() refuses it
ECHOES = {
    "pattern-asymmetric": lambda: Pattern((K, 1, -1)),
    "recognize-parity": lambda: recognize(Pattern((-K, -(K - 1), K - 1, K))),
    "recognize-multiplicities": lambda: recognize(Pattern((-K, -(K - 2), K - 2, K))),
    "spin-c-mismatch": lambda: SpinC(-K, (1,)),
    "dirac-index": lambda: dirac_index(K + 1, 0),
    "split-modulus": lambda: SplitQuery(K, 1),
    "split-residue": lambda: SplitQuery(4, K),
    "hopf-power": lambda: hopf_power(K),
    "sq2-detects-hopf": lambda: sq2_detects_hopf(-K),
    "sw-value-block": lambda: sw_value(K, None),
    "connected-sum-block": lambda: connected_sum(K),
    "connected-sum-summand": lambda: ConnectedSum((K,)),
}


@pytest.mark.parametrize("call", ECHOES.values(), ids=list(ECHOES))
def test_an_echoed_integer_too_wide_to_print_is_named_by_its_bit_length(call):
    with pytest.raises(SwStemError, match="a 16610-bit integer"):
        call()


def _nested(depth: int) -> list:
    """[[...[]...]], ``depth`` lists deep: repr overflows the stack past about 1,000."""
    value = []
    for _ in range(depth - 1):
        value = [value]
    return value


DEEP = _nested(5000)
NESTED = {
    "exact-int": lambda: exact_int(DEEP, "rank"),
    "pattern": lambda: Pattern([DEEP]),
    "elliptic": lambda: EllipticSurface(DEEP, 1, 1),
    "spin-c": lambda: SpinC.from_coords([DEEP]),
    "kaehler": lambda: KaehlerGeneric(3, [DEEP]),
    "hopf-power": lambda: hopf_power(DEEP),
}
#: a value where a block or a summand belongs, named after its refusal's ": "
NESTED_ARGUMENTS = {
    "sw-value-block": (UncataloguedBlock, lambda: sw_value(DEEP, None)),
    "connected-sum-block": (UncataloguedBlock, lambda: connected_sum(DEEP)),
    "connected-sum-summand": (InvalidParameters, lambda: ConnectedSum((DEEP,))),
}


@pytest.mark.parametrize("call", NESTED.values(), ids=list(NESTED))
def test_an_echoed_value_too_deeply_nested_to_print_is_named_by_its_type(call):
    with pytest.raises(InvalidParameters, match="got a list nested too deeply to show$"):
        call()


@pytest.mark.parametrize("error, call", NESTED_ARGUMENTS.values(), ids=list(NESTED_ARGUMENTS))
def test_a_refused_argument_too_deeply_nested_to_print_is_named_by_its_type(error, call):
    with pytest.raises(error, match=": a list nested too deeply to show$"):
        call()


@pytest.mark.parametrize("kind", [TriState, Parity, StemKind, SplitKind, DistinctionVerdict],
                         ids=lambda kind: kind.__name__)
def test_an_exported_enum_refuses_a_value_it_cannot_show_and_keeps_its_members(kind):
    for value, named in ((K, "a 16610-bit integer"), (DEEP, "a list nested too deeply to show")):
        with pytest.raises(SwStemError, match=f"^{named} is not a valid {kind.__name__}$"):
            kind(value)
    assert all(kind(member.value) is member for member in kind)
