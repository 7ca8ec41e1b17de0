"""Truncated stable-stem algebra: payload rules and monoid laws."""

import itertools

import pytest

from swstem.errors import InvalidParameters
from swstem.stems import (
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
    smash_degree_one,
    sq2_detects_hopf,
    unknown,
    zero,
)


def payload_grid(int_bound=10, max_degree=4):
    els = [integer_class(v) for v in range(-int_bound, int_bound + 1)]
    els += [hopf_power(j) for j in (1, 2, 3)]
    els += [zero(d) for d in range(-2, max_degree + 1)]
    els += [unknown(d) for d in range(0, max_degree + 1)]
    return els


def test_eta_powers():
    assert smash(ETA, ETA) == hopf_power(2)
    assert smash(hopf_power(2), ETA) == hopf_power(3)
    # the fourth power dies in the truncation
    assert smash(hopf_power(2), hopf_power(2)) == zero(4)
    assert smash(hopf_power(3), ETA) == zero(4)


def test_eta_has_order_two():
    assert smash(integer_class(2), ETA) == zero(1)
    assert smash(integer_class(3), ETA) == ETA
    assert smash(integer_class(-1), hopf_power(2)) == hopf_power(2)
    assert smash(integer_class(0), hopf_power(3)) == zero(3)


def test_integer_multiplication():
    assert smash(integer_class(6), integer_class(-7)) == integer_class(-42)
    assert ONE == integer_class(1)


def test_identity_element():
    for x in payload_grid():
        assert smash(ONE, x) == x
        assert smash(x, ONE) == x


def test_degree_adds():
    for x, y in itertools.product(payload_grid(3, 3), repeat=2):
        assert smash(x, y).degree == x.degree + y.degree


def test_commutative_on_full_grid():
    for x, y in itertools.combinations(payload_grid(), 2):
        assert smash(x, y) == smash(y, x)


def test_associative_on_determined_fragment():
    els = [e for e in payload_grid(3, 3) if e.kind is not StemKind.UNKNOWN]
    for x, y, z in itertools.product(els, repeat=3):
        assert smash(smash(x, y), z) == smash(x, smash(y, z))


def test_associative_on_nonnegative_degrees():
    # with no negative stem in sight the absorbing rules compose associatively
    els = [e for e in payload_grid(3, 3) if e.degree >= 0]
    for x, y, z in itertools.product(els, repeat=3):
        assert smash(smash(x, y), z) == smash(x, smash(y, z))


def test_association_order_matters_through_negative_stems():
    # an undetermined factor pushed through a trivial negative stem is
    # discarded; met after the climb back up it survives
    x, y, z = unknown(1), zero(-2), ETA
    assert smash(smash(x, y), z) == zero(0)
    assert smash(x, smash(y, z)) == unknown(0)


def test_unknown_absorbs_zero():
    # a product with an undetermined factor is undetermined, even against zero
    assert smash(zero(1), unknown(1)) == unknown(2)
    assert smash(unknown(2), integer_class(0)) == unknown(2)


def test_negative_stems_vanish():
    assert unknown(-3) == zero(-3)
    assert smash(zero(-2), unknown(1)) == zero(-1)


def test_smash_all():
    assert smash_all([]) == ONE
    assert smash_all([ETA, ETA, ETA]) == hopf_power(3)
    assert smash_all([ETA] * 4) == zero(4)
    assert smash_all([integer_class(5), unknown(0)]) == unknown(0)


def test_the_degree_one_product_counted_is_the_product_folded():
    # every sequence of zero(1), eta and unknown(1) of length 0-8: 9,841 of them
    pieces = (zero(1), ETA, unknown(1))
    seen = 0
    for n in range(9):
        for seq in itertools.product(pieces, repeat=n):
            counted = smash_degree_one(n, seq.count(pieces[0]), seq.count(pieces[2]))
            assert counted == smash_all(seq), seq
            seen += 1
    assert seen == 9841


def test_is_nonzero():
    assert is_nonzero(integer_class(0)) is TriState.NO
    assert is_nonzero(integer_class(5)) is TriState.YES
    assert is_nonzero(hopf_power(3)) is TriState.YES
    assert is_nonzero(zero(3)) is TriState.NO
    assert is_nonzero(unknown(2)) is TriState.UNKNOWN


def test_payload_validation():
    with pytest.raises(InvalidParameters):
        StemElement(StemKind.INTEGER, 1, 5)  # integers live in degree 0
    with pytest.raises(InvalidParameters):
        hopf_power(4)
    with pytest.raises(InvalidParameters):
        hopf_power(0)
    with pytest.raises(InvalidParameters):
        StemElement(StemKind.UNKNOWN, -1)  # must be constructed as zero
    with pytest.raises(InvalidParameters):
        StemElement(StemKind.ZERO, 0, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: integer_class(2.5),
        lambda: integer_class(True),
        lambda: StemElement(StemKind.INTEGER, 0, True),
        lambda: StemElement(StemKind.ZERO, 2.0),
        lambda: zero(1.5),
        lambda: zero(1.0),
        lambda: unknown(True),
        lambda: hopf_power(1.0),
        lambda: smash(integer_class(3.9), ETA),
    ],
    ids=[
        "integer_class-float",
        "integer_class-bool",
        "integer-element-bool",
        "zero-element-float-degree",
        "zero-fractional-degree",
        "zero-float-degree",
        "unknown-bool-degree",
        "hopf_power-float",
        "smash-float-integer",
    ],
)
def test_stems_take_exact_integers(build):
    with pytest.raises(InvalidParameters, match="must be an integer|degrees 1..3 only"):
        build()


def test_sq2_detection_is_parity():
    assert [sq2_detects_hopf(d) for d in (1, 2, 3, 4)] == [False, True, False, True]
    with pytest.raises(InvalidParameters):
        sq2_detects_hopf(0)


def test_rendering():
    assert str(hopf_power(2)) == "η²"
    assert str(zero(4)) == "0"
    assert str(integer_class(-3)) == "-3"
    assert str(unknown(1)) == "unknown"
    assert str(TriState.YES) == "YES"
