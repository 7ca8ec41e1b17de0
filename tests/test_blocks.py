"""Basic-class tables, SW parities and the block catalogue."""

import math
import time
import warnings

import pytest
from hypothesis import given, strategies as st

from swstem.blocks import (
    CANONICAL,
    K3,
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
from swstem.errors import InvalidParameters, UncataloguedBlock, UnknownSW
from swstem.invariants import Summand


def coprime_grid(p_g_max=8, n_max=6):
    for p_g in range(1, p_g_max + 1):
        for m in range(1, n_max + 1):
            for n in range(m, n_max + 1):
                if math.gcd(m, n) == 1:
                    yield p_g, m, n


def table_oracle(p_g, m, n):
    """Regenerate the table from the closed-form key and math.comb."""
    out = {}
    for a in range(p_g):
        for b in range(m):
            for c in range(n):
                key = (
                    (p_g - 1 - 2 * a) * m * n
                    + (m - 2 * b - 1) * n
                    + (n - 2 * c - 1) * m
                )
                assert key not in out
                out[key] = math.comb(p_g - 1, a)
    return out


def test_k3_table():
    assert basic_class_table(1, 1, 1).as_dict() == {0: 1}
    assert recognizable_set(1, 1, 1) == (0,)


def test_e3_table():
    assert basic_class_table(3, 1, 1).as_dict() == {-2: 1, 0: 2, 2: 1}
    assert recognizable_set(3, 1, 1) == (-2, 2)


def test_e5_table():
    # binomial row 4 is 1 4 6 4 1
    assert basic_class_table(5, 1, 1).as_dict() == {-4: 1, -2: 4, 0: 6, 2: 4, 4: 1}
    assert recognizable_set(5, 1, 1) == (-4, 4)


def test_e123_table():
    assert basic_class_table(1, 2, 3).as_dict() == {
        -7: 1,
        -3: 1,
        -1: 1,
        1: 1,
        3: 1,
        7: 1,
    }
    assert recognizable_set(1, 2, 3) == (-7, -3, -1, 1, 3, 7)


def test_tables_match_oracle_on_grid():
    for p_g, m, n in coprime_grid():
        assert basic_class_table(p_g, m, n).as_dict() == table_oracle(p_g, m, n)


def test_recognizable_is_odd_fragment_of_table():
    for p_g, m, n in coprime_grid():
        odd = tuple(k for k, v in basic_class_table(p_g, m, n).entries if v % 2)
        assert recognizable_set(p_g, m, n) == odd


#: wide m, and m = 1 with a long row; (2, 29, 31) has two equal values in
#: every block that holds two rows
WIDE_TRIPLES = ((1, 89, 90), (3, 40, 41), (5, 30, 59), (2, 29, 31), (13, 1, 600))


def test_listings_match_a_dict_and_sort_enumeration():
    # both listings against every (a, b, c) keyed into a dict, then sorted
    for p_g, m, n in (*coprime_grid(17, 11), *WIDE_TRIPLES):
        expected = tuple(sorted(table_oracle(p_g, m, n).items()))
        assert basic_class_table(p_g, m, n).entries == expected
        odd = recognizable_set(p_g, m, n)
        assert odd == tuple(k for k, v in expected if v % 2)
        assert len(odd) == 2 ** bin(p_g - 1).count("1") * m * n


def test_recognizable_set_walks_only_the_odd_rows():
    # row 2**80 has two odd entries: the set is (-2**80, 2**80), built at once
    start = time.perf_counter()
    assert recognizable_set(2**80 + 1, 1, 1) == (-(2**80), 2**80)
    assert recognizable_set(2**80 + 1, 2, 3)[-1] == max_multiple(2**80 + 1, 2, 3)
    assert time.perf_counter() - start < 0.1


def test_table_structure_on_grid():
    for p_g, m, n in coprime_grid():
        table = basic_class_table(p_g, m, n)
        entries = table.as_dict()
        assert len(entries) == p_g * m * n
        assert table.max_multiple == max_multiple(p_g, m, n)
        assert entries[table.max_multiple] == 1
        for k, v in entries.items():
            assert entries[-k] == v


def test_table_value_defaults_to_zero_off_table():
    assert basic_class_table(3, 1, 1).value(100) == 0


FAR_KEYS = (10**50, -(10**50), 10**50 + 1, -(10**50) - 1)


def test_lookups_agree_with_the_materialised_table():
    # every lookup answers what the table lists, on and off the table
    for p_g, m, n in coprime_grid(8, 7):
        block = EllipticSurface(p_g, m, n)
        table = basic_class_table(p_g, m, n)
        entries = table.as_dict()
        odd = set(recognizable_set(p_g, m, n))
        top = max_multiple(p_g, m, n)
        for x in (*range(-top - 3, top + 4), *FAR_KEYS):
            assert block.sw_value(x) == table.value(x) == entries.get(x, 0)
            if (x - top) % 2 == 0:
                expected = Parity.ODD if x in odd else Parity.EVEN
                assert block.sw_parity(x) is expected
            else:
                with pytest.raises(InvalidParameters):
                    block.sw_parity(x)


def _times(p, q):
    out = {}
    for e, c in p.items():
        for f, d in q.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def _divide(poly, k):
    """Exact quotient of a Laurent polynomial by x^k - x^-k (long division)."""
    rest, quotient, low_end = dict(poly), {}, min(poly)
    while rest:
        top = max(rest)
        c = rest.pop(top)
        quotient[top - k] = c
        low = top - 2 * k
        assert low >= low_end, "not divisible"
        rest[low] = rest.get(low, 0) + c
        if not rest[low]:
            del rest[low]
    return quotient


def fintushel_stern(p_g, m, n):
    """SW(E(p_g+1)_{m,n}) = (x^mn - x^-mn)^(p_g+1) / ((x^m - x^-m)(x^n - x^-n)),
    Fintushel-Stern, "Rational blowdowns of smooth 4-manifolds", JDG 1997,
    as {exponent: signed coefficient}."""
    poly = {0: 1}
    for _ in range(p_g + 1):
        poly = _times(poly, {m * n: 1, -m * n: -1})
    return _divide(_divide(poly, m), n)


def test_product_formula_oracle():
    for p_g, m, n in coprime_grid(8, 7):
        signed = fintushel_stern(p_g, m, n)
        table = basic_class_table(p_g, m, n)
        assert {k: abs(c) for k, c in signed.items()} == table.as_dict()
        top = max_multiple(p_g, m, n)
        for a in range(p_g):
            for b in range(m):
                for c in range(n):
                    key = top - 2 * (a * m * n + b * n + c * m)
                    assert signed[key] == (-1) ** a * math.comb(p_g - 1, a)
        for k, coefficient in signed.items():
            assert signed[-k] == (-1) ** (p_g - 1) * coefficient


def test_table_parameter_validation():
    with pytest.raises(InvalidParameters):
        basic_class_table(0, 1, 1)
    with pytest.raises(InvalidParameters):
        basic_class_table(1, 2, 4)
    with pytest.raises(InvalidParameters):
        basic_class_table(1, 3, 2)
    with pytest.raises(InvalidParameters):
        recognizable_set(1, 0, 1)


def test_cached_entries_are_shared():
    assert basic_class_table(7, 2, 3) == basic_class_table(7, 2, 3)
    assert basic_class_table(7, 2, 3).entries is basic_class_table(7, 2, 3).entries


@given(
    st.integers(1, 400),
    st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 5)]),
)
def test_recognizable_count(p_g, multiplicities):
    # row r of Pascal's triangle has 2**popcount(r) odd entries
    m, n = multiplicities
    count = len(recognizable_set(p_g, m, n))
    assert count == 2 ** bin(p_g - 1).count("1") * m * n


def test_odd_binomial_matches_comb():
    for n in range(31):
        for k in range(n + 1):
            assert odd_binomial(n, k) == (math.comb(n, k) % 2 == 1)


def test_odd_binomial_edges():
    assert odd_binomial(10, 2)  # C(10, 2) = 45
    assert not odd_binomial(4, 2)
    assert not odd_binomial(3, 5)  # k > n
    assert not odd_binomial(-1, 0)
    assert odd_binomial(0, 0)


@given(st.integers(0, 10**30), st.integers(0, 10**30))
def test_odd_binomial_no_carry_characterization(n, k):
    # Kummer: C(n, k) is odd iff adding k and n-k in base 2 has no carries
    if k <= n:
        assert odd_binomial(n, k) == ((k & (n - k)) == 0)
    else:
        assert not odd_binomial(n, k)


def test_block_validation():
    with pytest.raises(InvalidParameters):
        EllipticSurface(-1, 1, 1)
    with pytest.raises(InvalidParameters):
        EllipticSurface(1, 2, 4)
    with pytest.raises(InvalidParameters):
        SymplecticGeneric(4)
    with pytest.raises(InvalidParameters):
        SymplecticGeneric(-3)
    with pytest.raises(InvalidParameters):
        KaehlerGeneric(2)
    with pytest.raises(InvalidParameters):
        NegativeDefinite(-1)
    with pytest.raises(UncataloguedBlock):
        Summand(object())


def test_elliptic_orders_multiplicities():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert EllipticSurface(1, 3, 2) == EllipticSurface(1, 2, 3)


@pytest.mark.parametrize("args", [(1.5, 1, 1), (True, 1, 1), (1, 1.0, 1), (1, 1, 2.0)])
def test_elliptic_surface_rejects_non_integers(args):
    with pytest.raises(InvalidParameters, match="must be an integer"):
        EllipticSurface(*args)


@pytest.mark.parametrize("b_plus", [3.0, True, "3"])
def test_symplectic_rejects_non_integer_b_plus(b_plus):
    with pytest.raises(InvalidParameters, match="b_plus must be an integer"):
        SymplecticGeneric(b_plus)


@pytest.mark.parametrize("b_plus", [3.0, True])
def test_kaehler_rejects_non_integer_b_plus(b_plus):
    with pytest.raises(InvalidParameters, match="b_plus must be an integer"):
        KaehlerGeneric(b_plus, (0,))


@pytest.mark.parametrize("rank", [1.0, True])
def test_negative_definite_rejects_non_integer_rank(rank):
    with pytest.raises(InvalidParameters, match="rank must be an integer"):
        NegativeDefinite(rank)


@pytest.mark.parametrize("labels", [(2.5,), (2.5, True), (True,)])
def test_kaehler_rejects_non_integer_labels(labels):
    with pytest.raises(InvalidParameters, match="odd_basic entry must be an integer"):
        KaehlerGeneric(3, labels)


def test_kaehler_odd_basic_normalized():
    assert KaehlerGeneric(3, (2, 0, 2)).odd_basic == (0, 2)


@pytest.mark.parametrize("p_g", range(5))
@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 3), (3, 5)])
def test_elliptic_b_plus_is_the_profile_b_plus(p_g, m, n):
    assert EllipticSurface(p_g, m, n).b_plus == 2 * p_g + 1


@pytest.mark.parametrize(
    "block",
    [K3, EllipticSurface(0, 1, 1), EllipticSurface(3, 2, 3), SymplecticGeneric(5),
     KaehlerGeneric(3), NegativeDefinite(0), NegativeDefinite(4), HomotopySphereLike()],
    ids=repr,
)
def test_neutral_is_b2_zero_in_the_profile(block):
    # b2 = 0 exactly for the homotopy spheres and the rank-0 negative definite block
    b2_zero = isinstance(block, HomotopySphereLike) or block == NegativeDefinite(0)
    assert block.neutral == b2_zero


def test_huge_class_keys_are_named_by_bit_length():
    key = 10**5000 + 1  # str() refuses it
    with pytest.raises(
        InvalidParameters,
        match=f"multiple a {key.bit_length()}-bit integer is not characteristic",
    ):
        Summand(EllipticSurface(3, 1, 1), class_key=key)
    with pytest.raises(
        InvalidParameters, match=f"no SW data at class a {key.bit_length()}-bit integer"
    ):
        Summand(EllipticSurface(0, 1, 1), class_key=key)
    with pytest.raises(InvalidParameters, match="no SW data at class 'spare'"):
        Summand(SymplecticGeneric(3), class_key="spare")


def test_describe():
    assert K3.label == "K3"
    assert EllipticSurface(3, 1, 1).label == "E(p_g=3,m=1,n=1)"
    assert NegativeDefinite(1).label == "negative-definite(rank=1)"
    assert SymplecticGeneric(5).label == "symplectic(b+=5)"
    assert KaehlerGeneric(3, (0,)).label == "kaehler(b+=3)"
    assert HomotopySphereLike().label == "homotopy-sphere"
    assert EllipticSurface(0, 1, 1).label == "E(p_g=0,m=1,n=1)"
    assert NegativeDefinite(0).label == "negative-definite(rank=0)"


def test_sw_value_elliptic():
    e = EllipticSurface(3, 1, 1)
    assert sw_value(e, 0) == 2
    assert sw_value(e, -2) == 1
    assert sw_value(e, 4) == 0
    with pytest.raises(InvalidParameters):
        sw_value(e, True)  # bools are not class keys
    with pytest.raises(UnknownSW):
        sw_value(EllipticSurface(0, 1, 1), 0)


def test_sw_value_symplectic_and_kaehler():
    assert sw_value(SymplecticGeneric(3), CANONICAL) == 1
    with pytest.raises(UnknownSW):
        sw_value(SymplecticGeneric(3), 0)
    block = KaehlerGeneric(3, (0, 2))
    assert sw_value(block, 2) is Parity.ODD
    assert sw_value(block, 4) is Parity.EVEN
    with pytest.raises(UnknownSW):
        sw_value(NegativeDefinite(1), 0)


def test_sw_parity_elliptic():
    e = EllipticSurface(3, 1, 1)
    assert sw_parity(e) is Parity.ODD  # defaults to the largest multiple
    assert sw_parity(e, 0) is Parity.EVEN  # value 2
    assert sw_parity(e, -2) is Parity.ODD
    assert sw_parity(e, 4) is Parity.EVEN  # off the table, value 0
    with pytest.raises(InvalidParameters):
        sw_parity(e, 1)  # wrong parity: not characteristic


def test_sw_parity_defaults():
    assert sw_parity(SymplecticGeneric(7)) is Parity.ODD
    assert sw_parity(SymplecticGeneric(7), "anything-else") is None
    assert sw_parity(KaehlerGeneric(3)) is Parity.EVEN  # empty declaration
    assert sw_parity(KaehlerGeneric(3, (0,))) is Parity.ODD
    assert sw_parity(NegativeDefinite(2)) is None
    assert sw_parity(HomotopySphereLike()) is None
    assert sw_parity(EllipticSurface(0, 1, 1)) is None
    with pytest.raises(UncataloguedBlock):
        sw_parity(object())
