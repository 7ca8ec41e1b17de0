"""Basic-class tables, SW parities and the block catalogue."""

import gc
import math
import time
import warnings

import pytest
from hypothesis import given, strategies as st

from swstem import _elliptic, _listing
from swstem._listing import _table
from swstem.blocks import (
    CANONICAL,
    K3,
    MAX_LISTING_BITS,
    BasicClassTable,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    Parity,
    SymplecticGeneric,
    basic_class_table,
    max_multiple,
    odd_binomial,
    odd_class_sets,
    recognizable_set,
    sw_parity,
    sw_value,
)
from swstem.errors import MAX_SHOWN_BITS, InvalidParameters, UncataloguedBlock, UnknownSW
from swstem.invariants import ConnectedSum, Summand, blowup, connected_sum, distinguish, invariant
from swstem.manifold_io import ManifoldDoc
from swstem.recognize import Pattern, recognize_oracle
from swstem.stems import StemElement, sq2_detects_hopf


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


def test_tables_are_two_columns_on_grid():
    for p_g, m, n in coprime_grid():
        table = basic_class_table(p_g, m, n)
        keys, values = table.keys, table.values
        assert type(keys) is tuple and type(values) is tuple
        assert len(keys) == len(values) == p_g * m * n
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert table.entries == tuple(zip(keys, values))
        assert table.as_dict() == table_oracle(p_g, m, n)
        assert keys[-1] == max_multiple(p_g, m, n)


def test_entries_read_as_the_tuple_of_pairs():
    entries = basic_class_table(3, 1, 1).entries
    pairs = ((-2, 1), (0, 2), (2, 1))
    assert entries == pairs and pairs == entries
    assert entries != pairs[:2] and entries != list(pairs)
    assert repr(entries) == repr(pairs)
    assert (len(entries), entries[-1], entries[:2], list(entries)) == (
        3, (2, 1), pairs[:2], list(pairs)
    )
    assert (0, 2) in entries and (0, 1) not in entries


def test_the_values_at_m_n_1_are_the_binomial_row():
    # each value is one exact step from the last along row p_g - 1
    for p_g in range(1, 80):
        row = tuple(math.comb(p_g - 1, a) for a in range(p_g - 1, -1, -1))
        assert _table(p_g, 1, 1).values == row


def test_a_repeated_table_is_the_held_record(emptied, monkeypatch):
    checked = []
    check = BasicClassTable.__post_init__

    def counted(table):
        checked.append((table.p_g, table.m, table.n))
        check(table)

    monkeypatch.setattr(BasicClassTable, "__post_init__", counted)
    first = basic_class_table(5, 2, 3)
    assert basic_class_table(5, 2, 3) is first and _table(5, 2, 3) is first
    assert checked == [(5, 2, 3)]


@pytest.fixture
def emptied():
    """Empties the held tables, the cached odd-SW sets and their listing now,
    whenever called, and after the test: a table or set built in it may
    hold key ints of a window the test replaced."""

    def empty():
        _table.cache_clear()
        _listing._recognizable.cache_clear()
        _listing._LISTED.clear()

    empty()
    yield empty
    empty()


def odd_sets(triples, empty):
    """(p_g, m, n, its odd-SW set) for each of the distinct triples, built
    just after its table (held) and, after ``empty``, with no table held."""
    triples = list(triples)
    for held in (True, False):
        empty()
        for built, (p_g, m, n) in enumerate(triples, 1):
            if held:
                basic_class_table(p_g, m, n)
            else:
                _table.cache_clear()
            odd = recognizable_set(p_g, m, n)
            assert _table.cache_info().currsize == (built if held else 0)
            yield p_g, m, n, odd


def test_recognizable_is_odd_fragment_of_table(emptied):
    for p_g, m, n, odd in odd_sets(coprime_grid(), emptied):
        assert odd == tuple(k for k, v in basic_class_table(p_g, m, n).entries if v % 2)


#: wide m, and m = 1 with a long row; (2, 29, 31) has two equal values in
#: every block that holds two rows
WIDE_TRIPLES = ((1, 89, 90), (3, 40, 41), (5, 30, 59), (2, 29, 31), (13, 1, 600))


def test_listings_match_a_dict_and_sort_enumeration(emptied):
    # both listings against every (a, b, c) keyed into a dict, then sorted; the
    # grid holds m = 1 and even p_g, whose odd rows are adjacent: a block
    # between two of them is taken whole
    for p_g, m, n, odd in odd_sets((*coprime_grid(17, 11), *WIDE_TRIPLES), emptied):
        expected = tuple(sorted(table_oracle(p_g, m, n).items()))
        assert basic_class_table(p_g, m, n).entries == expected
        assert odd == tuple(k for k, v in expected if v % 2)
        assert len(odd) == 2 ** bin(p_g - 1).count("1") * m * n


def test_an_odd_set_of_a_held_table_holds_the_table_keys(emptied):
    for p_g, m, n in (*coprime_grid(), *WIDE_TRIPLES):
        keys = {key: key for key in basic_class_table(p_g, m, n).keys}
        assert all(key is keys[key] for key in recognizable_set(p_g, m, n))


@pytest.fixture
def unwindowed(monkeypatch, emptied):
    """``emptied``, and a window of key ints holding only 0, as at import; the
    window held before the test is held again after it."""
    monkeypatch.setattr(_listing, "_window", (0,))


def by_value(window):
    """The window's objects by their values."""
    reach = len(window) // 2
    return lambda key: window[key + reach] if -reach <= key <= reach else None


def test_overlapping_tables_hold_one_object_per_key(unwindowed):
    first, second = basic_class_table(9, 5, 7).keys, basic_class_table(5, 7, 9).keys
    shared = set(first) & set(second)
    assert max(shared) > 256  # past the ints CPython holds once anyway
    objects = {key: key for key in first}
    assert all(key is objects[key] for key in second if key in shared)


def test_an_odd_set_built_before_its_table_holds_the_table_keys(unwindowed):
    for built, (p_g, m, n) in enumerate((*coprime_grid(), *WIDE_TRIPLES)):
        odd = recognizable_set(p_g, m, n)
        assert _table.cache_info().currsize == built  # the tables of the triples before
        keys = {key: key for key in basic_class_table(p_g, m, n).keys}
        assert all(key is keys[key] for key in odd)


def test_a_table_past_the_window_builds_its_outer_blocks_from_ranges(emptied, monkeypatch):
    # E(3; 100, 163) has top 64,937: its blocks are the keys from -65,461,
    # -32,861, -261 and 32,339 up, of which only block 1 lies in the window;
    # the odd rows 0 and 2 of row 2 = (1, 2, 1) walk all four blocks
    for set_first in (False, True):
        emptied()
        monkeypatch.setattr(_listing, "_window", (0,))
        if set_first:
            recognizable_set(3, 100, 163)
        table = basic_class_table(3, 100, 163)
        assert table.entries == tuple(sorted(table_oracle(3, 100, 163).items()))
        held = by_value(_listing._window)
        assert len(_listing._window) == 2 * 32_337 + 1
        assert all((key is held(key)) == (-261 <= key <= 32_337) for key in table.keys)
        odd = recognizable_set(3, 100, 163)
        assert odd == tuple(key for key, value in table.entries if value % 2)


#: p_g a power of two, so row p_g - 1 is all odd; E(1; 200, 201) reaches
#: +-79,999, past the window
ALL_ODD_TRIPLES = ((1, 1, 1), (1, 2, 3), (2, 5, 7), (4, 3, 4), (8, 1, 9), (1, 200, 201))


def test_an_all_odd_rows_table_keys_are_its_odd_set_in_either_order(emptied):
    for p_g, m, n in ALL_ODD_TRIPLES:
        for set_first in (False, True):
            emptied()
            if set_first:
                odd = recognizable_set(p_g, m, n)
                table = basic_class_table(p_g, m, n)
            else:
                table = basic_class_table(p_g, m, n)
                odd = recognizable_set(p_g, m, n)
            assert table.keys is odd
            assert table.entries == tuple(sorted(table_oracle(p_g, m, n).items()))


def test_the_window_grows_keeping_its_objects_up_to_its_bound(unwindowed):
    keys = _listing._keys
    assert keys(-3, 5) == (-3, -1, 1, 3) and len(_listing._window) == 7
    small = _listing._window
    assert keys(-1001, -997) == (-1001, -999)  # grown to what the block asks
    assert len(_listing._window) == 2 * 1001 + 1
    assert keys(1500, 1504) == (1500, 1502)  # doubled, past what it asks
    assert len(_listing._window) == 2 * 2002 + 1
    held = by_value(_listing._window)
    assert all(held(key) is key for key in small)
    bound = _listing._SHARED
    assert keys(-bound, bound + 2) == tuple(range(-bound, bound + 1, 2))
    assert len(_listing._window) == 2 * bound + 1
    full = _listing._window
    assert all(by_value(full)(key) is key for key in small)
    # a block reaching past the bound is its range, and the window stays
    assert keys(-bound - 2, 0) == range(-bound - 2, 0, 2)
    assert keys(0, bound + 4) == range(0, bound + 4, 2)
    assert _listing._window is full


def test_a_small_table_builds_a_small_window(unwindowed):
    keys = basic_class_table(3, 9, 10).keys
    # its widest block reaches 2mn - 2 past its widest key at most
    assert len(_listing._window) // 2 <= max(keys) + 2 * 9 * 10
    held = by_value(_listing._window)
    assert all(held(key) is key for key in keys)


def test_key_tuples_leave_the_collector_after_a_collection(unwindowed):
    # CPython untracks an exact tuple of ints when a collection meets it, and
    # never a tuple subclass: a tracked set is walked by every collection, so
    # marking the odd-SW sets by their type cut `tables` throughput by over a fifth
    odd = recognizable_set(3, 2, 3)
    table = basic_class_table(3, 2, 3)  # row 2 is (1, 2, 1): not all odd
    all_odd = basic_class_table(4, 3, 4)  # row 3 is all odd: keyed by its odd-SW set
    gc.collect()
    held = {
        "odd-SW set": odd,
        "keys": table.keys,
        "values": table.values,
        "all-odd keys": all_odd.keys,
        "window": _listing._window,
    }
    assert [name for name, column in held.items() if gc.is_tracked(column)] == []


def test_recognizable_set_walks_only_the_odd_rows():
    # row 2**80 has two odd entries: the set is (-2**80, 2**80), built at once
    tables = _table.cache_info().currsize
    start = time.perf_counter()
    assert recognizable_set(2**80 + 1, 1, 1) == (-(2**80), 2**80)
    assert recognizable_set(2**80 + 1, 2, 3)[-1] == max_multiple(2**80 + 1, 2, 3)
    assert time.perf_counter() - start < 0.1
    assert _table.cache_info().currsize == tables  # and builds no table


def test_table_structure_on_grid():
    for p_g, m, n in coprime_grid():
        table = basic_class_table(p_g, m, n)
        entries = table.as_dict()
        assert len(entries) == p_g * m * n
        assert table.keys[-1] == max_multiple(p_g, m, n)
        assert entries[table.keys[-1]] == 1
        for k, v in entries.items():
            assert entries[-k] == v


def test_table_value_defaults_to_zero_off_table():
    assert basic_class_table(3, 1, 1).value(100) == 0


ODD_DATA_BLOCKS = [
    K3, EllipticSurface(3, 1, 2), EllipticSurface(6, 2, 5), KaehlerGeneric(3, (0, 2)),
    KaehlerGeneric(5), HomotopySphereLike(), NegativeDefinite(0), KaehlerGeneric(3, (-9, 2)),
]


# the size odd_class_sets admits a block at: a neutral block, skipped, lists none


@pytest.mark.parametrize("block", ODD_DATA_BLOCKS, ids=repr)
def test_odd_count_is_the_size_of_the_odd_set(block):
    count = 0 if block.neutral else block.odd_size()[0]
    assert count == sum(map(len, odd_class_sets([block])))


@pytest.mark.parametrize("block", ODD_DATA_BLOCKS, ids=repr)
def test_odd_width_is_the_widest_odd_class(block):
    width = 0 if block.neutral else block.odd_size()[1]
    listed = [x for classes in odd_class_sets([block]) for x in classes]
    assert width == max(map(abs, listed), default=0).bit_length()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: basic_class_table(2**6999, 1, 1), "the table would list more than 2000000 entries"),
        (lambda: recognizable_set(2**6999, 1, 1), "the odd-SW set would list more than 2000000 entries"),
        # 19,800 odd multiples of about 7,013 bits each
        (
            lambda: recognizable_set(2**6999 + 1, 99, 100),
            "the odd-SW set would list more than 128000000 bits of keys",
        ),
        # p_g * m * n = 2,000,002 entries, counted with m > 1
        (
            lambda: basic_class_table(1, 2, 1_000_001),
            "the table would list more than 2000000 entries",
        ),
        # 20,001 keys of 15 bits and values below 2^20,000
        (
            lambda: basic_class_table(20_001, 1, 1),
            "the table would list more than 128000000 bits of keys and values",
        ),
    ],
    ids=["table-entries", "odd-set-entries", "odd-set-bits", "table-entries-m", "table-bits"],
)
def test_listings_past_the_bounds_are_refused_unbuilt(build, message):
    start = time.perf_counter()
    with pytest.raises(InvalidParameters) as refused:
        build()
    assert str(refused.value) == message
    assert time.perf_counter() - start < 0.1


def test_the_budget_admits_a_table_whose_every_value_prints():
    # at m = n = 1, p_g = 11,306 is the budget's edge: p_g * (14 + p_g) bits
    edge = 11_306
    assert edge * (max_multiple(edge, 1, 1).bit_length() + edge) <= MAX_LISTING_BITS
    table = basic_class_table(edge, 1, 1)
    assert max(table.values).bit_length() <= MAX_SHOWN_BITS
    assert table.values[edge // 2] == math.comb(edge - 1, edge // 2)
    with pytest.raises(InvalidParameters, match="bits of keys and values"):
        basic_class_table(edge + 1, 1, 1)


@pytest.mark.parametrize(
    "block",
    [
        EllipticSurface(0, 1, 1), SymplecticGeneric(3), NegativeDefinite(1),
        HomotopySphereLike(), NegativeDefinite(0),  # neutral: odd_class_sets skips them
    ],
    ids=repr,
)
def test_odd_count_refuses_what_odd_classes_refuses(block):
    with pytest.raises(UnknownSW) as counted:
        block.odd_size()
    with pytest.raises(UnknownSW) as listed:
        block.odd_classes()
    assert str(counted.value) == str(listed.value)


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ((3.5, 1, 1, (), ()), "p_g must be an integer, got 3.5"),
        ((0, 1, 1, (), ()), "basic-class data requires geometric genus >= 1, got p_g = 0"),
        ((3, 2, 4, (1,), ()), "multiplicities must be coprime, got (2, 4)"),
        ((3, 1, 1, (-2, 0, 2), (1, 2)), "a table lists p_g*m*n keys and as many values"),
        ((3, 1, 1, (0,), (2,)), "a table lists p_g*m*n keys and as many values"),
    ],
    ids=["float-p_g", "p_g-0", "not-coprime", "short-values", "short-columns"],
)
def test_a_table_checks_its_fields(fields, message):
    with pytest.raises(InvalidParameters) as refused:
        BasicClassTable(*fields)
    assert str(refused.value) == message


def test_a_table_given_lists_holds_tuples():
    table = BasicClassTable(3, 1, 1, [-2, 0, 2], [1, 2, 1])
    assert type(table.keys) is tuple and type(table.values) is tuple
    assert table == basic_class_table(3, 1, 1)
    assert hash(table) == hash(basic_class_table(3, 1, 1))
    keys, values = (-2, 0, 2), (1, 2, 1)
    given = BasicClassTable(3, 1, 1, keys, values)
    assert given.keys is keys and given.values is values


def test_cached_entries_are_shared():
    assert basic_class_table(7, 2, 3) == basic_class_table(7, 2, 3)
    assert basic_class_table(7, 2, 3).keys is basic_class_table(7, 2, 3).keys
    assert basic_class_table(7, 2, 3).values is basic_class_table(7, 2, 3).values


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


def test_elliptic_surface_refuses_m_greater_than_n_without_a_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidParameters) as exc:
            EllipticSurface(1, 3, 2)
    assert str(exc.value) == "multiplicities must satisfy m <= n, got (3, 2)"
    assert caught == []


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: basic_class_table(2.0, 1, 1), "p_g must be an integer, got 2.0"),
        (lambda: recognizable_set(True, 1, 1), "p_g must be an integer, got True"),
        (lambda: recognizable_set(3.0, 1, 1), "p_g must be an integer, got 3.0"),
        (lambda: recognize_oracle(Pattern([0]), (2.5, 3)), "p_g_max must be an integer"),
        (lambda: sq2_detects_hopf(2.0), "d must be an integer, got 2.0"),
        (lambda: basic_class_table(3, 1, 1).value(0.0), "multiple must be an integer, got 0.0"),
        (lambda: basic_class_table(3, 1, 1).value("0"), "multiple must be an integer, got '0'"),
        # the data model's constructors: junk ends in one refusal, not a bare error
        (lambda: ConnectedSum(5), "summands must be iterable, got int"),
        (lambda: ManifoldDoc(5), "summands must be iterable, got int"),
        (lambda: distinguish(5, []), "a side must be iterable, got int"),
        (lambda: Summand(NegativeDefinite(1), spin_c="x"), "spin_c must be a SpinC, got str"),
        (lambda: blowup(invariant(connected_sum(K3)), NegativeDefinite(1), 5),
         "spin_c must be a SpinC, got int"),
        (lambda: StemElement("hopf", 1), "stem kind must be a StemKind, got 'hopf'"),
    ],
    ids=["table", "recognizable", "odd-count", "oracle-bounds", "sq2", "value-float", "value-str",
         "sum-of-int", "doc-of-int", "distinguish-int", "spin-c-str", "blowup-spin-c-int",
         "stem-kind-str"],
)
def test_entry_points_refuse_non_integers(call, message):
    with pytest.raises(InvalidParameters, match=message):
        call()


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


def test_sw_value_inside_a_row_past_the_shown_width_is_refused_at_once():
    p_g = 2**20 + 1  # a mid-row binomial of about a million bits
    block = EllipticSurface(p_g, 1, 1)
    top = max_multiple(p_g, 1, 1)
    start = time.perf_counter()
    with pytest.raises(InvalidParameters) as refused:
        sw_value(block, 0)
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (
        f"|SW| at multiple 0 is binomial(p_g - 1, {2**19}), "
        f"not computed for p_g - 1 > {MAX_SHOWN_BITS}"
    )
    # the value 1 at either end of the row, and 0 off the table, are answered
    assert sw_value(block, top) == sw_value(block, -top) == sw_value(block, None) == 1
    assert sw_value(block, top + 2) == 0
    # the parity and the trace's statement need no binomial
    assert sw_parity(block, 0) is Parity.EVEN
    assert block.sw_shown(0) == f"SW is nonzero and below 2^{p_g - 1}"
    assert block.sw_shown(top + 2) == "SW = 0"
    assert block.sw_nonzero(0) and not block.sw_nonzero(top + 2)
    # the budget refuses to build this table; a lookup reads none of its
    # columns, so columns of the right length holding only zeros serve
    table = BasicClassTable(p_g, 1, 1, (0,) * p_g, (0,) * p_g)
    with pytest.raises(InvalidParameters, match="not computed"):
        table.value(0)
    assert table.value(top) == 1


@pytest.mark.parametrize(
    "block, keys",
    [
        (EllipticSurface(4, 2, 3), [None, *range(-max_multiple(4, 2, 3) - 2, 24, 2)]),
        (EllipticSurface(5, 1, 1), [None, *range(-10, 11, 2)]),
        (SymplecticGeneric(3), [None, CANONICAL]),
        (KaehlerGeneric(3, (0,)), [None, 0, 2]),
    ],
    ids=["E(4;2,3)", "E(5;1,1)", "symplectic", "kaehler"],
)
def test_sw_nonzero_is_the_verdict_sw_shown_states(block, keys):
    # sw_nonzero decides, sw_shown only states: "SW = 0" exactly where SW is
    # zero, None exactly where it is not an integer
    for key in keys:
        nonzero, shown = block.sw_nonzero(key), block.sw_shown(key)
        assert (shown is None) == (nonzero is None)
        assert (shown == "SW = 0") == (nonzero is False)
        if shown is not None:
            assert shown == f"SW = {block.sw_value(key)}"


@pytest.mark.parametrize("block", [K3, EllipticSurface(3, 2, 3)], ids=["K3", "E(3;2,3)"])
@pytest.mark.parametrize("key", [0, 1, -3, 13, True, False, 1.5, 2.0, "x", None], ids=repr)
def test_sw_nonzero_refuses_exactly_the_keys_sw_value_refuses(block, key):
    try:
        value = block.sw_value(key)
    except InvalidParameters as exc:
        with pytest.raises(InvalidParameters) as refused:
            block.sw_nonzero(key)
        assert str(refused.value) == str(exc)
    else:
        assert block.sw_nonzero(key) is (value != 0)


@pytest.mark.parametrize("key", [True, 1.5, "x"], ids=repr)
def test_sw_shown_past_the_shown_bound_refuses_a_key_sw_value_refuses(key):
    block = EllipticSurface(MAX_SHOWN_BITS + 2, 1, 1)  # sw_shown asks sw_nonzero
    messages = []
    for ask in (block.sw_shown, block.sw_value):
        with pytest.raises(InvalidParameters) as refused:
            ask(key)
        messages.append(str(refused.value))
    assert messages == [f"elliptic class key must be an integer, got {key!r}"] * 2


def test_every_value_of_the_largest_admitted_row_is_answered(monkeypatch):
    # E(11,306; 1, 1) is the largest table the budget admits: p_g - 1 is
    # within MAX_SHOWN_BITS, so no lookup on it is refused
    edge = 11_306
    assert edge - 1 <= MAX_SHOWN_BITS
    table = basic_class_table(edge, 1, 1)
    # one exact binomial of row 11,305 takes milliseconds: first record which
    # binomial each lookup asks for, at every key, then compute some exactly
    monkeypatch.setattr(_elliptic, "comb", lambda n, k: (n, k))
    asked = [table.value(key) for key in table.keys]
    assert asked == [(edge - 1, a) for a in range(edge - 1, -1, -1)]  # keys ascend
    monkeypatch.undo()
    for a in (0, 1, 2, edge // 2 - 1, edge // 2, edge - 2, edge - 1):
        key = table.keys[edge - 1 - a]
        assert table.value(key) == math.comb(edge - 1, a) == table.values[edge - 1 - a]
        assert sw_value(EllipticSurface(edge, 1, 1), key) == math.comb(edge - 1, a)


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
