"""Pattern recognition, the enumeration oracle and sum distinction."""

import functools
import importlib
import math
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from swstem.blocks import (
    K3,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
    recognizable_set,
)
from swstem._listing import _recognizable
from swstem.errors import InvalidParameters, NotAnEllipticPattern, UncataloguedBlock
from swstem.invariants import (
    DistinctionVerdict,
    Summand,
    connected_sum,
    distinguish,
    nonvanishing_criteria,
)
from swstem.lattice import SpinC
from swstem.recognize import (
    Pattern,
    RecognitionResult,
    recognize,
    recognize_oracle,
)
from swstem.stems import TriState
from conftest import child_env

# the package exports the function ``recognize`` under the module's name
RECOGNIZE = importlib.import_module("swstem.recognize")
LISTING = importlib.import_module("swstem._listing")


def odd_coprime_grid(p_g_max=7, n_max=5):
    for p_g in range(1, p_g_max + 1, 2):
        for m in range(1, n_max + 1):
            for n in range(m, n_max + 1):
                if math.gcd(m, n) == 1:
                    yield p_g, m, n


def coprime_grid():
    """Every genus, even included: p_g <= 69, coprime m <= n <= 12, p_g m n <= 20,000."""
    for p_g in range(1, 70):
        for n in range(1, 13):
            for m in range(1, n + 1):
                if math.gcd(m, n) == 1 and p_g * m * n <= 20_000:
                    yield p_g, m, n


#: the message every refusal of recognize starts with
NOT_ODD_GENUS = "not the odd-SW set of an odd-genus elliptic surface: "


def test_pattern_normalizes():
    assert Pattern([2, -2, 2]).multiples == (-2, 2)
    assert Pattern((0,)).multiples == (0,)


@pytest.mark.parametrize(
    "make",
    [
        lambda: [2, -2, 0],
        lambda: {2, -2, 0},
        lambda: (x for x in (0, 2, -2, 2)),
        lambda: (2, 0, -2),
        lambda: (-2, 0, 2, 2),
    ],
    ids=["list", "set", "generator", "unsorted-tuple", "repeats"],
)
def test_pattern_multiples_are_a_hashable_sorted_tuple(make):
    pattern = Pattern(make())
    assert type(pattern.multiples) is tuple and pattern.multiples == (-2, 0, 2)
    assert hash(pattern) == hash(Pattern((-2, 0, 2)))


def test_an_ascending_tuple_is_kept_as_given():
    odd = recognizable_set(3, 2, 5)
    assert Pattern(odd).multiples is odd


def test_a_listed_set_is_admitted_unchecked(monkeypatch):
    odd = recognizable_set(5, 3, 4)

    def refuse(*args):
        raise AssertionError("a listed set was checked")

    monkeypatch.setattr(RECOGNIZE, "as_tuple", refuse)
    assert Pattern(odd).multiples is odd


def test_an_equal_copy_of_a_listed_set_is_checked_and_kept(monkeypatch):
    odd = recognizable_set(5, 3, 4)
    copy = tuple(list(odd))
    assert copy is not odd
    checked = []
    monkeypatch.setattr(RECOGNIZE, "as_tuple", lambda value, what: checked.append(value) or value)
    pattern = Pattern(copy)
    assert checked == [copy] and pattern.multiples is copy
    assert pattern == Pattern(odd) and hash(pattern) == hash(Pattern(odd))


def test_a_listed_set_checked_in_full_is_itself_on_the_coprime_grid():
    # a list is never admitted unchecked: the full checks pass every listed set
    for p_g, m, n in coprime_grid():
        odd = recognizable_set(p_g, m, n)
        assert Pattern(list(odd)).multiples == odd, (p_g, m, n)


@pytest.mark.deep
@given(
    st.tuples(st.integers(1, 300), st.integers(1, 12), st.integers(1, 12))
    .map(lambda t: (t[0], min(t[1:]), max(t[1:])))
    .filter(lambda t: math.gcd(t[1], t[2]) == 1)
)
def test_a_listed_set_is_the_pattern_of_its_list(triple):
    odd = recognizable_set(*triple)
    assert Pattern(list(odd)) == Pattern(odd)


@pytest.mark.parametrize("values", [5, None, 2.5])
def test_pattern_refuses_what_is_not_iterable(values):
    with pytest.raises(InvalidParameters, match="must be iterable"):
        Pattern(values)


def test_pattern_rejects_asymmetry_and_emptiness():
    with pytest.raises(InvalidParameters):
        Pattern([1, 2, -1])
    with pytest.raises(InvalidParameters):
        Pattern([])
    with pytest.raises(InvalidParameters, match="at least one multiple"):
        Pattern(())


def test_pattern_asymmetry_names_the_smallest_unmatched_multiple():
    with pytest.raises(InvalidParameters, match="-5 present, 5 absent"):
        Pattern([-5, -3, 1, 3])


@pytest.mark.parametrize("values", [[2.5, -2.5], [True, -1], [0, 1.0, -1]])
def test_pattern_rejects_non_integers(values):
    with pytest.raises(InvalidParameters, match="must be integers"):
        Pattern(values)


def test_recognize_k3():
    result = recognize(Pattern([0]))
    assert result.triple == (1, 1, 1)
    assert result.validated


def test_recognize_e3():
    result = recognize(Pattern([-2, 2]))
    assert result.triple == (3, 1, 1)
    assert result.validated
    assert result.diagnostics == ()


def test_recognize_small_log_transforms():
    assert recognize(Pattern([-1, 1])).triple == (1, 1, 2)
    assert recognize(Pattern([-2, 0, 2])).triple == (1, 1, 3)
    assert recognize(Pattern([-7, -3, -1, 1, 3, 7])).triple == (1, 2, 3)


def test_recognize_rejects_mixed_parity():
    with pytest.raises(NotAnEllipticPattern, match="^" + re.escape(NOT_ODD_GENUS)):
        recognize(Pattern([-2, -1, 1, 2]))


def test_recognize_refuses_unordered_derived_multiplicities():
    # the top gap derives m = 3, and 4 multiples leave no n >= 3
    with pytest.raises(NotAnEllipticPattern) as caught:
        recognize(Pattern([-7, -1, 1, 7]))
    assert str(caught.value) == NOT_ODD_GENUS + "no triple with m = 3 has 4 multiples and largest 7"


def test_recognize_unvalidated_candidate():
    # 6 multiples and the top 14 name (5, 1, 3), whose set holds 12 below 14
    result = recognize(Pattern([-14, -6, -2, 2, 6, 14]))
    assert (result.triple, result.validated) == ((5, 1, 3), False)
    assert result.diagnostics == (
        "candidate (5, 1, 3) regenerates 6 multiples with largest 14, "
        "as the input does, but holds 12 where the input holds 6",
    )


def test_recognize_refuses_a_huge_pair_by_its_count():
    # {-K, K} with odd K: n = 2 gives p_g = (K + 1) / 2, not 1 as j = 0 asks,
    # and n = 1 gives the even K + 1, so no triple fits and none is built
    k = 10**23 + 1
    with pytest.raises(NotAnEllipticPattern) as caught:
        recognize(Pattern([-k, k]))
    assert str(caught.value) == (
        NOT_ODD_GENUS + f"no triple with m = 1 has 2 multiples and largest {k}"
    )


def test_recognize_validates_a_huge_pair_with_two_odd_rows():
    # row 2**80 of Pascal's triangle has two odd entries, at 0 and 2**80
    result = recognize(Pattern([-(2**80), 2**80]))
    assert result.triple == (2**80 + 1, 1, 1)
    assert result.validated
    assert result.diagnostics == ()


def test_round_trip_on_grid():
    # and m = 1 with a large n
    for p_g, m, n in (*odd_coprime_grid(), (13, 1, 600), (1, 1, 1000), (5, 1, 2048)):
        pattern = Pattern(recognizable_set(p_g, m, n))
        result = recognize(pattern)
        assert result.triple == (p_g, m, n)
        assert result.validated


@functools.cache
def plain_enumeration(top):
    """Every odd-genus triple, coprime m <= n, whose largest multiple
    (p_g - 1) m n + (m - 1) n + (n - 1) m is at most ``top``, under its odd-SW
    set: each set built, with no count and no inversion."""
    found = {}
    for p_g in range(1, top + 2, 2):
        for n in range(1, top + 2):
            for m in range(1, n + 1):
                if (p_g - 1) * m * n + (m - 1) * n + (n - 1) * m > top:
                    break
                if math.gcd(m, n) == 1:
                    found.setdefault(recognizable_set(p_g, m, n), []).append((p_g, m, n))
            if n - 1 > top:  # the largest multiple of (p_g, 1, n) is at least n - 1
                break
    return found


#: the top of E(11; 6, 7), the largest on the oracle grid below
ENUMERATED_TOP = 491


def check_against_the_enumeration(values):
    """recognize validates a triple exactly when the plain enumeration finds
    it; a set no triple generates is refused or answered unvalidated."""
    assert values[-1] <= ENUMERATED_TOP, values
    generators = plain_enumeration(ENUMERATED_TOP).get(tuple(values), ())
    try:
        result = recognize(Pattern(values))
    except NotAnEllipticPattern:
        assert not generators, values
        return
    if generators:
        assert result.validated and result.triple in generators, (values, result)
    else:
        assert not result.validated, (values, result)


#: the triples of the oracle grid: p_g <= 11 and coprime m <= n <= 7, each genus
ORACLE_GRID = [
    (p_g, m, n)
    for p_g in range(1, 12)
    for m in range(1, 8)
    for n in range(m, 8)
    if math.gcd(m, n) == 1
]


def grid_patterns():
    """Every odd-SW set on the oracle grid, and each with one pair removed."""
    odd_sets = [recognizable_set(*triple) for triple in ORACLE_GRID]
    patterns = set(odd_sets)
    for odd in odd_sets:
        patterns.update(tuple(y for y in odd if abs(y) != x) for x in odd if x >= 0)
    patterns.discard(())
    return patterns


def test_the_plain_enumeration_lists_each_odd_genus_set_once():
    enumerated = plain_enumeration(ENUMERATED_TOP)
    assert all(len(triples) == 1 for triples in enumerated.values())
    assert enumerated[recognizable_set(11, 6, 7)] == [(11, 6, 7)]


def test_recognize_matches_a_plain_enumeration():
    for values in grid_patterns():
        check_against_the_enumeration(values)


#: symmetric patterns of evenly spaced multiples, whole or with gaps: four are
#: E(1; 1, n)'s sets, three no surface's
HOSTILE = (
    tuple(range(-11, 12, 2)),
    tuple(range(-10, 11, 2)),
    (-1, 1),
    (-3, -1, 1, 3),
    (-9, -5, -1, 1, 5, 9),
    (-7, -3, 3, 7),
    (-12, -6, 0, 6, 12),
)


@pytest.mark.parametrize("values", HOSTILE)
def test_recognize_matches_a_plain_enumeration_on_hostile_patterns(values):
    check_against_the_enumeration(values)


def set_walk(values, k, m):
    """The set-based detection of the larger multiplicity, as an oracle:
    the first lambda >= 1 with k - 2*lambda*m off the pattern."""
    present = set(values)
    lam = 1
    while k - 2 * lam * m in present:
        lam += 1
    return lam


def walked_triple(values):
    """The triple a walk down the set validates, or None: m from the top gap
    (m = n = 1 where it shares a factor with k), n from ``set_walk`` and p_g
    from the largest multiple, kept when its odd-SW set is the pattern."""
    k = values[-1]
    if len(values) == 1:
        return (1, 1, 1)
    gap = k - values[-2]
    if gap % 2:
        return None
    if math.gcd(gap // 2, k) != 1:
        p_g, m, n = k + 1, 1, 1
    else:
        m = gap // 2
        n = set_walk(values, k, m)
        p_g, rest = divmod(k - (m - 1) * n - (n - 1) * m, m * n)
        p_g += 1
        if rest or p_g < 1 or m > n or math.gcd(m, n) != 1:
            return None
    try:
        return (p_g, m, n) if recognizable_set(p_g, m, n) == values else None
    except InvalidParameters:
        return None


def check_the_fiber(values, m):
    """Row 0 holds k - 2*lambda*m for lambda < n and k - 2mn is off an odd
    genus's set, so a triple the count validates for this m has the larger
    multiplicity the set walk finds."""
    k = values[-1]
    try:
        result = RECOGNIZE._counted(Pattern(values), k, m)
    except NotAnEllipticPattern:
        return
    if result.validated:
        assert result.n == set_walk(values, k, m), (values, m)


@pytest.mark.parametrize("values", HOSTILE)
def test_fiber_walk_matches_the_set_walk_on_hostile_patterns(values):
    for m in range(1, 2 * values[-1] + 2):
        check_the_fiber(values, m)


@st.composite
def walked_patterns(draw):
    """A symmetric set and an m, or a listed odd-genus set and its own m."""
    if draw(st.booleans()):
        halves = draw(st.sets(st.integers(0, 40), min_size=1, max_size=15))
        return tuple(sorted({x for h in halves for x in (h, -h)})), draw(st.integers(1, 30))
    p_g, m, n = draw(
        st.tuples(st.integers(0, 20), st.integers(1, 12), st.integers(1, 12))
        .map(lambda t: (2 * t[0] + 1, min(t[1:]), max(t[1:])))
        .filter(lambda t: math.gcd(t[1], t[2]) == 1)
    )
    return recognizable_set(p_g, m, n), m


@given(walked_patterns())
def test_fiber_walk_matches_the_set_walk(walked):
    check_the_fiber(*walked)


@pytest.mark.parametrize("values", HOSTILE)
def test_the_count_path_matches_the_walk_on_hostile_patterns(values):
    try:
        result = recognize(Pattern(values))
    except NotAnEllipticPattern:
        counted = None
    else:
        counted = result.triple if result.validated else None
    assert counted == walked_triple(values), values


@st.composite
def near_listed(draw):
    """A symmetric set, or a listed odd-SW set with one pair removed or added."""
    if draw(st.booleans()):
        halves = draw(st.sets(st.integers(0, 60), min_size=1, max_size=20))
        return tuple(sorted({x for h in halves for x in (h, -h)}))
    p_g, m, n = draw(
        st.tuples(st.integers(1, 40), st.integers(1, 12), st.integers(1, 12))
        .map(lambda t: (t[0], min(t[1:]), max(t[1:])))
        .filter(lambda t: math.gcd(t[1], t[2]) == 1)
    )
    odd = set(recognizable_set(p_g, m, n))
    pair = abs(draw(st.sampled_from(sorted(odd)) | st.integers(-200, 200)))
    changed = odd - {pair, -pair} if pair in odd else odd | {pair, -pair}
    return tuple(sorted(changed or odd))


@pytest.mark.deep
@given(near_listed().filter(lambda values: values[-1] <= ENUMERATED_TOP))
def test_recognize_matches_a_plain_enumeration_near_listed_sets(values):
    check_against_the_enumeration(values)


def counted_calls(pattern):
    """What recognize answers, or the class and text of what it raises, and
    how many times it called recognizable_set."""
    calls = []

    def listed(*triple):
        calls.append(triple)
        return recognizable_set(*triple)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RECOGNIZE, "recognizable_set", listed)
        try:
            return recognize(pattern), len(calls)
        except (NotAnEllipticPattern, InvalidParameters) as exc:
            return (type(exc), str(exc)), len(calls)


def test_a_listed_pattern_is_recognized_by_its_size_alone():
    for triple in (*odd_coprime_grid(), (13, 1, 600), (1, 1, 1000), (5, 1, 2048), (3, 2, 3)):
        result, calls = counted_calls(Pattern(recognizable_set(*triple)))
        assert (result.triple, result.validated, calls) == (triple, True, 1)


def test_a_candidate_the_count_refutes_is_built_once_more_at_most():
    # E(1; 2, 7)'s set without +-1: 12 multiples, top 19 and m = 2 name
    # (3, 2, 3), whose set is E(3; 2, 3)'s, built once and told apart
    values = tuple(y for y in recognizable_set(1, 2, 7) if abs(y) != 1)
    diagnostic = (
        "candidate (3, 2, 3) regenerates 12 multiples with largest 19, "
        "as the input does, but holds 13 where the input holds 11"
    )
    assert counted_calls(Pattern(values)) == (RecognitionResult(3, 2, 3, False, (diagnostic,)), 1)


def test_a_pattern_past_the_listing_budget_is_answered_unvalidated(monkeypatch):
    # E(3; 2, 3)'s 12 multiples past a budget of 10: the count's candidate is
    # refused unbuilt and answered unvalidated, naming the budget
    values = recognizable_set(3, 2, 3)
    monkeypatch.setattr(LISTING, "MAX_LISTING", 10)
    diagnostic = (
        "candidate (3, 2, 3) regenerates 12 multiples, as many as the input, "
        "left unchecked: the odd-SW set would list more than 10 entries"
    )
    assert counted_calls(Pattern(values)) == (RecognitionResult(3, 2, 3, False, (diagnostic,)), 1)


def test_a_genuine_set_past_the_bits_budget_is_answered_unvalidated():
    # E(2^6990 + 1; 1, 10000): rows 0 and p_g - 1 are its only odd ones, so its
    # 20,000 multiples are +-2^6990 n + (n - 1 - 2c), too many bits to list
    n, top = 10_000, 2**6990 * 10_000
    pattern = Pattern([sign * top + n - 1 - 2 * c for sign in (1, -1) for c in range(n)])
    result = recognize(pattern)
    assert (result.triple, result.validated) == ((2**6990 + 1, 1, n), False)
    (diagnostic,) = result.diagnostics
    assert diagnostic.endswith(
        ", 1, 10000) regenerates 20000 multiples, as many as the input, left unchecked: "
        f"the odd-SW set would list more than {LISTING.MAX_LISTING_BITS} bits of keys"
    )


def test_a_genuine_pair_past_the_width_of_p_g_is_answered_unvalidated():
    # E(2^8000 + 1; 1, 1): rows 0 and 2^8000 are its odd ones, so its set is
    # {-2^8000, 2^8000}, but its p_g is wider than a triple may be
    k = 2**8000
    result = recognize(Pattern([-k, k]))
    assert (result.triple, result.validated) == ((k + 1, 1, 1), False)
    (diagnostic,) = result.diagnostics
    assert diagnostic.endswith(
        ", 1, 1) regenerates 2 multiples, as many as the input, left unchecked: "
        "p_g has more than 7000 bits"
    )


def test_even_genus_patterns_collapse_to_odd_representatives():
    # even-genus tables repeat odd-genus fingerprints; recognition lands on
    # the odd representative and validates
    assert recognize(Pattern(recognizable_set(2, 1, 1))).triple == (1, 1, 2)
    assert recognize(Pattern(recognizable_set(4, 1, 1))).triple == (1, 1, 4)
    assert recognize(Pattern(recognizable_set(6, 1, 1))).triple == (3, 1, 2)


def test_a_validated_result_has_odd_genus_on_the_coprime_grid():
    # even-genus sets are refused as not odd-genus ones, or read as an odd alias
    for p_g, m, n in coprime_grid():
        try:
            result = recognize(Pattern(recognizable_set(p_g, m, n)))
        except NotAnEllipticPattern as exc:
            assert p_g % 2 == 0 and str(exc).startswith(NOT_ODD_GENUS), (p_g, m, n)
            continue
        assert result.p_g % 2 == 1 or not result.validated, (p_g, m, n)


def test_an_even_genus_set_is_refused_as_not_odd_genus():
    with pytest.raises(NotAnEllipticPattern) as caught:
        recognize(Pattern(recognizable_set(2, 2, 3)))
    assert str(caught.value) == (
        NOT_ODD_GENUS + "no triple with m = 2 has 12 multiples and largest 13"
    )


def test_oracle_agrees_on_grid():
    for p_g, m, n in odd_coprime_grid():
        pattern = Pattern(recognizable_set(p_g, m, n))
        assert recognize_oracle(pattern, (7, 5)) == ((p_g, m, n),)


def test_oracle_default_bounds_contain_the_generator():
    assert recognize_oracle(Pattern([-2, 2])) == ((3, 1, 1),)
    assert recognize_oracle(Pattern([0])) == ((1, 1, 1),)


def test_oracle_matches_a_plain_enumeration():
    # the oracle against every odd-genus coprime triple within (11, 7), on
    # every odd set with p_g <= 11, m <= n <= 7 and each with one pair removed
    candidates = [(t, recognizable_set(*t)) for t in ORACLE_GRID if t[0] % 2]
    for multiples in grid_patterns():
        expected = tuple(t for t, odd in candidates if odd == multiples)
        assert recognize_oracle(Pattern(multiples), (11, 7)) == expected


def test_oracle_default_bounds_on_a_large_pattern():
    # default bounds (1136, 1137): only the generator passes the odd-count
    # and largest-multiple gates, so the oracle builds no other set
    pattern = Pattern(recognizable_set(15, 8, 9))
    before = _recognizable.cache_info()
    start = time.perf_counter()
    assert recognize_oracle(pattern) == ((15, 8, 9),)
    assert time.perf_counter() - start < 2
    after = _recognizable.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


def test_oracle_work_does_not_grow_with_the_top_multiple():
    # the default bounds reach p_g = 10^23 + 2; only the divisor pairs of
    # |P| = 2 are tried, so the call returns at once
    code = (
        "from swstem.recognize import Pattern, recognize_oracle; "
        "print(recognize_oracle(Pattern([-(10**23 + 1), 10**23 + 1])))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=5, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "()\n"


def test_oracle_empty_for_non_elliptic_pattern():
    assert recognize_oracle(Pattern([-3, 3]), (9, 5)) == ()


def test_oracle_bounds_validation():
    for bounds in [(0, 5), 5, (1, 2, 3), (4,)]:
        with pytest.raises(InvalidParameters):
            recognize_oracle(Pattern([0]), bounds)


@given(
    st.sets(st.integers(1, 25), max_size=6),
    st.booleans(),
)
def test_fuzz_soundness(halves, include_zero):
    """Whatever recognize returns as validated must regenerate the input."""
    values = {x for h in halves for x in (h, -h)}
    if include_zero or not values:
        values.add(0)
    pattern = Pattern(values)
    try:
        result = recognize(pattern)
    except NotAnEllipticPattern:
        return
    if result.validated:
        assert recognizable_set(*result.triple) == pattern.multiples


E3 = EllipticSurface(3, 1, 1)


def test_distinguish_same_multiset():
    assert (
        distinguish([K3, E3], [E3, K3]) is DistinctionVerdict.SAME_SUMMANDS
    )


def test_distinguish_ignores_sphere_summands():
    assert (
        distinguish([K3, HomotopySphereLike()], [K3])
        is DistinctionVerdict.SAME_SUMMANDS
    )


def test_distinguish_different_summands():
    assert distinguish([K3], [E3]) is DistinctionVerdict.DIFFERENT_SUMMANDS
    assert (
        distinguish([K3, K3], [EllipticSurface(1, 1, 2), K3])
        is DistinctionVerdict.DIFFERENT_SUMMANDS
    )


def test_distinguish_four_summands_needs_congruence():
    four_k3 = [K3] * 4
    assert distinguish(four_k3, four_k3) is DistinctionVerdict.SAME_SUMMANDS
    # four E(3)s: total b+ = 28 = 4 (mod 8), still in regime
    four_e3 = [E3] * 4
    assert distinguish(four_e3, [E3] * 3 + [K3]) is (
        DistinctionVerdict.DIFFERENT_SUMMANDS
    )
    # three K3s and one E(3): total b+ = 16 = 0 (mod 8), out on both sides
    off = [K3, K3, K3, E3]
    assert distinguish(off, off) is DistinctionVerdict.OUT_OF_REGIME


def test_distinguish_one_side_in_regime_suffices():
    assert distinguish([K3], [K3] * 5) is DistinctionVerdict.DIFFERENT_SUMMANDS


def test_distinguish_rejects_an_alien_block():
    with pytest.raises(UncataloguedBlock, match="not a catalogued building block"):
        distinguish([object()], [K3])


def test_distinguish_out_of_regime():
    assert distinguish([K3] * 5, [K3] * 5) is DistinctionVerdict.OUT_OF_REGIME
    assert (
        distinguish([EllipticSurface(2, 1, 1)], [EllipticSurface(2, 1, 1)])
        is DistinctionVerdict.OUT_OF_REGIME
    )
    assert (
        distinguish([SymplecticGeneric(3)], [K3])
        is DistinctionVerdict.OUT_OF_REGIME
    )


def test_distinguish_refuses_an_alien_after_a_non_elliptic_block():
    # a side is one sum, built whole: an alien anywhere in it is refused
    with pytest.raises(UncataloguedBlock, match="not a catalogued building block"):
        distinguish([SymplecticGeneric(3), object()], [K3])


def test_distinguish_takes_summands_as_connected_sum_does():
    assert distinguish([Summand(K3), Summand(E3, class_key=2)], [E3, K3]) is (
        DistinctionVerdict.SAME_SUMMANDS
    )
    # at class 0, E(3) has even SW: the summand-count verdict of either side is NO
    keyed = [Summand(E3, class_key=0)]
    assert distinguish(keyed, keyed) is DistinctionVerdict.OUT_OF_REGIME


def _reference_parts(side):
    """Elliptic summands after dropping neutral ones; None if anything else
    appears.  The reading of a side before it was one ``ConnectedSum``,
    taking summands too."""
    out = []
    for part in side:
        summand = part if isinstance(part, Summand) else Summand(part)
        if summand.block.neutral:
            continue
        if summand.block.tag != EllipticSurface.tag:
            return None
        out.append(summand)
    return out


def _reference_in_regime(parts):
    """The summand-count verdict of the side is YES; an empty side is in regime."""
    return not parts or nonvanishing_criteria(connected_sum(*parts)).verdict is TriState.YES


def reference_distinguish(sum_a, sum_b):
    parts_a, parts_b = _reference_parts(sum_a), _reference_parts(sum_b)
    if parts_a is None or parts_b is None:
        return DistinctionVerdict.OUT_OF_REGIME
    if not (_reference_in_regime(parts_a) or _reference_in_regime(parts_b)):
        return DistinctionVerdict.OUT_OF_REGIME
    bag_a, bag_b = (
        sorted((s.block.p_g, s.block.m, s.block.n) for s in parts) for parts in (parts_a, parts_b)
    )
    if bag_a == bag_b:
        return DistinctionVerdict.SAME_SUMMANDS
    return DistinctionVerdict.DIFFERENT_SUMMANDS


side_item = st.one_of(
    st.just(K3),
    # odd and even genus, p_g = 0 (no SW data) included
    st.builds(
        lambda p_g, mn: EllipticSurface(p_g, *mn),
        st.integers(0, 6),
        st.sampled_from([(1, 1), (1, 2), (2, 3)]),
    ),
    st.sampled_from([SymplecticGeneric(3), KaehlerGeneric(3), KaehlerGeneric(7, (0,))]),
    st.builds(NegativeDefinite, st.integers(0, 2)),
    st.just(HomotopySphereLike()),
    st.sampled_from(
        [
            Summand(K3, class_key=0),
            Summand(E3, class_key=0),  # even SW
            Summand(E3, class_key=2),  # odd SW
            Summand(NegativeDefinite(0), SpinC.from_coords(())),
            Summand(NegativeDefinite(1), SpinC.from_coords((3,))),
        ]
    ),
)
sides = st.lists(side_item, max_size=4)


@st.composite
def side_pair(draw):
    side_a = draw(sides)
    # the other side is often a reordering, so that equal bags are drawn too
    return side_a, draw(sides | st.permutations(side_a))


def _given_as(side, form):
    """A side as a list, a generator (read once, an empty one too) or its
    ``ConnectedSum`` (an empty side is S^4, the unit of the sum)."""
    if form == "generator":
        return (part for part in side)
    if form == "sum":
        return connected_sum(*(side or [HomotopySphereLike()]))
    return side


side_form = st.sampled_from(("list", "generator", "sum"))


@pytest.mark.deep
@given(side_pair(), side_form, side_form)
def test_distinguish_answers_as_the_reference_does(pair, form_a, form_b):
    sum_a, sum_b = pair
    given_a, given_b = _given_as(sum_a, form_a), _given_as(sum_b, form_b)
    assert distinguish(given_a, given_b) is reference_distinguish(sum_a, sum_b)
