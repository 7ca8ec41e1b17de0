"""Connected-sum engine: invariant classes, criteria, blowups, splittings."""

import itertools
import json
import math
import time
from collections import Counter

import pytest
from hypothesis import assume, given, strategies as st

from swstem import cli
from swstem.blocks import (
    CANONICAL,
    K3,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
    max_multiple,
    sw_parity,
)
from swstem.errors import (
    MAX_INPUT_BITS,
    MAX_SHOWN_BITS,
    InvalidParameters,
    PositiveIndexOnNegativeDefinite,
    PreconditionNotMet,
    UnknownSW,
)
from swstem.invariants import (
    RULES,
    ConnectedSum,
    InvariantClass,
    SplitKind,
    SplitQuery,
    SplitVerdict,
    Summand,
    blowup,
    connected_sum,
    invariant,
    nonvanishing_criteria,
    odd_basic_fingerprint,
    split_verdict,
)
from swstem.lattice import SpinC
from swstem.manifold_io import parse_manifold
from swstem.stems import ONE, StemKind, TriState, hopf_power, smash_all, unknown, zero

E3 = EllipticSurface(3, 1, 1)
SPHERE = HomotopySphereLike()


def test_k3_invariant_is_eta():
    inv = invariant(connected_sum(K3))
    assert inv.total_d == 2
    assert inv.total_b_plus == 3
    assert inv.stem_degree == 1
    assert inv.nonequiv_class == hopf_power(1)
    assert inv.equivariant_nonzero is TriState.YES
    assert inv.gamma_power == 0
    assert inv.trace


def test_two_k3s_give_eta_squared():
    inv = invariant(connected_sum(K3, K3))
    assert inv.stem_degree == 2
    assert inv.nonequiv_class == hopf_power(2)
    assert inv.equivariant_nonzero is TriState.YES


def test_three_k3s_give_eta_cubed():
    inv = invariant(connected_sum(K3, K3, K3))
    assert inv.nonequiv_class == hopf_power(3)
    assert inv.equivariant_nonzero is TriState.YES


def test_four_k3s_survive_equivariantly():
    # nonequivariantly the fourth Hopf power dies; the congruence
    # 12 = 4 (mod 8) keeps the equivariant class alive
    inv = invariant(connected_sum(K3, K3, K3, K3))
    assert inv.nonequiv_class == zero(4)
    assert inv.equivariant_nonzero is TriState.YES


def test_five_k3s_vanish():
    inv = invariant(connected_sum(*[K3] * 5))
    assert inv.equivariant_nonzero is TriState.NO


def test_sphere_summands_are_invisible():
    assert invariant(connected_sum(K3, SPHERE)) == invariant(connected_sum(K3))
    assert invariant(connected_sum(SPHERE, K3, SPHERE)) == invariant(
        connected_sum(K3)
    )


def test_permutation_invariance():
    assert invariant(connected_sum(E3, K3)) == invariant(connected_sum(K3, E3))


def test_sphere_only_sum_is_identity_class():
    inv = invariant(connected_sum(SPHERE))
    assert inv.stem_degree == 0
    assert inv.nonequiv_class == ONE
    assert inv.equivariant_nonzero is TriState.YES


def test_b_plus_one_summand_kills_the_class():
    # b+ = 5 is 1 mod 4: the contribution is the zero class
    inv = invariant(connected_sum(SymplecticGeneric(5), K3))
    assert inv.nonequiv_class == zero(2)
    assert inv.equivariant_nonzero is TriState.NO


def test_even_parity_summand_kills_the_class():
    inv = invariant(connected_sum(KaehlerGeneric(3), K3))  # empty odd-basic set
    assert inv.nonequiv_class == zero(2)
    assert inv.equivariant_nonzero is TriState.NO


def test_single_summand_even_class_is_still_equivariantly_nonzero():
    # SW value 2 at multiple 0: the Hopf part dies but the integer does not
    inv = invariant(ConnectedSum((Summand(E3, class_key=0),)))
    assert inv.nonequiv_class == zero(1)
    assert inv.equivariant_nonzero is TriState.YES


def test_single_summand_zero_class_vanishes():
    # multiple 4 is off the table: SW value 0
    inv = invariant(ConnectedSum((Summand(E3, class_key=4),)))
    assert inv.equivariant_nonzero is TriState.NO


def test_the_rules_read_parities_only():
    # row 10**6 - 1 at a = 5 * 10**5: the Lucas bit test, not the binomial
    p_g = 10**6
    mid = Summand(EllipticSurface(p_g, 1, 1), class_key=max_multiple(p_g, 1, 1) - p_g)
    start = time.perf_counter()
    assert nonvanishing_criteria(connected_sum(mid, K3)).verdict is TriState.NO
    assert invariant(connected_sum(mid, K3)).equivariant_nonzero is TriState.NO
    assert time.perf_counter() - start < 1


def test_a_huge_lone_sw_value_is_shown_by_its_bit_length():
    # binomial(10**5 - 1, 5 * 10**4) has about 30,000 digits, past str()'s limit
    p_g = 10**5
    mid = Summand(EllipticSurface(p_g, 1, 1), class_key=max_multiple(p_g, 1, 1) - p_g)
    inv = invariant(connected_sum(mid))
    assert inv.equivariant_nonzero is TriState.YES
    assert inv.trace[-1] == (
        f"single summand: invariant is SW times a generator, SW is nonzero and below 2^{p_g - 1}"
    )


def test_a_lone_summand_of_a_huge_genus_answers_at_once():
    # binomial(2**40, 2**39) would take 2**40 bits: its row index decides the verdict
    block = EllipticSurface(2**40 + 1, 1, 1)
    start = time.perf_counter()
    on, off = (invariant(connected_sum(Summand(block, class_key=k))) for k in (0, 2**40 + 2))
    assert time.perf_counter() - start < 1
    assert on.equivariant_nonzero is TriState.YES
    assert on.trace[-1].endswith("SW is nonzero and below 2^1099511627776")
    assert off.equivariant_nonzero is TriState.NO
    assert off.trace[-1].endswith("SW = 0")


def test_a_lone_sw_value_within_the_shown_bound_is_printed():
    # row MAX_SHOWN_BITS holds values of up to MAX_SHOWN_BITS bits, each printed
    p_g = MAX_SHOWN_BITS + 1
    mid = Summand(EllipticSurface(p_g, 1, 1), class_key=max_multiple(p_g, 1, 1) - p_g + 1)
    inv = invariant(connected_sum(mid))
    assert inv.trace[-1].endswith(f"SW = {math.comb(p_g - 1, p_g // 2)}")


def test_rational_elliptic_block_is_unknown():
    # p_g = 0 means b+ = 1: no declared SW data in the b+ = 1 chamber
    inv = invariant(connected_sum(EllipticSurface(0, 1, 1)))
    assert inv.nonequiv_class == zero(1)
    assert inv.equivariant_nonzero is TriState.UNKNOWN


def test_negative_definite_unit_vector_is_invisible():
    blown = connected_sum(K3, Summand(NegativeDefinite(1)))
    assert invariant(blown) == invariant(connected_sum(K3))


def test_negative_definite_deep_vector_adds_gamma():
    s = Summand(NegativeDefinite(1), spin_c=SpinC.from_coords((3,)))
    inv = invariant(connected_sum(K3, s))
    assert inv.total_d == 1
    assert inv.gamma_power == 1
    assert inv.stem_degree == -1
    assert inv.nonequiv_class == zero(-1)
    assert inv.equivariant_nonzero is TriState.UNKNOWN


def test_pure_negative_definite_sum_stays_nonzero():
    s = Summand(NegativeDefinite(1), spin_c=SpinC.from_coords((3,)))
    inv = invariant(connected_sum(s))
    assert inv.gamma_power == 1
    assert inv.equivariant_nonzero is TriState.YES


def test_characteristic_vector_wrong_length_rejected():
    with pytest.raises(InvalidParameters):
        Summand(NegativeDefinite(2), spin_c=SpinC.from_coords((3,)))


def test_positive_index_is_impossible():
    # rank 9, all-ones vector has c^2 = -9 and d = 0; no vector goes above
    inv = invariant(connected_sum(Summand(NegativeDefinite(9))))
    assert inv.gamma_power == 0
    with pytest.raises(PositiveIndexOnNegativeDefinite):
        # d > 0 needs c^2 > -rank, impossible for characteristic vectors,
        # so fabricate the call through a mismatched c_square directly
        invariant(
            connected_sum(Summand(NegativeDefinite(1), spin_c=SpinC(7, None)))
        )


def test_summand_validation():
    with pytest.raises(InvalidParameters):
        Summand(K3, spin_c=SpinC(0))
    with pytest.raises(InvalidParameters):
        Summand(NegativeDefinite(1), class_key=0)
    with pytest.raises(InvalidParameters):
        Summand(EllipticSurface(0, 1, 1), class_key=0)
    with pytest.raises(InvalidParameters):
        Summand(SymplecticGeneric(3), class_key=0)
    with pytest.raises(InvalidParameters):
        Summand(SPHERE, class_key=0)  # neutral: no SW data either
    Summand(SymplecticGeneric(3), class_key=CANONICAL)
    with pytest.raises(InvalidParameters):
        Summand(E3, class_key=1)  # wrong parity, not characteristic
    with pytest.raises(InvalidParameters):
        ConnectedSum(())
    with pytest.raises(InvalidParameters):
        ConnectedSum((K3,))  # bare blocks need wrapping


def test_invariant_class_consistency_enforced():
    with pytest.raises(InvalidParameters):
        InvariantClass(1, 1, 0, zero(0), TriState.NO, 0)
    with pytest.raises(InvalidParameters):
        InvariantClass(0, 0, 0, ONE, TriState.YES, -1)


def test_criteria_no_almost_complex_part():
    result = nonvanishing_criteria(connected_sum(SPHERE))
    assert result.verdict is TriState.YES


def test_criteria_negative_definite_out_of_scope():
    result = nonvanishing_criteria(connected_sum(K3, Summand(NegativeDefinite(1))))
    assert result.verdict is TriState.UNKNOWN
    assert any("criteria do not apply" in line for line in result.trace)


def test_criteria_four_summand_congruence():
    assert (
        nonvanishing_criteria(connected_sum(*[K3] * 4)).verdict is TriState.YES
    )
    # three K3s and one b+ = 7 block: total 16 = 0 (mod 8)
    mixed = connected_sum(K3, K3, K3, KaehlerGeneric(7, (0,)))
    assert nonvanishing_criteria(mixed).verdict is TriState.NO


def test_criteria_match_smash_for_two_and_three_summands():
    """Cross-module law: for 2 or 3 summands with decided parity the verdict
    is YES exactly when the smash product is a Hopf power."""
    pool = [
        K3,
        E3,
        EllipticSurface(0, 1, 1),
        SymplecticGeneric(5),
        KaehlerGeneric(3),
        KaehlerGeneric(7, (0,)),
    ]
    for size in (2, 3):
        for combo in itertools.product(pool, repeat=size):
            csum = connected_sum(*combo)
            verdict = nonvanishing_criteria(csum).verdict
            is_hopf = invariant(csum).nonequiv_class.kind is StemKind.HOPF
            assert (verdict is TriState.YES) == is_hopf


def test_blowup_with_zero_index_changes_nothing():
    inv = invariant(connected_sum(K3, K3))
    result = blowup(inv, NegativeDefinite(1))
    assert result.invariant == inv
    assert result.sw_preserved is TriState.YES


def test_blowup_within_dimension_bound_preserves_sw():
    # three K3s: stem 3, expected dimension k = 2, so 2|d| = 2 fits
    inv = invariant(connected_sum(K3, K3, K3))
    result = blowup(inv, NegativeDefinite(1), SpinC.from_coords((3,)))
    assert result.sw_preserved is TriState.YES
    assert result.invariant.stem_degree == 1
    assert result.invariant.gamma_power == 1
    assert result.invariant.nonequiv_class == unknown(1)
    assert result.invariant.equivariant_nonzero is TriState.UNKNOWN


def test_blowup_of_total_b_plus_two_within_the_bound_preserves_sw():
    # b+ = 2 > 1 and k = 2 * 3 - 2 - 1 = 3 >= 2|d| = 2; no file reaches b+ = 2
    # with k >= 2 (two b+ = 1 summands give k = 1), so the class is built by hand
    inv = InvariantClass(
        total_d=3, total_b_plus=2, stem_degree=4,
        nonequiv_class=unknown(4), equivariant_nonzero=TriState.UNKNOWN, gamma_power=0,
    )
    result = blowup(inv, NegativeDefinite(1), SpinC.from_coords((3,)))
    assert result.sw_preserved is TriState.YES
    assert result.invariant.stem_degree == 2


def test_blowup_beyond_dimension_bound_is_unknown():
    inv = invariant(connected_sum(K3))  # stem 1, k = 0
    result = blowup(inv, NegativeDefinite(1), SpinC.from_coords((3,)))
    assert result.sw_preserved is TriState.UNKNOWN
    assert result.invariant.stem_degree == -1
    assert result.invariant.nonequiv_class == zero(-1)


def test_blowup_keeps_a_vanishing_class_vanishing():
    inv = invariant(connected_sum(*[K3] * 5))
    result = blowup(inv, NegativeDefinite(1), SpinC.from_coords((3,)))
    assert result.invariant.equivariant_nonzero is TriState.NO


def test_blowup_requires_negative_definite():
    inv = invariant(connected_sum(K3))
    with pytest.raises(InvalidParameters):
        blowup(inv, K3)


#: a c^2 of rank 1 (= -1 mod 8) at the input width, and one whose d = -10**5000
#: a trace could not print
EDGE_C_SQUARE, WIDE_C_SQUARE = -(2 ** (MAX_INPUT_BITS - 1) + 1), -(8 * 10**5000 + 1)
EDGE_D = -(2 ** (MAX_INPUT_BITS - 4))
_TOO_WIDE = f"^c_square has more than {MAX_INPUT_BITS} bits$"


def test_invariant_refuses_a_c_square_past_the_input_width():
    inv = invariant(connected_sum(K3, Summand(NegativeDefinite(1), SpinC(EDGE_C_SQUARE))))
    assert (inv.total_d, inv.gamma_power) == (2 + EDGE_D, -EDGE_D)
    assert f"negative-definite(rank=1): d = {EDGE_D}, contributes" in "\n".join(inv.trace)
    with pytest.raises(InvalidParameters, match=_TOO_WIDE):
        invariant(connected_sum(K3, Summand(NegativeDefinite(1), SpinC(WIDE_C_SQUARE))))


def test_blowup_refuses_a_c_square_past_the_input_width():
    inv = invariant(connected_sum(K3))
    result = blowup(inv, NegativeDefinite(1), SpinC(EDGE_C_SQUARE))
    assert f"negative-definite(rank=1): d = {EDGE_D}, adds" in "\n".join(result.invariant.trace)
    with pytest.raises(InvalidParameters, match=_TOO_WIDE):
        blowup(inv, NegativeDefinite(1), SpinC(WIDE_C_SQUARE))


def test_split_query_validation():
    with pytest.raises(InvalidParameters):
        SplitQuery(3, 1)
    with pytest.raises(InvalidParameters):
        SplitQuery(4, 4)
    with pytest.raises(InvalidParameters):
        SplitQuery(2, -1)


@pytest.mark.parametrize("args", [(4.0, 1), (4, 1.0), (True, 1), (4, True)])
def test_split_query_rejects_non_integers(args):
    with pytest.raises(InvalidParameters, match="split queries take integers"):
        SplitQuery(*args)


def test_split_needs_a_hopf_square_or_cube():
    with pytest.raises(PreconditionNotMet):
        split_verdict(connected_sum(K3), SplitQuery(4, 1))
    with pytest.raises(PreconditionNotMet) as exc:
        split_verdict(connected_sum(*[K3] * 4), SplitQuery(4, 1))
    # stem four with a live equivariant class is still out of reach
    assert "does not feed" in str(exc.value)


def test_split_pair_residue_one_impossible():
    verdict = split_verdict(connected_sum(K3, K3), SplitQuery(4, 1))
    assert verdict.kind is SplitKind.IMPOSSIBLE
    assert verdict.trace


def test_split_triple_forces_negative_definite_complement():
    verdict = split_verdict(connected_sum(K3, K3, K3), SplitQuery(4, 1))
    assert verdict.kind is SplitKind.FORCES_NEGATIVE_DEFINITE_COMPLEMENT


def test_split_pair_residue_three_not_impossible():
    verdict = split_verdict(connected_sum(K3, K3), SplitQuery(4, 3))
    assert verdict.kind is not SplitKind.IMPOSSIBLE


def test_split_pair_odd_residue_mod_two_unconstrained():
    verdict = split_verdict(connected_sum(K3, K3), SplitQuery(2, 1))
    assert verdict.kind is SplitKind.UNKNOWN


def test_split_pair_even_residue_mod_two():
    verdict = split_verdict(connected_sum(K3, K3), SplitQuery(2, 0))
    assert verdict.kind is SplitKind.UNKNOWN


def test_a_split_verdict_without_a_trace_is_refused():
    with pytest.raises(InvalidParameters, match="^split verdicts must carry a reasoning trace$"):
        SplitVerdict(SplitKind.UNKNOWN, ())


def test_fingerprint():
    sets = odd_basic_fingerprint(connected_sum(E3, K3, SPHERE))
    assert sets == ((-2, 2), (0,))
    kaehler = KaehlerGeneric(3, (4, -4))
    assert odd_basic_fingerprint(connected_sum(kaehler)) == ((-4, 4),)


def test_fingerprint_needs_complete_data():
    with pytest.raises(UnknownSW):
        odd_basic_fingerprint(connected_sum(SymplecticGeneric(3)))
    with pytest.raises(UnknownSW):
        odd_basic_fingerprint(connected_sum(EllipticSurface(0, 1, 1)))


block_strategy = st.one_of(
    st.just(K3),
    st.just(E3),
    st.just(EllipticSurface(5, 1, 2)),
    st.just(EllipticSurface(0, 1, 1)),
    st.just(SymplecticGeneric(3)),
    st.just(SymplecticGeneric(5)),
    st.just(KaehlerGeneric(3)),
    st.just(KaehlerGeneric(7, (0,))),
    st.just(SPHERE),
    st.builds(
        Summand,
        st.just(NegativeDefinite(1)),
        st.sampled_from([None, SpinC.from_coords((3,)), SpinC.from_coords((5,))]),
    ),
)


@given(st.lists(block_strategy, min_size=1, max_size=5))
def test_invariant_bookkeeping_properties(parts):
    inv = invariant(connected_sum(*parts))
    assert inv.stem_degree == 2 * inv.total_d - inv.total_b_plus
    assert inv.gamma_power >= 0
    assert inv.trace
    if inv.gamma_power == 0 and inv.nonequiv_class.kind is not StemKind.UNKNOWN:
        assert inv.nonequiv_class.degree == inv.stem_degree
    # permutation invariance on the reversed order
    assert invariant(connected_sum(*reversed(parts))) == inv


odd_coordinate = st.integers(-4, 3).map(lambda x: 2 * x + 1)
summand_strategy = st.one_of(
    block_strategy,
    st.sampled_from(
        [Summand(E3, class_key=0), Summand(E3, class_key=4), Summand(K3, class_key=0)]
    ),
)


@st.composite
def negative_definite_choice(draw):
    rank = draw(st.integers(0, 3))
    coords = st.lists(odd_coordinate, min_size=rank, max_size=rank).map(SpinC.from_coords)
    # c^2 alone, without coordinates: characteristic at rank >= 1, and c = 0 alone at rank 0
    bare = st.integers(0, 3).map(lambda k: SpinC(-rank - 8 * k))
    return NegativeDefinite(rank), draw(st.none() | coords | bare)


def _refusal_or(call):
    """What ``call()`` returns, or the message of the InvalidParameters it raises."""
    try:
        return call()
    except InvalidParameters as exc:
        return str(exc)


@pytest.mark.deep
@given(st.lists(summand_strategy, min_size=1, max_size=5), negative_definite_choice())
def test_blowup_agrees_with_summing_the_block(parts, choice):
    block, spin_c = choice
    blown = _refusal_or(lambda: blowup(invariant(connected_sum(*parts)), block, spin_c).invariant)
    summed = _refusal_or(lambda: invariant(connected_sum(*parts, Summand(block, spin_c))))
    assert blown == summed


def test_a_rank_zero_block_takes_c_zero_alone():
    inv = invariant(connected_sum(K3, K3))
    refusal = "c^2 = -8 on a rank-0 block, whose only characteristic class is c = 0"
    assert _refusal_or(lambda: blowup(inv, NegativeDefinite(0), SpinC(-8))) == refusal
    assert _refusal_or(lambda: Summand(NegativeDefinite(0), SpinC(-8))) == refusal
    for spin_c in (SpinC(0), SpinC.from_coords(())):
        blown = blowup(inv, NegativeDefinite(0), spin_c)
        assert blown.sw_preserved is TriState.YES
        summed = invariant(connected_sum(K3, K3, Summand(NegativeDefinite(0), spin_c)))
        assert blown.invariant == summed == inv


@given(st.lists(summand_strategy, min_size=1, max_size=6))
def test_criteria_agree_with_invariant_off_one_summand(parts):
    csum = connected_sum(*parts)
    blocks = [s.block for s in csum.summands]
    assume(not any(isinstance(b, NegativeDefinite) for b in blocks))
    assume(sum(b.almost_complex for b in blocks) != 1)
    verdict = nonvanishing_criteria(csum).verdict
    assert verdict is invariant(csum).equivariant_nonzero


# One walk: a sum is sorted and digested once, by ConnectedSum's check, and
# the degree-1 product is counted, not folded.

no_gamma_summand = st.one_of(
    summand_strategy.filter(lambda part: getattr(part, "spin_c", None) is None),
    st.builds(NegativeDefinite, st.integers(0, 3)),  # the unit vector: d = 0
)


@pytest.mark.deep
@given(st.lists(no_gamma_summand, min_size=1, max_size=12))
def test_the_counted_product_is_the_smash_of_the_contributions(parts):
    inv = invariant(connected_sum(*parts))
    assert inv.gamma_power == 0
    contributes = RULES["stem-1-contribution"]
    pieces = [step[5] for step in inv.trace.steps if step[0] is contributes]
    assert inv.nonequiv_class == smash_all(pieces)


@pytest.mark.deep
@given(st.lists(summand_strategy, min_size=1, max_size=12))
def test_a_sum_sorts_its_summands_once_in_order(parts):
    csum = connected_sum(*parts)
    groups = [list(csum._neutral), list(csum._negdef), list(csum._ac)]
    assert all(s.block.neutral for s in groups[0])
    assert not any(s.block.neutral or s.block.almost_complex for s in groups[1])
    assert all(s.block.almost_complex for s in groups[2])
    # the parts interleave back into the summands: equal summands share a part
    for s in csum.summands:
        (group,) = [group for group in groups if group and group[0] == s]
        assert group.pop(0) is s
    assert groups == [[], [], []]
    assert csum._digest == tuple(
        (s.block, s.block.b_plus, sw_parity(s.block, s.class_key)) for s in csum._ac
    )
    assert all(entry is s._entry for s, entry in zip(csum._ac, csum._digest))  # shared
    # none of it is a field: equality, hash and repr read the summands alone
    twin = connected_sum(*parts)
    assert twin == csum and hash(twin) == hash(csum)
    assert repr(csum) == f"ConnectedSum(summands={csum.summands!r})"
    assert ConnectedSum._record_fields == ("summands",)


@pytest.fixture
def parity_reads(monkeypatch):
    """The blocks whose ``sw_parity`` is read from here on, in order."""
    asked = []
    for kind in (EllipticSurface, SymplecticGeneric, KaehlerGeneric):

        def counted(block, class_key=None, _read=kind.sw_parity):
            asked.append(block)
            return _read(block, class_key)

        monkeypatch.setattr(kind, "sw_parity", counted)
    return asked


# each case builds its summands, keyed ones too, once the reads are counted
@pytest.mark.parametrize(
    "parts",
    [
        lambda: (K3, SPHERE, Summand(E3, class_key=0), NegativeDefinite(2), SymplecticGeneric(5)),
        lambda: (K3, K3, KaehlerGeneric(7, (0,)), SPHERE),
        lambda: (Summand(E3, class_key=4), NegativeDefinite(0)),  # a lone almost complex summand
        lambda: (SPHERE, NegativeDefinite(1)),
    ],
    ids=["mixed", "no-negdef", "lone", "no-almost-complex"],
)
def test_each_parity_is_read_once_per_summand(parts, parity_reads):
    summands = [p if isinstance(p, Summand) else Summand(p) for p in parts()]
    csum = ConnectedSum(tuple(summands))
    invariant(csum)
    nonvanishing_criteria(csum)
    # the lambda builds its keyed summands before the comprehension wraps the blocks
    assert Counter(parity_reads) == Counter(s.block for s in summands if s.block.almost_complex)


def test_each_parity_is_read_once_per_summand_of_two_files(
    tmp_path, no_summand_held, parity_reads, capsys
):
    e3 = {"type": "elliptic", "p_g": 3, "m": 1, "n": 1}
    e523 = {"type": "elliptic", "p_g": 5, "m": 2, "n": 3}
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps({"summands": [e3, {"type": "s4"}, e523]}))
    paths[1].write_text(json.dumps({"summands": [e523, e3]}))
    for _ in range(2):
        assert cli.main(["distinguish", *map(str, paths)]) == 0
        assert capsys.readouterr().out == "verdict: same_summands\n"
    # each distinct almost complex summand, read as it is first parsed: the
    # second file and the second call hold both; distinguish reads none
    assert parity_reads == [E3, EllipticSurface(5, 2, 3)]


def test_a_repeated_summand_of_a_file_is_built_once(no_summand_held, monkeypatch):
    built = []
    check = EllipticSurface.__post_init__

    def counted(block):
        built.append(block)
        check(block)

    monkeypatch.setattr(EllipticSurface, "__post_init__", counted)
    e312 = {"type": "elliptic", "p_g": 3, "m": 1, "n": 2}
    doc = parse_manifold(json.dumps({"summands": [e312] * 32}))
    assert len(built) == 1  # not one per copy: the first copy is held
    assert len(set(map(id, doc.summands))) == 1
    assert doc.summands[0] == Summand(EllipticSurface(3, 1, 2))


def test_each_file_of_two_is_summed_once(tmp_path, monkeypatch, capsys):
    built = []
    check = ConnectedSum.__post_init__

    def counted(csum):
        built.append(csum)
        check(csum)

    monkeypatch.setattr(ConnectedSum, "__post_init__", counted)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(json.dumps({"summands": [{"type": "k3"}, {"type": "s4"}]}))
    paths[1].write_text(json.dumps({"summands": [{"type": "elliptic", "p_g": 3, "m": 1, "n": 1}]}))
    assert cli.main(["distinguish", *map(str, paths)]) == 0
    assert capsys.readouterr().out == "verdict: different_summands\n"
    # the sum each file's check built is the one distinguish reads
    assert len(built) == 2
