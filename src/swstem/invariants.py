"""Connected-sum invariants in the truncated stable stems.

The invariant of a connected sum is the smash product of the summands'
invariants.  For the catalogued blocks this reduces to bookkeeping:

* an almost complex summand with b1 = 0 contributes the Hopf class eta when
  b+ is 3 mod 4 and its SW value at the chosen class is odd, the zero class
  in degree 1 when b+ is 1 mod 4 or the SW value is even, and an unknown
  otherwise;
* a negative definite summand with Dirac index d <= 0 contributes |d| smash
  factors of the compactified-inclusion class gamma and nothing else (d = 0
  summands are invisible);
* sphere-like summands (b1 = b2 = 0) contribute the identity and are dropped.

The equivariant nonvanishing verdict follows the summand-count criteria: for
two or three almost complex summands the class is nonzero iff every summand
has b+ congruent 3 mod 4 with odd SW; for four summands the total b+ must
additionally be congruent 4 mod 8; five or more summands always vanish.
Sums with no almost complex part restrict with degree one to the fixed locus
and can never vanish equivariantly.

``invariant`` and ``nonvanishing_criteria`` make one pass over the summands,
reading each almost complex block's SW parity once, and apply the same rules.
They differ in one branch: on a lone almost complex summand ``invariant``
answers from the exact SW value (the invariant is SW times a generator),
while ``nonvanishing_criteria`` keeps the summand-count verdict.

Verdicts outside the covered regime are UNKNOWN, never guesses; every
engine answer carries a human-readable trace of the rules applied.
"""

from __future__ import annotations

import enum

from ._record import record
from .blocks import BuildingBlock, NegativeDefinite, Parity, _catalogued, shown
from .errors import InvalidParameters, PositiveIndexOnNegativeDefinite, PreconditionNotMet
from .lattice import SpinC, dirac_index, expected_dimension
from .stems import StemElement, StemKind, TriState, hopf_power, smash_all, unknown, zero


@record
class Summand:
    """A building block together with its per-summand spin-c choice.

    ``spin_c`` carries the characteristic vector of a negative definite
    block (None means the unit vector, the standard blowup structure).
    ``class_key`` selects a basic class on the other blocks: a fiber
    multiple for elliptic surfaces, a declared c^2 label for Kaehler blocks,
    or ``CANONICAL`` for symplectic blocks; None means the distinguished
    class.
    """

    block: BuildingBlock
    spin_c: SpinC | None = None
    class_key: int | str | None = None

    def __post_init__(self):
        _catalogued(self.block)  # raises UncataloguedBlock on aliens
        if isinstance(self.block, NegativeDefinite):
            if self.class_key is not None:
                raise InvalidParameters(
                    "negative definite summands take spin-c data, not a class key"
                )
            coords = None if self.spin_c is None else self.spin_c.c_coords
            if coords is not None and len(coords) != self.block.rank:
                raise InvalidParameters(
                    f"{len(coords)} coordinates given for a rank-{self.block.rank} block"
                )
            return
        if self.spin_c is not None:
            raise InvalidParameters(
                f"{self.block.label} takes a class key, not raw spin-c data"
            )
        if self.class_key is None:
            return
        # validates key type and, for elliptic blocks, characteristic parity
        if self.block.sw_parity(self.class_key) is None:
            raise InvalidParameters(
                f"{self.block.label} declares no SW data at class {shown(self.class_key)}"
            )


@record
class ConnectedSum:
    """A nonempty formal connected sum of summands."""

    summands: tuple[Summand, ...]

    def __post_init__(self):
        items = tuple(self.summands)
        if not items:
            raise InvalidParameters("a connected sum needs at least one summand")
        for s in items:
            if not isinstance(s, Summand):
                raise InvalidParameters(f"not a summand: {s!r}")
        object.__setattr__(self, "summands", items)


def connected_sum(*parts) -> ConnectedSum:
    """Convenience constructor accepting bare blocks or prepared summands."""
    out = []
    for p in parts:
        out.append(p if isinstance(p, Summand) else Summand(p))
    return ConnectedSum(tuple(out))


@record(uncompared=("trace",))
class InvariantClass:
    """The invariant of a connected sum, with its bookkeeping.

    ``stem_degree`` is always 2 * total_d - total b+ (the b1 = 0 stem), and
    equals the degree of ``nonequiv_class`` whenever that class is
    determined.  ``gamma_power`` counts the compactified-inclusion smash
    factors coming from negative definite summands.  The trace does not
    participate in equality.
    """

    total_d: int
    total_b_plus: int
    stem_degree: int
    nonequiv_class: StemElement
    equivariant_nonzero: TriState
    gamma_power: int
    trace: tuple[str, ...] = ()

    def __post_init__(self):
        if self.stem_degree != 2 * self.total_d - self.total_b_plus:
            raise InvalidParameters("stem degree must equal 2*total_d - total b+")
        if self.gamma_power < 0:
            raise InvalidParameters("gamma_power must be >= 0")


@record
class CriteriaResult:
    verdict: TriState
    trace: tuple[str, ...]


@record
class BlowupResult:
    invariant: InvariantClass
    sw_preserved: TriState


class SplitKind(enum.Enum):
    IMPOSSIBLE = "impossible"
    FORCES_NEGATIVE_DEFINITE_COMPLEMENT = "forces_negative_definite_complement"
    UNKNOWN = "unknown"


@record
class SplitQuery:
    """Congruence constraint b+(X1) = residue (mod modulus) on a hypothetical
    splitting X = X1 # X2.  b1 of both parts is zero automatically, since the
    engine only forms sums of b1 = 0 blocks and first Betti numbers add."""

    modulus: int
    residue: int

    def __post_init__(self):
        for value in (self.modulus, self.residue):
            if type(value) is not int:
                raise InvalidParameters(f"split queries take integers, got {value!r}")
        if self.modulus not in (2, 4):
            raise InvalidParameters(f"modulus must be 2 or 4, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise InvalidParameters(
                f"residue must lie in [0, {self.modulus}), got {self.residue}"
            )


@record
class SplitVerdict:
    kind: SplitKind
    trace: tuple[str, ...]

    def __post_init__(self):
        if not self.trace:
            raise InvalidParameters("split verdicts must carry a reasoning trace")


def _negdef_index(block: NegativeDefinite, spin_c: SpinC | None) -> int:
    if spin_c is None:
        return 0  # the unit vector: c^2 = -rank is the signature
    d = dirac_index(spin_c.c_square, -block.rank)
    if d > 0:
        raise PositiveIndexOnNegativeDefinite(
            f"c^2 = {spin_c.c_square} on {block.label} gives d = {d} > 0; "
            "no characteristic vector does this"
        )
    return d


def _walk(csum: ConnectedSum, trace: list[str]) -> tuple[list[Summand], list[Summand]]:
    """One pass over the summands: drop neutral (b1 = b2 = 0) blocks and
    return the negative definite and the almost complex summands."""
    negdef, ac = [], []
    for s in csum.summands:
        block = s.block
        if block.almost_complex:  # b+ >= 1, so never neutral
            ac.append(s)
        elif block.neutral:
            trace.append(f"dropped {block.label} (neutral summand)")
        else:
            negdef.append(s)
    return negdef, ac


def _digest(ac: list[Summand]) -> list[tuple]:
    """(label, b+, SW parity) of each summand: b+ is every almost complex
    block's own ``b_plus``, the parity a Lucas bit test."""
    return [
        (s.block.label, s.block.b_plus, s.block.sw_parity(s.class_key))
        for s in ac
    ]


def _parity_word(parity: Parity | None) -> str:
    return "undetermined" if parity is None else str(parity)


def _criteria(ac: list[tuple], trace: list[str]) -> TriState:
    """The summand-count verdict on the almost complex summands; its rule
    lines go to ``trace``."""
    n = len(ac)
    if n == 0:
        trace.append("no almost complex summands: the identity class remains")
        return TriState.YES
    violated = undecided = False
    for label, b_plus, parity in ac:
        if b_plus % 4 == 1:
            violated = True
            trace.append(f"{label}: b+ = {b_plus} = 1 (mod 4), condition fails")
        elif parity is Parity.ODD:
            trace.append(
                f"{label}: b+ = {b_plus} = 3 (mod 4) and SW odd, condition holds"
            )
        elif parity is Parity.EVEN:
            violated = True
            trace.append(f"{label}: SW parity even, condition fails")
        else:
            undecided = True
            trace.append(f"{label}: SW parity undetermined")
    if n >= 5:
        trace.append(f"{n} >= 5 almost complex summands: the class always vanishes")
        return TriState.NO
    if violated:
        trace.append("a summand fails its condition, so the class vanishes")
        return TriState.NO
    if undecided:
        trace.append("undecided parities are load-bearing, verdict unknown")
        return TriState.UNKNOWN
    if n <= 3:
        trace.append(f"all {n} summands satisfy the condition: nonzero")
        return TriState.YES
    total = sum(b_plus for _, b_plus, _ in ac)
    trace.append(
        "four-summand rule uses total b+ = 4 (mod 8); the index-divisibility "
        "reading (d divisible by 8) would demand b+ = 12 (mod 16) instead"
    )
    if total % 8 == 4:
        trace.append(f"total b+ = {total} = 4 (mod 8): nonzero")
        return TriState.YES
    trace.append(f"total b+ = {total} is not 4 (mod 8): the class vanishes")
    return TriState.NO


def invariant(csum: ConnectedSum) -> InvariantClass:
    """Invariant class of a connected sum of catalogued blocks.

    Totals d and b+ add over summands; negative definite summands raise the
    gamma power by |d| and, when that power is positive, leave the
    nonequivariant class undetermined except where the stem degree is
    negative (negative stems vanish).
    """
    trace: list[str] = []
    negdef, summands = _walk(csum, trace)
    ac = _digest(summands)

    total_d = 0
    total_b_plus = 0
    gamma_power = 0
    for s in negdef:
        d = _negdef_index(s.block, s.spin_c)
        total_d += d
        gamma_power -= d
        trace.append(
            f"{s.block.label}: d = {d}, contributes {-d} gamma factor(s)"
        )

    contributions = []
    for label, b_plus, parity in ac:
        d = (b_plus + 1) // 2  # expected dimension zero pins 2d = b+ + 1
        total_d += d
        total_b_plus += b_plus
        if b_plus % 4 == 1 or parity is Parity.EVEN:
            piece = zero(1)
        else:
            piece = hopf_power(1) if parity is Parity.ODD else unknown(1)
        contributions.append(piece)
        trace.append(
            f"{label}: b+ = {b_plus}, d = {d}, "
            f"SW parity {_parity_word(parity)}, contributes {piece}"
        )

    stem_degree = 2 * total_d - total_b_plus

    if gamma_power == 0:
        nonequiv = smash_all(contributions)
        trace.append(f"nonequivariant class: smash product = {nonequiv}")
    elif stem_degree < 0:
        nonequiv = zero(stem_degree)
        trace.append(
            f"gamma power {gamma_power} pushes the class into stem {stem_degree} < 0, "
            "which vanishes"
        )
    else:
        nonequiv = unknown(stem_degree)
        trace.append(
            f"gamma power {gamma_power} > 0: no nonequivariant formula applies, "
            "class undetermined"
        )

    if not ac:
        equivariant = TriState.YES
        trace.append(
            "no almost complex part: the map has degree one on the fixed locus, "
            "so the equivariant class is nonzero"
        )
    else:
        equivariant = _criteria(ac, trace)
        if len(ac) == 1:
            (_, _, parity), (lone,) = ac[0], summands
            # a block without a parity has no value; a Kaehler block's is a Parity
            sw = None if parity is None else lone.block.sw_value(lone.class_key)
            if isinstance(sw, int):
                equivariant = TriState.YES if sw != 0 else TriState.NO
                trace.append(
                    f"single summand: invariant is SW times a generator, SW = {shown(sw)}"
                )
            elif parity is Parity.ODD:
                equivariant = TriState.YES
                trace.append("single summand: odd SW is in particular nonzero")
            else:
                equivariant = TriState.UNKNOWN
                trace.append(
                    "single summand: SW value undetermined beyond parity, "
                    "equivariant verdict unknown"
                )
        if gamma_power and equivariant is TriState.NO:
            trace.append("a vanishing factor makes the whole smash product vanish")
        elif gamma_power:
            equivariant = TriState.UNKNOWN
            trace.append(
                "gamma factors may or may not kill the class: equivariant verdict unknown"
            )

    return InvariantClass(
        total_d=total_d,
        total_b_plus=total_b_plus,
        stem_degree=stem_degree,
        nonequiv_class=nonequiv,
        equivariant_nonzero=equivariant,
        gamma_power=gamma_power,
        trace=tuple(trace),
    )


def nonvanishing_criteria(csum: ConnectedSum) -> CriteriaResult:
    """Summand-count nonvanishing verdict for a sum of almost complex blocks.

    Neutral summands are dropped first.  Any remaining summand that is not
    almost complex puts the sum outside the criteria's regime: the verdict is
    UNKNOWN, never a guess.
    """
    trace: list[str] = []
    negdef, ac = _walk(csum, trace)
    if negdef:
        labels = ", ".join(s.block.label for s in negdef)
        trace.append(f"not almost complex: {labels}; criteria do not apply")
        return CriteriaResult(TriState.UNKNOWN, tuple(trace))
    verdict = _criteria(_digest(ac), trace)
    return CriteriaResult(verdict, tuple(trace))


def blowup(
    inv: InvariantClass, block: NegativeDefinite, spin_c: SpinC | None = None
) -> BlowupResult:
    """Sum an existing invariant with a negative definite block.

    The class gains |d| gamma factors.  The integer SW invariant is reported
    preserved for d = 0 (the class is literally unchanged) and for d < 0
    when total b+ exceeds 1 and 2|d| is at most the expected dimension of the
    original sum; otherwise preservation is unknown.
    """
    if not isinstance(block, NegativeDefinite):
        raise InvalidParameters("blowup blocks must be negative definite")
    Summand(block, spin_c)  # checks the coordinates against the rank
    d = _negdef_index(block, spin_c)
    k = expected_dimension(inv.total_d, inv.total_b_plus, 0)  # of the original sum
    stem_degree = inv.stem_degree + 2 * d
    nonequiv, equivariant = inv.nonequiv_class, inv.equivariant_nonzero
    if d == 0:
        preserved = TriState.YES
        notes = (f"{block.label}: d = 0, zero gamma factors, class unchanged",)
    else:
        nonequiv = unknown(stem_degree)  # zero in a negative stem
        # a pure negative definite sum (b+ = 0) keeps fixed-locus degree one
        if inv.total_b_plus and equivariant is not TriState.NO:
            equivariant = TriState.UNKNOWN
        if inv.total_b_plus > 1 and 2 * (-d) <= k:
            preserved = TriState.YES
            note = f"2|d| = {2 * (-d)} <= k = {k} and b+ > 1: SW invariants agree"
        else:
            preserved = TriState.UNKNOWN
            note = f"2|d| = {2 * (-d)} exceeds k = {k} or b+ <= 1: SW preservation unknown"
        notes = (f"{block.label}: d = {d}, adds {-d} gamma factor(s)", note)
    new_inv = InvariantClass(
        total_d=inv.total_d + d,
        total_b_plus=inv.total_b_plus,
        stem_degree=stem_degree,
        nonequiv_class=nonequiv,
        equivariant_nonzero=equivariant,
        gamma_power=inv.gamma_power - d,
        trace=inv.trace + notes,
    )
    return BlowupResult(new_inv, preserved)


def split_verdict(csum: ConnectedSum, query: SplitQuery) -> SplitVerdict:
    """Decide whether X can split as X1 # X2 with b+(X1) in the queried
    congruence class, given that the total nonequivariant class is a Hopf
    power eta^j with j in {2, 3}.

    The analysis runs over the stem-degree decompositions j = j1 + j2 with
    these rules: (R1) negative stems vanish, so both degrees are >= 0;
    (R2) the smash of the factors is nonzero, so each factor is nonzero;
    (R3) a nonzero factor in degree 1 forces an almost complex manifold with
    b+ = 3 (mod 4) and odd SW; (R4) a nonzero factor in degree 0 forces
    b+ = 0 on that part, since positive b+ makes its mapping degree zero.
    IMPOSSIBLE means every decomposition is contradicted; the complement is
    forced negative definite when every surviving decomposition pins
    b+(X2) = 0.
    """
    inv = invariant(csum)
    cls = inv.nonequiv_class
    if cls.kind is not StemKind.HOPF or cls.degree not in (2, 3):
        message = (
            f"splitting analysis needs a total class eta^2 or eta^3, got {cls} "
            f"in stem {inv.stem_degree}"
        )
        if inv.stem_degree == 4 and inv.equivariant_nonzero is TriState.YES:
            message += (
                "; the four-summand equivariant nonvanishing does not feed "
                "this obstruction"
            )
        raise PreconditionNotMet(message)

    j = cls.degree
    mod, res = query.modulus, query.residue
    trace: list[str] = [
        f"total class {cls} is nonzero in stem {j}; query: b+(X1) = {res} (mod {mod})",
        "the factors smash to a nonzero class, so both are nonzero (R2)",
        "stem degrees satisfy j1 + j2 = "
        f"{j} with j1, j2 >= 0, since negative stems vanish (R1)",
    ]
    survivors = 0
    all_pin_complement = True
    for j1 in range(j + 1):
        j2 = j - j1
        head = f"decomposition (j1, j2) = ({j1}, {j2})"
        # b1 = 0 on both parts, so j_i = 2 d_i - b+(X_i) has the parity of b+(X_i)
        if j1 % 2 != res % 2:
            trace.append(
                f"{head}: contradicted, j1 has the parity of b+(X1) "
                f"but {j1} and {res} differ mod 2"
            )
            continue
        if j1 == 1 and mod == 4 and res == 1:
            trace.append(
                f"{head}: contradicted, a nonzero degree-1 factor is almost complex "
                "with b+ = 3 (mod 4) (R3), incompatible with b+ = 1 (mod 4)"
            )
            continue
        if j1 == 0 and res != 0:
            trace.append(
                f"{head}: contradicted, a nonzero degree-0 factor forces b+(X1) = 0 "
                f"(R4), incompatible with b+ = {res} (mod {mod})"
            )
            continue
        survivors += 1
        notes = []
        if j1 == 1:
            notes.append("X1 must be almost complex with b+ = 3 (mod 4), odd SW (R3)")
        if j1 == 0:
            notes.append("forces b+(X1) = 0 (R4)")
        if j2 == 1:
            notes.append("X2 must be almost complex with b+ = 3 (mod 4), odd SW (R3)")
        if j2 == 0:
            notes.append("forces b+(X2) = 0 (R4): the complement is negative definite")
        else:
            all_pin_complement = False
        if notes:
            trace.append(f"{head}: survives; " + "; ".join(notes))
        else:
            trace.append(f"{head}: survives without further constraint")

    if survivors == 0:
        trace.append("every decomposition is contradicted: no such splitting exists")
        return SplitVerdict(SplitKind.IMPOSSIBLE, tuple(trace))
    if all_pin_complement:
        trace.append(
            "every surviving decomposition pins b+(X2) = 0: such a splitting "
            "forces a negative definite complement"
        )
        return SplitVerdict(
            SplitKind.FORCES_NEGATIVE_DEFINITE_COMPLEMENT, tuple(trace)
        )
    trace.append("some decomposition survives without constraint: no obstruction found")
    return SplitVerdict(SplitKind.UNKNOWN, tuple(trace))


def odd_basic_fingerprint(csum: ConnectedSum) -> tuple[tuple[int, ...], ...]:
    """Multiset (as a sorted tuple) of the summands' odd-SW class sets.

    Elliptic summands contribute their recognizable multiples, Kaehler
    summands their declared labels; neutral summands contribute nothing.
    Blocks without complete parity data have no fingerprint.
    """
    sets = [s.block.odd_classes() for s in csum.summands if not s.block.neutral]
    return tuple(sorted(sets))
