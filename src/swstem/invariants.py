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
and can never vanish equivariantly.  ``distinguish`` reads this verdict and
each side's sorted summands to tell two sums of elliptic surfaces apart.

Each summand's SW parity is read once, by the summand's own check, and a sum
is sorted once, when it is built, reading those; ``invariant`` counts the
degree-1 product, not folds it.  ``invariant`` applies the summand-count
rules to two or more almost complex summands and answers a lone one from its
SW value alone (SW times a generator); ``nonvanishing_criteria`` still gives
a lone summand the summand-count verdict.

Verdicts outside the covered regime are UNKNOWN, never guesses; every
engine answer carries a trace of the rules applied.  Each ``Rule`` is
declared once in ``RULES``, with the fact it rests on and its text.  The
engine records a step per rule applied, the rule and its data (a block, not
its label), and formats no text: a ``Trace`` renders its lines on their
first read and from then on reads, compares and hashes as the tuple of
them.

The splitting obstruction (``split_verdict``, its query, verdict and kinds)
is ``swstem._split``, loaded on first use, as only ``split-check`` asks it:
its rules are declared here, so ``RULES`` is whole without it, and its four
names (``_SPLIT``) are forwarded on first read (PEP 562).
"""

from __future__ import annotations

import enum
from typing import Iterable

from ._record import record
from .blocks import _EVEN, _ODD, BuildingBlock, EllipticSurface, HomotopySphereLike
from .blocks import NegativeDefinite, _catalogued
from .errors import InvalidParameters, PositiveIndexOnNegativeDefinite, _EnumType, as_tuple, shown
from .lattice import SpinC, dirac_index, expected_dimension
from .stems import StemElement, TriState, hopf_power, smash_degree_one, unknown, zero

_YES, _NO, _UNKNOWN = TriState  # bound once: an enum lookup on its class is slow

#: every rule of the engine's traces, by id
RULES: dict[str, Rule] = {}


class Rule:
    """A trace rule: its ``id``, the ``fact`` it rests on, and its ``text``, a
    ``str.format`` template over a step's data (mapped by ``args`` first,
    where the text needs more than the data's fields)."""

    __slots__ = ("id", "fact", "text", "args")

    def __init__(self, id: str, fact: str, text: str, args=None):
        self.id, self.fact, self.text, self.args = id, fact, text, args
        RULES[id] = self

    def render(self, data: tuple) -> str:
        return self.text.format(*(data if self.args is None else self.args(*data)))


class Trace:
    """The rule trace of an engine answer: ``steps``, each a (rule, *data)
    tuple, rendered to lines of text on the first read.  It reads as, compares
    equal to and hashes like the tuple of its lines; ``+`` joins two traces'
    steps unrendered, and a trace and a tuple into a tuple."""

    __slots__ = ("steps", "_lines")

    def __init__(self, steps: tuple):
        self.steps, self._lines = steps, None

    def lines(self) -> tuple[str, ...]:
        if self._lines is None:
            self._lines = tuple(step[0].render(step[1:]) for step in self.steps)
        return self._lines

    def __len__(self) -> int:
        return len(self.steps)

    def __getitem__(self, index):
        return self.lines()[index]

    def __iter__(self):
        return iter(self.lines())

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            other = other.lines()
        return self.lines() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.lines())

    def __repr__(self) -> str:
        return repr(self.lines())

    def __add__(self, other):
        if isinstance(other, Trace):
            return Trace(self.steps + other.steps)
        return self.lines() + other

    def __radd__(self, other):
        return other + self.lines()


_COUNT = (
    "summand-count theorem: 2-4 almost complex summands give a nonzero class iff "
    "each has b+ = 3 (mod 4) and odd SW, four also need total b+ = 4 (mod 8); "
    "five or more always vanish"
)
_LONE = "a lone almost complex summand's invariant is its SW value times a generator"
_FIXED = "with no almost complex part the map has degree one on the fixed locus"
_GAMMA = "a negative definite summand of Dirac index d <= 0 gives |d| smash factors of gamma"
_HEAD = "decomposition (j1, j2) = ({0}, {1}): "
_PARITY_WORDS = {None: "undetermined", _EVEN: "even", _ODD: "odd"}

# invariant and nonvanishing_criteria
_NEUTRAL = Rule(
    "neutral-summand", "a summand with b1 = b2 = 0 contributes the identity",
    "dropped {0.label} (neutral summand)",
)
_GAMMA_FACTORS = Rule(
    "gamma-factors", _GAMMA, "{0.label}: d = {1}, contributes {2} gamma factor(s)"
)
_CONTRIBUTES = Rule(
    "stem-1-contribution",
    "an almost complex summand with b1 = 0 contributes eta when b+ = 3 (mod 4) and SW "
    "is odd, and zero in stem 1 when b+ = 1 (mod 4) or SW is even",
    "{0.label}: b+ = {1}, d = {2}, SW parity {3}, contributes {4}",
    lambda block, b_plus, d, parity, piece: (block, b_plus, d, _PARITY_WORDS[parity], piece),
)
_SMASH = Rule(
    "smash-product",
    "the invariant of a connected sum is the smash product of its summands' invariants; "
    "eta has order 2 and eta^4 = 0",
    "nonequivariant class: smash product = {0}",
)
_NEGATIVE_STEM = Rule(
    "negative-stem", "negative stems vanish",
    "gamma power {0} pushes the class into stem {1} < 0, which vanishes",
)
_GAMMA_OPEN = Rule(
    "gamma-nonequivariant-open", "no formula gives the class past gamma factors in a stem >= 0",
    "gamma power {0} > 0: no nonequivariant formula applies, class undetermined",
)
_FIXED_LOCUS = Rule(
    "fixed-locus-degree-one", _FIXED,
    "no almost complex part: the map has degree one on the fixed locus, "
    "so the equivariant class is nonzero",
)
_NO_AC = Rule(
    "no-almost-complex", _FIXED, "no almost complex summands: the identity class remains"
)
_B_PLUS_1 = Rule("b-plus-1-mod-4", _COUNT, "{0.label}: b+ = {1} = 1 (mod 4), condition fails")
_HOLDS = Rule(
    "condition-holds", _COUNT, "{0.label}: b+ = {1} = 3 (mod 4) and SW odd, condition holds"
)
_SW_EVEN = Rule("sw-even", _COUNT, "{0.label}: SW parity even, condition fails")
_SW_OPEN = Rule("sw-parity-undetermined", _COUNT, "{0.label}: SW parity undetermined")
_FIVE = Rule("five-or-more", _COUNT, "{0} >= 5 almost complex summands: the class always vanishes")
_FAILS = Rule("condition-fails", _COUNT, "a summand fails its condition, so the class vanishes")
_UNDECIDED = Rule(
    "parity-load-bearing", _COUNT, "undecided parities are load-bearing, verdict unknown"
)
_ALL_HOLD = Rule("all-hold", _COUNT, "all {0} summands satisfy the condition: nonzero")
_FOUR_READING = Rule(
    "four-summand-reading", _COUNT,
    "four-summand rule uses total b+ = 4 (mod 8); the index-divisibility "
    "reading (d divisible by 8) would demand b+ = 12 (mod 16) instead",
)
_FOUR_NONZERO = Rule("four-summand-nonzero", _COUNT, "total b+ = {0} = 4 (mod 8): nonzero")
_FOUR_VANISHES = Rule(
    "four-summand-vanishes", _COUNT, "total b+ = {0} is not 4 (mod 8): the class vanishes"
)
_LONE_SW = Rule(
    "lone-sw", _LONE, "single summand: invariant is SW times a generator, {0}",
    lambda block, class_key: (block.sw_shown(class_key),),
)
_LONE_ODD = Rule("lone-odd-sw", _LONE, "single summand: odd SW is in particular nonzero")
_LONE_OPEN = Rule(
    "lone-sw-undetermined", _LONE,
    "single summand: SW value undetermined beyond parity, equivariant verdict unknown",
)
_VANISHING_FACTOR = Rule(
    "vanishing-factor", "a smash product with a vanishing factor vanishes",
    "a vanishing factor makes the whole smash product vanish",
)
_GAMMA_KILLS = Rule(
    "gamma-equivariant-open", "no rule says when gamma factors kill an equivariant class",
    "gamma factors may or may not kill the class: equivariant verdict unknown",
)
_OUTSIDE = Rule(
    "outside-criteria", _COUNT, "not almost complex: {0}; criteria do not apply",
    lambda *negdef: (", ".join(s.block.label for s in negdef),),
)
# blowup
_BLOWUP_NEUTRAL = Rule(
    "blowup-d-zero", _GAMMA, "{0.label}: d = 0, zero gamma factors, class unchanged"
)
_BLOWUP_GAMMA = Rule(
    "blowup-gamma-factors", _GAMMA, "{0.label}: d = {1}, adds {2} gamma factor(s)"
)
_BLOWUP_FORMULA = (
    "blowup formula: SW invariants are preserved when b+ > 1 and 2|d| is at most "
    "the expected dimension k of the original sum"
)
_SW_AGREE = Rule(
    "sw-preserved", _BLOWUP_FORMULA, "2|d| = {0} <= k = {1} and b+ > 1: SW invariants agree"
)
_SW_UNSURE = Rule(
    "sw-preservation-open", _BLOWUP_FORMULA,
    "2|d| = {0} exceeds k = {1} or b+ <= 1: SW preservation unknown",
)
# split_verdict, in ``_split``
_R1 = "(R1) negative stems vanish"
_R2 = "(R2) a smash product is nonzero only if each factor is"
_R3 = "(R3) a nonzero stem-1 factor is almost complex with b+ = 3 (mod 4) and odd SW"
_R4 = "(R4) positive b+ makes the mapping degree zero, so a nonzero stem-0 factor has b+ = 0"
_QUERY = Rule(
    "split-query", "the total class is a nonzero eta^j, j = 2 or 3",
    "total class {0} is nonzero in stem {1}; query: b+(X1) = {2} (mod {3})",
)
_BOTH_NONZERO = Rule(
    "factors-nonzero", _R2, "the factors smash to a nonzero class, so both are nonzero (R2)"
)
_STEMS_ADD = Rule(
    "stem-decompositions", _R1,
    "stem degrees satisfy j1 + j2 = {0} with j1, j2 >= 0, since negative stems vanish (R1)",
)
_PARITY_CONTRADICTS = Rule(
    "stem-parity", "with b1 = 0 the stem degree 2d - b+ has the parity of b+",
    _HEAD + "contradicted, j1 has the parity of b+(X1) but {0} and {2} differ mod 2",
)
_R3_CONTRADICTS = Rule(
    "r3-contradiction", _R3,
    _HEAD + "contradicted, a nonzero degree-1 factor is almost complex "
    "with b+ = 3 (mod 4) (R3), incompatible with b+ = 1 (mod 4)",
)
_R4_CONTRADICTS = Rule(
    "r4-contradiction", _R4,
    _HEAD + "contradicted, a nonzero degree-0 factor forces b+(X1) = 0 "
    "(R4), incompatible with b+ = {2} (mod {3})",
)


def _survival_notes(j1: int, j2: int) -> tuple:
    """What a surviving decomposition forces; j <= 3, so j1 or j2 is at most
    1 and there is always a note."""
    notes = (
        "X1 must be almost complex with b+ = 3 (mod 4), odd SW (R3)" if j1 == 1 else "",
        "forces b+(X1) = 0 (R4)" if j1 == 0 else "",
        "X2 must be almost complex with b+ = 3 (mod 4), odd SW (R3)" if j2 == 1 else "",
        "forces b+(X2) = 0 (R4): the complement is negative definite" if j2 == 0 else "",
    )
    return j1, j2, "; ".join(filter(None, notes))


_SURVIVES = Rule(
    "decomposition-survives", _R3 + "; " + _R4, _HEAD + "survives; {2}", _survival_notes
)
_IMPOSSIBLE = Rule(
    "split-impossible", _R2, "every decomposition is contradicted: no such splitting exists"
)
_FORCED = Rule(
    "complement-negative-definite", _R4,
    "every surviving decomposition pins b+(X2) = 0: such a splitting "
    "forces a negative definite complement",
)
_NO_OBSTRUCTION = Rule(
    "no-obstruction", _R2, "some decomposition survives without constraint: no obstruction found"
)


@record
class Summand:
    """A building block together with its per-summand spin-c choice.

    ``spin_c`` carries the characteristic vector of a negative definite
    block (None means the unit vector, the standard blowup structure).
    ``class_key`` selects a basic class on the other blocks: a fiber
    multiple for elliptic surfaces, a declared c^2 label for Kaehler blocks,
    or ``CANONICAL`` for symplectic blocks; None means the distinguished
    class.  The check of an almost complex summand reads its block's SW
    parity at that class, the one read of it, and keeps it in ``_entry``,
    (block, b+, parity), which sums share; not a field.
    """

    block: BuildingBlock
    spin_c: SpinC | None = None
    class_key: int | str | None = None

    def __post_init__(self):
        _catalogued(self.block)  # raises UncataloguedBlock on aliens
        if self.spin_c is None and self.class_key is None:
            if self.block.almost_complex:
                block = self.block
                object.__setattr__(self, "_entry", (block, block.b_plus, block.sw_parity()))
            return  # a block alone: every summand a file without c gives
        if isinstance(self.block, NegativeDefinite):
            if self.class_key is not None:
                raise InvalidParameters(
                    "negative definite summands take spin-c data, not a class key"
                )
            if not isinstance(self.spin_c, SpinC):  # past the early return, no key means one
                raise InvalidParameters(f"spin_c must be a SpinC, got {type(self.spin_c).__name__}")
            coords = self.spin_c.c_coords
            if coords is not None and len(coords) != self.block.rank:
                raise InvalidParameters(
                    f"{len(coords)} coordinates given for a rank-{self.block.rank} block"
                )
            if not self.block.rank and self.spin_c.c_square:
                raise InvalidParameters(
                    f"c^2 = {shown(self.spin_c.c_square)} on a rank-0 block, whose only "
                    "characteristic class is c = 0"
                )
            return
        if self.spin_c is not None:
            raise InvalidParameters(
                f"{self.block.label} takes a class key, not raw spin-c data"
            )
        # validates key type and, for elliptic blocks, characteristic parity
        parity = self.block.sw_parity(self.class_key)
        if parity is None:
            raise InvalidParameters(
                f"{self.block.label} declares no SW data at class {shown(self.class_key)}"
            )
        object.__setattr__(self, "_entry", (self.block, self.block.b_plus, parity))


@record
class ConnectedSum:
    """A nonempty formal connected sum.  Its check sorts the summands once, in order, into
    ``_neutral``, ``_negdef`` and ``_ac``; ``_digest`` is each ``_ac``'s (block, b+, SW parity),
    the ``_entry`` its ``Summand`` keeps."""

    summands: tuple[Summand, ...]

    def __post_init__(self):
        items = as_tuple(self.summands, "summands")
        if not items:
            raise InvalidParameters("a connected sum needs at least one summand")
        parts = neutral, negdef, ac, digest = [], [], [], []
        for s in items:
            if not isinstance(s, Summand):
                raise InvalidParameters(f"not a summand: {shown(s)}")
            block = s.block
            if block.almost_complex:  # b+ >= 1, so never neutral
                ac.append(s)
                digest.append(s._entry)
            elif block.neutral:
                neutral.append(s)
            else:
                negdef.append(s)
        object.__setattr__(self, "summands", items)
        for name, part in zip(("_neutral", "_negdef", "_ac", "_digest"), parts):
            object.__setattr__(self, name, tuple(part))


def connected_sum(*parts) -> ConnectedSum:
    """Convenience constructor accepting bare blocks or prepared summands."""
    return ConnectedSum(tuple(p if isinstance(p, Summand) else Summand(p) for p in parts))


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
    trace: Trace | tuple[str, ...] = ()

    def __post_init__(self):
        if self.stem_degree != 2 * self.total_d - self.total_b_plus:
            raise InvalidParameters("stem degree must equal 2*total_d - total b+")
        if self.gamma_power < 0:
            raise InvalidParameters("gamma_power must be >= 0")


@record
class CriteriaResult:
    verdict: TriState
    trace: Trace | tuple[str, ...]


@record
class BlowupResult:
    invariant: InvariantClass
    sw_preserved: TriState


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


# each degree-1 contribution, built once
_ZERO_1, _ETA_1, _UNKNOWN_1 = zero(1), hopf_power(1), unknown(1)


def _criteria(ac: tuple[tuple, ...], steps: list) -> TriState:
    """The summand-count verdict on the almost complex summands; its rule
    steps go to ``steps``."""
    n = len(ac)
    if n == 0:
        steps.append((_NO_AC,))
        return _YES
    violated = undecided = False
    for block, b_plus, parity in ac:
        if b_plus % 4 == 1:
            violated = True
            steps.append((_B_PLUS_1, block, b_plus))
        elif parity is _ODD:
            steps.append((_HOLDS, block, b_plus))
        elif parity is _EVEN:
            violated = True
            steps.append((_SW_EVEN, block))
        else:
            undecided = True
            steps.append((_SW_OPEN, block))
    if n >= 5:
        steps.append((_FIVE, n))
        return _NO
    if violated:
        steps.append((_FAILS,))
        return _NO
    if undecided:
        steps.append((_UNDECIDED,))
        return _UNKNOWN
    if n <= 3:
        steps.append((_ALL_HOLD, n))
        return _YES
    total = sum(b_plus for _, b_plus, _ in ac)
    steps.append((_FOUR_READING,))
    if total % 8 == 4:
        steps.append((_FOUR_NONZERO, total))
        return _YES
    steps.append((_FOUR_VANISHES, total))
    return _NO


def invariant(csum: ConnectedSum) -> InvariantClass:
    """Invariant class of a connected sum of catalogued blocks.

    Totals d and b+ add over summands; negative definite summands raise the
    gamma power by |d| and, when that power is positive, leave the
    nonequivariant class undetermined except where the stem degree is
    negative (negative stems vanish).
    """
    steps = [(_NEUTRAL, s.block) for s in csum._neutral]
    ac = csum._digest

    total_d = total_b_plus = gamma_power = 0
    for s in csum._negdef:
        d = _negdef_index(s.block, s.spin_c)
        total_d += d
        gamma_power -= d
        steps.append((_GAMMA_FACTORS, s.block, d, -d))

    zeros = unknowns = 0
    for block, b_plus, parity in ac:
        d = (b_plus + 1) // 2  # expected dimension zero pins 2d = b+ + 1
        total_d += d
        total_b_plus += b_plus
        if b_plus % 4 == 1 or parity is _EVEN:
            piece = _ZERO_1
            zeros += 1
        elif parity is _ODD:
            piece = _ETA_1
        else:
            piece = _UNKNOWN_1
            unknowns += 1
        steps.append((_CONTRIBUTES, block, b_plus, d, parity, piece))

    stem_degree = 2 * total_d - total_b_plus

    if gamma_power == 0:
        nonequiv = smash_degree_one(len(ac), zeros, unknowns)
        steps.append((_SMASH, nonequiv))
    elif stem_degree < 0:
        nonequiv = zero(stem_degree)
        steps.append((_NEGATIVE_STEM, gamma_power, stem_degree))
    else:
        nonequiv = unknown(stem_degree)
        steps.append((_GAMMA_OPEN, gamma_power))

    if not ac:
        equivariant = _YES
        steps.append((_FIXED_LOCUS,))
    else:
        if len(ac) > 1:
            equivariant = _criteria(ac, steps)
        else:  # SW times a generator: the summand-count rules start at two
            (lone,) = csum._ac
            _, _, parity = lone._entry
            # a block without a parity has no value; a Kaehler block's is a Parity
            nonzero = None if parity is None else lone.block.sw_nonzero(lone.class_key)
            if nonzero is not None:
                equivariant = _YES if nonzero else _NO
                steps.append((_LONE_SW, lone.block, lone.class_key))
            elif parity is _ODD:
                equivariant = _YES
                steps.append((_LONE_ODD,))
            else:
                equivariant = _UNKNOWN
                steps.append((_LONE_OPEN,))
        if gamma_power and equivariant is _NO:
            steps.append((_VANISHING_FACTOR,))
        elif gamma_power:
            equivariant = _UNKNOWN
            steps.append((_GAMMA_KILLS,))

    return InvariantClass(
        total_d=total_d,
        total_b_plus=total_b_plus,
        stem_degree=stem_degree,
        nonequiv_class=nonequiv,
        equivariant_nonzero=equivariant,
        gamma_power=gamma_power,
        trace=Trace(tuple(steps)),
    )


def nonvanishing_criteria(csum: ConnectedSum) -> CriteriaResult:
    """Summand-count nonvanishing verdict for a sum of almost complex blocks.

    Neutral summands are dropped first.  Any remaining summand that is not
    almost complex puts the sum outside the criteria's regime: the verdict is
    UNKNOWN, never a guess.
    """
    steps = [(_NEUTRAL, s.block) for s in csum._neutral]
    if csum._negdef:
        steps.append((_OUTSIDE, *csum._negdef))
        return CriteriaResult(_UNKNOWN, Trace(tuple(steps)))
    verdict = _criteria(csum._digest, steps)
    return CriteriaResult(verdict, Trace(tuple(steps)))


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
        preserved = _YES
        steps = ((_BLOWUP_NEUTRAL, block),)
    else:
        nonequiv = unknown(stem_degree)  # zero in a negative stem
        # a pure negative definite sum (b+ = 0) keeps fixed-locus degree one
        if inv.total_b_plus and equivariant is not _NO:
            equivariant = _UNKNOWN
        if inv.total_b_plus > 1 and 2 * (-d) <= k:
            preserved, rule = _YES, _SW_AGREE
        else:
            preserved, rule = _UNKNOWN, _SW_UNSURE
        steps = ((_BLOWUP_GAMMA, block, d, -d), (rule, 2 * (-d), k))
    new_inv = InvariantClass(
        total_d=inv.total_d + d,
        total_b_plus=inv.total_b_plus,
        stem_degree=stem_degree,
        nonequiv_class=nonequiv,
        equivariant_nonzero=equivariant,
        gamma_power=inv.gamma_power - d,
        trace=inv.trace + Trace(steps),  # a tuple trace (one built by hand) stays a tuple
    )
    return BlowupResult(new_inv, preserved)


def odd_basic_fingerprint(csum: ConnectedSum) -> tuple[tuple[int, ...], ...]:
    """Multiset (as a sorted tuple) of the summands' odd-SW class sets.

    Elliptic summands contribute their recognizable multiples, Kaehler
    summands their declared labels; neutral summands contribute nothing.
    Blocks without complete parity data have no fingerprint, and sets past
    the listing bounds together are refused unbuilt (``odd_class_sets``).
    """
    from ._listing import odd_class_sets

    return tuple(sorted(odd_class_sets(s.block for s in csum.summands)))


class DistinctionVerdict(enum.Enum, metaclass=_EnumType):
    SAME_SUMMANDS = "same_summands"
    DIFFERENT_SUMMANDS = "different_summands"
    OUT_OF_REGIME = "out_of_regime"


def distinguish(
    sum_a: ConnectedSum | Iterable, sum_b: ConnectedSum | Iterable
) -> DistinctionVerdict:
    """Decide whether two connected sums of elliptic surfaces are built from
    the same summands, which settles their diffeomorphism type.

    A side is a ``ConnectedSum``, read as it stands, or blocks or summands,
    as ``connected_sum`` takes them, and may be empty.  Neutral summands are
    dropped first.  The classification applies when the summand-count
    verdict (``nonvanishing_criteria``'s) of at least one side is YES, that is
    at most three odd-genus surfaces or exactly four with total b+
    congruent 4 mod 8; the other side may be any sum of elliptic surfaces.
    Everything else is OUT_OF_REGIME.
    """
    # one sum per side; an empty side is S^4, the unit of the sum
    sums = [
        side if isinstance(side, ConnectedSum)
        else connected_sum(*(as_tuple(side, "a side") or (HomotopySphereLike(),)))
        for side in (sum_a, sum_b)
    ]
    bags = []
    for csum in sums:
        if csum._negdef or any(s.block.tag != EllipticSurface.tag for s in csum._ac):
            return DistinctionVerdict.OUT_OF_REGIME
        bags.append(sorted((s.block.p_g, s.block.m, s.block.n) for s in csum._ac))
    # no side has a negative definite part: this is nonvanishing_criteria's verdict
    if not any(_criteria(csum._digest, []) is _YES for csum in sums):
        return DistinctionVerdict.OUT_OF_REGIME
    if bags[0] == bags[1]:
        return DistinctionVerdict.SAME_SUMMANDS
    return DistinctionVerdict.DIFFERENT_SUMMANDS


#: the split-check names read here, each defined in ``_split``
_SPLIT = frozenset(("SplitKind", "SplitQuery", "SplitVerdict", "split_verdict"))


def __getattr__(name: str):
    if name not in _SPLIT:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _split

    value = globals()[name] = getattr(_split, name)
    return value
