"""The truncated stable stems pi_0 .. pi_3 under smash product.

Degree 0 holds honest integers (mapping degrees), degrees 1..3 hold powers of
the Hopf class eta (each of order two), degree 4 and above collapse to zero or
an explicit unknown, and negative degrees are zero.  This is precisely the
fragment needed to multiply connected-sum invariants: eta^2 and eta^3 are the
nonzero products, eta^4 vanishes.

All values are immutable; ``smash`` is commutative and associative on the
non-unknown fragment and an unknown operand makes the product unknown.
"""

from __future__ import annotations

import enum

from ._record import record
from .errors import InvalidParameters, exact_int, shown

_SUPERSCRIPTS = {1: "η", 2: "η²", 3: "η³"}


class TriState(enum.Enum):
    """Three-valued verdict used throughout the engine."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.name


class StemKind(enum.Enum):
    INTEGER = "integer"
    HOPF = "hopf"
    ZERO = "zero"
    UNKNOWN = "unknown"


# bound once: looking an enum member up on its class is slow in smash
_INTEGER, _HOPF, _ZERO, _UNKNOWN = StemKind


@record
class StemElement:
    """An element of a truncated stable stem.

    ``value`` is only populated for integer classes in degree 0.  Hopf powers
    carry their exponent in ``degree``.  Invariants: integer classes live in
    degree 0, Hopf powers in degrees 1..3, negative degrees are zero, and
    degrees above 3 are zero or unknown.
    """

    kind: StemKind
    degree: int
    value: int | None = None

    def __post_init__(self):
        exact_int(self.degree, "stem degree")
        if self.kind is StemKind.INTEGER:
            exact_int(self.value, "integer class value")
            if self.degree != 0:
                raise InvalidParameters("integer classes live in degree 0")
        elif self.kind is StemKind.HOPF:
            if self.degree not in (1, 2, 3) or self.value is not None:
                raise InvalidParameters("Hopf powers exist in degrees 1..3 only")
        else:
            if self.kind is not _ZERO and self.kind is not _UNKNOWN:
                raise InvalidParameters(f"stem kind must be a StemKind, got {shown(self.kind)}")
            if self.value is not None:
                raise InvalidParameters(f"{self.kind.value} carries no value")
            if self.kind is StemKind.UNKNOWN and self.degree < 0:
                raise InvalidParameters("negative stems vanish; use zero()")

    def __str__(self) -> str:
        if self.kind is StemKind.INTEGER:
            return str(self.value)
        if self.kind is StemKind.HOPF:
            return _SUPERSCRIPTS[self.degree]
        if self.kind is StemKind.ZERO:
            return "0"
        return "unknown"


# prebuilt values for the Hopf powers and the degrees sums usually reach
_HOPFS = {j: StemElement(_HOPF, j) for j in (1, 2, 3)}
_ZEROS = {d: StemElement(_ZERO, d) for d in range(-16, 17)}
_UNKNOWNS = {d: StemElement(_UNKNOWN, d) for d in range(17)}


def integer_class(value: int) -> StemElement:
    """An integer in the zeroth stem."""
    return StemElement(_INTEGER, 0, value)  # checks the value


def hopf_power(j: int) -> StemElement:
    """eta^j for j in {1, 2, 3}."""
    if type(j) is not int or j not in _HOPFS:
        got = shown(j) if type(j) is int else j
        raise InvalidParameters(f"Hopf powers exist in degrees 1..3 only, got {got}")
    return _HOPFS[j]


def zero(degree: int) -> StemElement:
    """The zero class in any degree."""
    exact_int(degree, "stem degree")
    return _ZEROS.get(degree) or StemElement(_ZERO, degree)


def unknown(degree: int) -> StemElement:
    """An undetermined class; normalizes to zero in negative degrees."""
    exact_int(degree, "stem degree")
    if degree < 0:
        return zero(degree)
    return _UNKNOWNS.get(degree) or StemElement(_UNKNOWN, degree)


ETA = hopf_power(1)
ONE = integer_class(1)
_ETA_POWERS = ONE, ETA, _HOPFS[2], _HOPFS[3]  # eta^n, n <= 3


def smash(x: StemElement, y: StemElement) -> StemElement:
    """Smash product of two truncated stem elements.

    Degrees add.  Integers multiply; an integer acts on a Hopf power through
    its parity (eta has order two); Hopf powers multiply until the exponent
    exceeds three, where the product vanishes.  Any unknown operand makes the
    result unknown at the summed degree.

    >>> smash(hopf_power(1), hopf_power(1)) == hopf_power(2)
    True
    >>> str(smash(integer_class(2), hopf_power(1)))
    '0'
    """
    deg = x.degree + y.degree
    # order matters: unknown absorbs before zero
    if x.kind is _UNKNOWN or y.kind is _UNKNOWN:
        return unknown(deg)
    if x.kind is _ZERO or y.kind is _ZERO:
        return zero(deg)
    if x.kind is _INTEGER and y.kind is _INTEGER:
        return integer_class(x.value * y.value)
    if x.kind is _INTEGER:
        return hopf_power(y.degree) if x.value % 2 else zero(deg)
    if y.kind is _INTEGER:
        return hopf_power(x.degree) if y.value % 2 else zero(deg)
    return hopf_power(deg) if deg <= 3 else zero(deg)


def smash_all(elements) -> StemElement:
    """Smash a sequence of elements; the empty product is the unit 1."""
    out = ONE
    for el in elements:
        out = smash(out, el)
    return out


def smash_degree_one(n: int, zeros: int, unknowns: int) -> StemElement:
    """``smash_all`` of n degree-1 elements, ``zeros`` zero and ``unknowns``
    unknown, the rest eta, counted: unknown absorbs, then zero; eta^4 = 0."""
    if unknowns:
        return unknown(n)
    return zero(n) if zeros or n > 3 else _ETA_POWERS[n]


def is_nonzero(x: StemElement) -> TriState:
    """Whether the element is nonzero in its stem."""
    if x.kind is StemKind.INTEGER:
        return TriState.YES if x.value != 0 else TriState.NO
    if x.kind is StemKind.HOPF:
        return TriState.YES
    if x.kind is StemKind.ZERO:
        return TriState.NO
    return TriState.UNKNOWN


def sq2_detects_hopf(d: int) -> bool:
    """Whether the squaring operation on the d-th power class detects the Hopf
    class, which happens exactly for even d (the relevant binomial coefficient
    d - 1 choose 1 is odd iff d is even).

    >>> [sq2_detects_hopf(d) for d in (1, 2, 3, 4)]
    [False, True, False, True]
    """
    if exact_int(d, "d") < 1:
        raise InvalidParameters(f"detection is defined for d >= 1, got {shown(d)}")
    return d % 2 == 0
