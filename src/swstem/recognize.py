"""Recover elliptic-surface parameters from a pattern of odd-SW multiples.

Every simply connected minimal elliptic surface E(p_g; m, n) with odd p_g
leaves a fingerprint: the set of fiber multiples carrying odd SW values.
``recognize`` inverts that map using only integer arithmetic on the pattern;
``recognize_oracle`` does the same by enumeration of the triples whose odd
count matches and is the cross-check used in the test suite.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import count
from math import gcd, isqrt

from ._record import record
from .blocks import _LISTED, _odd_count, max_multiple, recognizable_set
from .errors import InvalidParameters, NotAnEllipticPattern, as_tuple, exact_int, shown


@record
class Pattern:
    """A nonempty, negation-symmetric set of multiples, sorted ascending.

    ``multiples`` may be any iterable of integers; it is stored as a tuple,
    sorted and without repeats.  A tuple that already ascends strictly is
    kept as given, neither copied nor sorted.  A set ``recognizable_set``
    listed is admitted as it stands; any other input is checked.
    """

    multiples: tuple[int, ...]

    def __post_init__(self):
        if id(self.multiples) in _LISTED:
            return  # built ascending, symmetric and of exact ints
        items = as_tuple(self.multiples, "pattern multiples")
        if not set(map(type, items)) <= {int}:
            bad = next(x for x in items if type(x) is not int)
            raise InvalidParameters(f"pattern multiples must be integers, got {shown(bad)}")
        if not all(map(operator.lt, items, items[1:])):
            items = tuple(sorted(set(items)))
        if not items:
            raise InvalidParameters("a pattern needs at least one multiple")
        object.__setattr__(self, "multiples", items)
        # sorted and symmetric exactly when the i-th smallest negates the i-th largest
        if any(map(operator.add, items, reversed(items))):
            present = set(items)
            x = next(x for x in items if -x not in present)
            raise InvalidParameters(
                "pattern is not symmetric under negation: "
                f"{shown(x)} present, {shown(-x)} absent"
            )


@record
class RecognitionResult:
    """A candidate triple plus the outcome of regenerating its pattern.

    ``validated`` is true exactly when the candidate's recognizable set
    equals the input pattern; a validated candidate has odd p_g, and only
    an unvalidated one carries a diagnostic, which explains the mismatch.
    """

    p_g: int
    m: int
    n: int
    validated: bool
    diagnostics: tuple[str, ...] = ()

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.p_g, self.m, self.n)


def recognize(pattern: Pattern) -> RecognitionResult:
    """Identify the surface whose odd-SW multiples form the given pattern.

    The algorithm: a singleton pattern is the trivial surface (1, 1, 1).
    Otherwise let k be the largest multiple and h half the gap down to the
    second largest.  When h is coprime to k, h is the smaller multiplicity m
    (the gap between the top classes moves one step along the finer fiber),
    and the pattern's size names the rest (``_counted``): an odd-SW set has
    2^j m n multiples, j = popcount(p_g - 1), so each j gives n and then p_g
    through the largest multiple, and the first candidate that can be a
    surface is checked against its regenerated set.  Where that candidate
    regenerates the pattern it is the answer; otherwise the larger
    multiplicity n is the first lambda >= 1 with k - 2*lambda*m missing from
    the pattern (a walk down the sorted pattern, no set), which names the
    candidate, or the refusal, of a pattern no triple generates, and p_g
    follows from the formula for the largest multiple.  Both agree on a set
    the count validates: row 0 holds k - 2*lambda*m for every lambda < n,
    and k - 2mn is only row 1's, an even binomial for odd p_g.  When h and k
    share a factor, the pattern can only belong to the no-log-transform
    family m = n = 1 with p_g = k + 1.  Either way the candidate is validated
    by comparing its odd count 2^popcount(p_g - 1) m n with the pattern's
    size, then its regenerated recognizable set; mismatches come back with
    validated=False rather than a guess.  A validated candidate has odd p_g:
    for even p_g, binomial(p_g - 1, 1) is odd, so its set holds k - 2mn (the
    walk does not stop at n) and, when m = n = 1, k - 2 (which makes h = 1).
    So an even-genus surface's set is refused (NotAnEllipticPattern, or
    validated=False), or read as the odd-genus surface with the same set:
    E(2; 1, 1)'s set (-1, 1) gives (1, 1, 2).
    """
    values = pattern.multiples
    if len(values) == 1:
        # symmetry forces the single multiple to be 0
        return _validated_result(1, 1, 1, pattern)

    k = values[-1]
    second = values[-2]
    if (k - second) % 2 != 0:
        raise _not_elliptic(
            "multiples in one pattern share a parity; "
            f"{shown(k)} and {shown(second)} do not"
        )
    h = (k - second) // 2

    if gcd(h, k) == 1:
        m = h
        counted = _counted(pattern, k, m)
        if counted is not None:
            return counted
        n = _detect_larger_multiplicity(values, k, m)
        numerator = k - (m - 1) * n - (n - 1) * m
        if numerator % (m * n) != 0:
            raise _not_elliptic(
                f"largest multiple {shown(k)} is incompatible with "
                f"multiplicities ({shown(m)}, {shown(n)})"
            )
        # _validated_result refuses p_g < 1 and unordered or non-coprime (m, n)
        return _validated_result(numerator // (m * n) + 1, m, n, pattern)

    # h and k share a factor: the m = n = 1 family, or no surface at all
    return _validated_result(k + 1, 1, 1, pattern)


def _not_elliptic(detail: str) -> NotAnEllipticPattern:
    return NotAnEllipticPattern(f"not the odd-SW set of an odd-genus elliptic surface: {detail}")


def _counted(pattern: Pattern, k: int, m: int) -> RecognitionResult | None:
    """The validated result of the triple the pattern's size names, or None.

    E(p_g; m, n) has 2^j m n odd-SW multiples, j = popcount(p_g - 1), the
    largest k with k + m = n((p_g + 1) m - 1).  So j = 0 .. v2(|P| / m) each
    fix n = |P| / (2^j m) and p_g; the first with odd p_g >= 1, popcount
    (p_g - 1) = j and coprime m <= n is the one candidate built.  None where
    it regenerates another set, is refused (past the listing budget, or p_g
    too wide) or where no j names one: the fiber walk decides those."""
    mn, rest = divmod(len(pattern.multiples), m)
    if rest:
        return None
    for j in range((mn & -mn).bit_length()):
        n = mn >> j
        if n < m:  # n only falls as j grows
            return None
        q, rest = divmod(k + m, n)
        p_g, off = divmod(q + 1, m)
        p_g -= 1
        if rest or off or p_g < 1 or not p_g % 2 or (p_g - 1).bit_count() != j or gcd(m, n) != 1:
            continue
        try:
            odd = recognizable_set(p_g, m, n)
        except InvalidParameters:
            return None
        return RecognitionResult(p_g, m, n, True) if _same(odd, pattern) else None
    return None


def _detect_larger_multiplicity(values: tuple[int, ...], k: int, m: int) -> int:
    """First lambda >= 1 with k - 2*lambda*m off the pattern.  Targets descend:
    each is tried just below the last hit (values[-1] = k tops them), then bisected."""
    i = len(values) - 1
    for lam in count(1):
        target = k - 2 * lam * m
        i = i - 1 if values[i - 1] == target else bisect_left(values, target, 0, i)
        if values[i] != target:  # on a miss, values[i] may be the last hit
            return lam


def _same(regenerated: tuple[int, ...], pattern: Pattern) -> bool:
    # tuple == walks every item even when both sides are one object
    return regenerated is pattern.multiples or regenerated == pattern.multiples


def _validated_result(p_g: int, m: int, n: int, pattern: Pattern) -> RecognitionResult:
    try:
        count = _odd_count(p_g, m, n)
    except InvalidParameters as exc:
        raise _not_elliptic(str(exc)) from exc
    if count == len(pattern.multiples) and _same(recognizable_set(p_g, m, n), pattern):
        return RecognitionResult(p_g, m, n, True)  # p_g is odd: see recognize
    # the largest multiple always has value 1, so it is always odd
    diagnostic = (
        f"candidate ({p_g}, {m}, {n}) regenerates {shown(count)} multiples "
        f"with largest {shown(max_multiple(p_g, m, n))}, which differ from the input"
    )
    return RecognitionResult(p_g, m, n, False, (diagnostic,))


def recognize_oracle(
    pattern: Pattern, bounds: tuple[int, int] | None = None
) -> tuple[tuple[int, int, int], ...]:
    """All odd-genus triples within bounds whose recognizable set equals the
    pattern, sorted, by enumeration of the triples whose odd count matches.

    The odd count is 2^j m n with j = popcount(p_g - 1) (Lucas), so j runs
    over 0..v2(|P|) and (m, n) over the coprime divisor pairs m <= n of
    |P| / 2^j.  Each pair fixes p_g through the largest multiple, the
    pattern's top = (p_g - 1) mn + (m - 1) n + (n - 1) m; a candidate counts
    when p_g is odd, within bounds and has popcount(p_g - 1) = j, and its
    recognizable set is the pattern.  That is at most
    (v2(|P|) + 1) * isqrt(|P|) steps, whatever the bounds.

    ``bounds`` is (p_g_max, n_max); the default derives both from the
    largest multiple, which is large enough to contain the generating
    triple whenever one exists.
    """
    if bounds is None:
        k = pattern.multiples[-1]
        bounds = (k + 1, k + 2)
    try:
        p_g_max, n_max = bounds
    except (TypeError, ValueError):
        raise InvalidParameters("oracle bounds must be a pair (p_g_max, n_max)") from None
    if exact_int(p_g_max, "p_g_max") < 1 or exact_int(n_max, "n_max") < 1:
        raise InvalidParameters("oracle bounds must be positive")
    size, top, matches = len(pattern.multiples), pattern.multiples[-1], []
    for j in range((size & -size).bit_length()):
        mn = size >> j
        for m in range(1, min(isqrt(mn), n_max) + 1):
            n, rest = divmod(mn, m)
            if rest or n > n_max or gcd(m, n) != 1:
                continue
            q, rest = divmod(top - (m - 1) * n - (n - 1) * m, mn)
            p_g = q + 1
            if rest or p_g % 2 == 0 or not 1 <= p_g <= p_g_max or q.bit_count() != j:
                continue
            if _same(recognizable_set(p_g, m, n), pattern):
                matches.append((p_g, m, n))
    return tuple(sorted(matches))
