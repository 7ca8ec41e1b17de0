"""Recover elliptic-surface parameters from a pattern of odd-SW multiples.

Every simply connected minimal elliptic surface E(p_g; m, n) with odd p_g
leaves a fingerprint: the set of fiber multiples carrying odd SW values.
``recognize`` inverts that map by one rule: the top gap gives m, the
pattern's size and largest multiple then name at most one triple, and that
triple's set, the one set it builds, is compared with the pattern.
``recognize_oracle`` does the same by enumeration of the triples whose odd
count matches and is the cross-check used in the test suite.
"""

from __future__ import annotations

import operator
from math import gcd, isqrt

from ._listing import _LISTED, recognizable_set
from ._record import record
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
    an unvalidated one carries a diagnostic, which explains the mismatch,
    or names the listing budget where the candidate's set has the input's
    size but is refused unbuilt, so it could not be compared.
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

    One rule answers every pattern.  Let k be the largest multiple and h half
    the gap down to the second largest (a singleton has no gap).  When h is
    coprime to k, h is the smaller multiplicity m (the gap between the top
    classes moves one step along the finer fiber); otherwise m = 1.  The
    pattern's size and k then name at most one triple (``_counted``), whose
    set is built once and compared with the pattern: equal, the triple comes
    back validated; past the listing budget (or with p_g too wide to list),
    unvalidated with a diagnostic naming the bound; different, unvalidated
    with a diagnostic saying where the sets part.  Where no triple fits, the pattern is refused
    (NotAnEllipticPattern, naming its size, its largest multiple and m).
    A validated candidate has odd p_g, so an even-genus surface's set is
    refused, or read as the odd-genus surface with the same set: E(2; 1, 1)'s
    set (-1, 1) gives (1, 1, 2).
    """
    values = pattern.multiples
    k, m = values[-1], 1
    if len(values) > 1:
        gap = k - values[-2]
        if gap % 2:
            raise _not_elliptic(
                "multiples in one pattern share a parity; "
                f"{shown(k)} and {shown(values[-2])} do not"
            )
        if gcd(gap // 2, k) == 1:
            m = gap // 2
    return _counted(pattern, k, m)


def _not_elliptic(detail: str) -> NotAnEllipticPattern:
    return NotAnEllipticPattern(f"not the odd-SW set of an odd-genus elliptic surface: {detail}")


def _counted(pattern: Pattern, k: int, m: int) -> RecognitionResult:
    """The result for the one triple the pattern's size and largest multiple k
    name, with smaller multiplicity m.

    E(p_g; m, n) has 2^j m n odd-SW multiples, j = popcount(p_g - 1), the
    largest k with k + m = n((p_g + 1) m - 1).  So j = 0 .. v2(|P| / m) each
    fix n = |P| / (2^j m) and p_g; a triple fits when p_g >= 1 is odd with
    popcount(p_g - 1) = j and m <= n.  Then m and n are coprime: m is 1 or
    coprime to k, and a common factor of m and n divides k + m, so k too.
    At most one triple fits: a second fit at a larger j, by d steps, has
    n' = n / 2^d, so n is even and the coprime m odd; then (p_g' + 1) m - 1
    is odd, for odd p_g', yet equals 2^d ((p_g + 1) m - 1).  The fitting
    triple's set is built once, and NotAnEllipticPattern refuses a pattern
    no triple fits."""
    values = pattern.multiples
    size = len(values)
    mn, rest = divmod(size, m)
    for j in range(0 if rest else (mn & -mn).bit_length()):
        n = mn >> j
        if n < m:  # n only falls as j grows
            break
        q, rest = divmod(k + m, n)
        p_g, off = divmod(q + 1, m)
        p_g -= 1
        if rest or off or p_g < 1 or not p_g % 2 or (p_g - 1).bit_count() != j:
            continue
        try:
            odd = recognizable_set(p_g, m, n)
        except InvalidParameters as exc:  # past the budget, or p_g too wide: unknown, not a guess
            diagnostic = (
                f"candidate ({shown(p_g)}, {m}, {n}) regenerates {size} multiples, "
                f"as many as the input, left unchecked: {exc}"
            )
            return RecognitionResult(p_g, m, n, False, (diagnostic,))
        if _same(odd, pattern):
            return RecognitionResult(p_g, m, n, True)  # p_g is odd
        # both sets have |P| multiples and the largest k: name the highest place they part
        ours, theirs = next((a, b) for a, b in zip(reversed(odd), reversed(values)) if a != b)
        diagnostic = (
            f"candidate ({p_g}, {m}, {n}) regenerates {size} multiples with largest {k}, "
            f"as the input does, but holds {ours} where the input holds {theirs}"
        )
        return RecognitionResult(p_g, m, n, False, (diagnostic,))
    raise _not_elliptic(
        f"no triple with m = {shown(m)} has {size} multiples and largest {shown(k)}"
    )


def _same(regenerated: tuple[int, ...], pattern: Pattern) -> bool:
    # tuple == walks every item even when both sides are one object
    return regenerated is pattern.multiples or regenerated == pattern.multiples


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
