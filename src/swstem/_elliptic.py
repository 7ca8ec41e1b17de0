"""The closed forms of E(p_g; m, n)'s basic classes, shared by ``blocks`` and
its listing half ``_listing``, through which ``recognize`` reads them.

The parameter checks of a triple, the largest multiple, the parity of a
binomial, the index of the table entry at a key and |SW| there: each is
arithmetic on exact integers, so a listing or a recognition loads this module
and no block kind.  ``max_multiple`` and ``odd_binomial`` run on integers
already checked and check none.
"""

from math import comb, gcd

from .errors import MAX_INPUT_BITS, MAX_SHOWN_BITS, InvalidParameters, narrow_int, shown


def _triple_ints(p_g, m, n) -> None:
    # one type test and one width test pass valid arguments; a message only on failure
    if not (type(p_g) is type(m) is type(n) is int and not (p_g | m | n) >> MAX_INPUT_BITS):
        for value, what in zip((p_g, m, n), ("p_g", "m", "n")):
            narrow_int(value, what)


def _check_multiplicities(m: int, n: int) -> None:
    """The multiplicity rule of every entry point: m, n >= 1, then m <= n, then coprime."""
    if m < 1 or n < 1:
        raise InvalidParameters("fiber multiplicities must be >= 1")
    if m > n:
        raise InvalidParameters(f"multiplicities must satisfy m <= n, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise InvalidParameters(f"multiplicities must be coprime, got ({m}, {n})")


def odd_binomial(n: int, k: int) -> bool:
    """True iff binomial(n, k) is odd, decided by the bit test k AND n == k.

    Works for arbitrarily large inputs without evaluating the binomial;
    k > n (a bit of k outside n) yields false.  A pure formula, run inside
    table builds on integers already checked: it checks no argument types.

    >>> odd_binomial(10, 2)
    True
    >>> odd_binomial(4, 2)
    False
    """
    if n < 0 or k < 0:
        return False
    return (k & n) == k


def max_multiple(p_g: int, m: int, n: int) -> int:
    """Largest basic-class multiple, attained at a = b = c = 0.  A pure
    formula on integers already checked: it checks no argument types."""
    return (p_g - 1) * m * n + (m - 1) * n + (n - 1) * m


def _genus_index(p_g: int, m: int, n: int, key: int) -> int | None:
    """The index a of the table entry at ``key``, None off the table.

    Inverts key = top - 2r with r = a*mn + b*n + c*m: b is r/n mod m, and
    (r - b*n)/m = a*n + c.  Coprimality makes n invertible mod m (the inverse
    mod 1 is 0) and the decomposition unique.
    """
    r, odd = divmod(max_multiple(p_g, m, n) - key, 2)
    if odd or r < 0:
        return None
    b = r * pow(n, -1, m) % m
    q = (r - b * n) // m
    if q < 0:
        return None
    a = q // n
    return a if a < p_g else None


def _abs_sw(p_g: int, m: int, n: int, key: int) -> int:
    """|SW| of E(p_g; m, n) at the multiple ``key``, 0 off the table; past
    p_g - 1 = MAX_SHOWN_BITS only the 1 at either end of the row is computed."""
    a = _genus_index(p_g, m, n, key)
    if p_g - 1 > MAX_SHOWN_BITS and a is not None and 0 < a < p_g - 1:
        raise InvalidParameters(
            f"|SW| at multiple {shown(key)} is binomial(p_g - 1, {shown(a)}), "
            f"not computed for p_g - 1 > {MAX_SHOWN_BITS}"
        )
    return 0 if a is None else comb(p_g - 1, a)
