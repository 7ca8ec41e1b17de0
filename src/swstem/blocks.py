"""Catalogue of building-block 4-manifolds and their Seiberg-Witten data.

The blocks are the summands the connected-sum engine understands, all with
b1 = 0: elliptic surfaces E(p_g; m, n) (``K3`` is E(1; 1, 1)), symplectic
and Kaehler blocks known through declared classes, negative definite
diagonal blocks, and homotopy-sphere-like blocks.  Each kind is declared
once, as its class: its label, b+ (for an almost complex kind), SW value
and parity at a class key, odd-SW class set, whether it is neutral or almost
complex, and its manifold-file ``tag``.  The module functions check once that
they were given a catalogued block and then ask the block.  Constructors,
class keys and the table functions take exact integers (``exact_int``);
the formulas ``max_multiple`` and ``odd_binomial`` run on integers already
checked and check none.

The basic classes of E(p_g; m, n) are the multiples of the fiber class
listed by ``basic_class_table``: the multiple (p_g-1-2a)mn + (m-2b-1)n +
(n-2c-1)m carries |SW| = binomial(p_g-1, a), for 0 <= a < p_g,
0 <= b < m, 0 <= c < n.  For coprime m, n these multiples are pairwise
distinct and the largest multiple always has value 1.  The values are
absolute: the Fintushel-Stern product formula gives the signed value
(-1)^a binomial(p_g-1, a), so SW(-k) = (-1)^(p_g-1) SW(k) and the table is
symmetric under negation with equal values for |SW| only.

A lookup at one multiple inverts the key map in O(1) (``_genus_index``).
Tables are built only for listing and recognition, in ascending key order by
residue blocks (``_residue_masks``) with no sort, each held in ``_TABLES``
as one ``BasicClassTable`` of two tuples: the keys, and values from one
binomial row.  The residue masks of the last (m, n) are held (``_MASKS``),
immutable and replaced as one tuple, so a thread reads a whole entry; a
table and then its odd-SW set compute them once.  An odd-SW set builds no
values and walks only the odd rows' blocks.  Key ints are shared by one
rule, in either build order: a block's keys within 2^15 of 0 (``_SHARED``)
are a slice of one window of shared ints (``_keys``), grown as wider keys
are asked for but never past 2^16 + 1 ints (about 2.6 MB); where row p_g - 1
is all odd (p_g a power of two), the table's key column is its odd-SW set,
one tuple; a table's middle blocks, p_g - 1 down to 1, are one slice where
they lie wholly in the window; past the window, any other row builds its own
ints.  A table and an odd-SW set are each admitted here before they are
built; a fingerprint's sets together first (``odd_class_sets``), then each
elliptic set again as it is built.  ``BasicClassTable.entries`` builds each
(key, value) pair only when it is read.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, compress, repeat
from math import comb, gcd
from typing import Union

from ._record import record
from .errors import MAX_INPUT_BITS, MAX_SHOWN_BITS, InvalidParameters, UncataloguedBlock
from .errors import UnknownSW, as_tuple, exact_int, narrow_int, shown

#: class key selecting the canonical class of a symplectic block
CANONICAL = "canonical"


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1


_PARITIES = _EVEN, _ODD = tuple(Parity)  # bound once: an enum lookup on its class is slow


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


def _check_odd_b_plus(b_plus, kind: str) -> None:
    if narrow_int(b_plus, "b_plus") < 1 or b_plus % 2 == 0:
        raise InvalidParameters(f"b_plus of a {kind} block must be odd and positive, got {b_plus}")


class _Block:
    """What every catalogued kind declares: a ``label``, a ``b_plus`` when it
    is almost complex, and overrides of these defaults, those of a block
    without SW data.

    ``class_key=None`` selects the block's distinguished class.  ``tag`` is
    the ``"type"`` of a manifold file's summand.
    """

    almost_complex = False
    neutral = False  # b1 = b2 = 0: the block contributes the identity to every sum

    def sw_value(self, class_key):
        raise UnknownSW(f"{self.label} carries no SW data")

    def sw_parity(self, class_key=None) -> Parity | None:
        try:
            return _PARITIES[self.sw_value(class_key) % 2]
        except UnknownSW:
            return None

    def sw_nonzero(self, class_key) -> bool | None:
        """Whether the integer SW value at ``class_key`` is nonzero; None where
        the value is not an integer."""
        value = self.sw_value(class_key)
        return value != 0 if type(value) is int else None

    def sw_shown(self, class_key) -> str | None:
        """How a trace states the SW value; None where it is not an integer."""
        value = self.sw_value(class_key)
        return f"SW = {shown(value)}" if type(value) is int else None

    def odd_classes(self) -> tuple[int, ...]:
        raise UnknownSW(f"{self.label} does not declare a complete odd basic set")

    def odd_size(self) -> tuple[int, int]:
        """How many classes ``odd_classes`` lists, and the bit length of the
        widest (0 for none); refused where ``odd_classes`` is."""
        classes = self.odd_classes()
        return len(classes), max(map(abs, classes), default=0).bit_length()


@record
class EllipticSurface(_Block):
    """Simply connected minimal elliptic surface E(p_g; m, n).

    ``p_g >= 0`` is the geometric genus; ``m <= n`` are the coprime
    multiplicities of the multiple fibers (1 means no log transform); the
    constructor, a manifold file and the table functions refuse m > n alike.
    Basic-class data exists for p_g >= 1 only; p_g = 0 blocks carry unknown
    SW.  The distinguished class is the largest multiple (value 1); a chosen
    multiple must have the parity of the table multiples, otherwise it is not
    characteristic.
    """

    p_g: int
    m: int
    n: int

    tag = "elliptic"
    almost_complex = True

    def __post_init__(self):
        _triple_ints(self.p_g, self.m, self.n)
        if self.p_g < 0:
            raise InvalidParameters(f"p_g must be >= 0, got {self.p_g}")
        _check_multiplicities(self.m, self.n)

    @property
    def label(self) -> str:
        if self.p_g == self.m == self.n == 1:
            return "K3"
        return f"E(p_g={self.p_g},m={self.m},n={self.n})"

    @property
    def b_plus(self) -> int:
        return 2 * self.p_g + 1

    def sw_value(self, class_key):
        if self.p_g < 1:
            raise UnknownSW("p_g = 0 elliptic blocks carry no declared SW data")
        if class_key is None:
            return 1
        return _abs_sw(self.p_g, self.m, self.n, exact_int(class_key, "elliptic class key"))

    def sw_parity(self, class_key=None) -> Parity | None:
        if self.p_g < 1:
            return None
        if class_key is None:
            return _ODD
        key = exact_int(class_key, "elliptic class key")
        if (key - max_multiple(self.p_g, self.m, self.n)) % 2 != 0:
            raise InvalidParameters(
                f"multiple {shown(key)} is not characteristic on "
                f"{self.label}: its parity differs from the table's"
            )
        a = _genus_index(self.p_g, self.m, self.n, key)
        odd = a is not None and odd_binomial(self.p_g - 1, a)
        return _ODD if odd else _EVEN

    def sw_nonzero(self, class_key) -> bool:
        if self.p_g < 1 or class_key is None:
            return super().sw_nonzero(class_key)  # refuses p_g = 0
        # no binomial of the row is zero: whether the key is on the table decides it
        key = exact_int(class_key, "elliptic class key")
        return _genus_index(self.p_g, self.m, self.n, key) is not None

    def sw_shown(self, class_key) -> str | None:
        if class_key is None or self.p_g - 1 <= MAX_SHOWN_BITS:
            return super().sw_shown(class_key)
        # a value may take p_g - 1 bits: state its bound instead
        on = self.sw_nonzero(class_key)
        return f"SW is nonzero and below 2^{self.p_g - 1}" if on else "SW = 0"

    def odd_size(self) -> tuple[int, int]:
        if self.p_g < 1:
            raise UnknownSW(f"{self.label}: no declared odd basic data for p_g = 0")
        # unbuilt: the set is symmetric under negation and holds the largest multiple
        count = _odd_count(self.p_g, self.m, self.n)
        return count, max_multiple(self.p_g, self.m, self.n).bit_length()

    def odd_classes(self) -> tuple[int, ...]:
        self.odd_size()  # refuses p_g = 0
        return recognizable_set(self.p_g, self.m, self.n)


K3 = EllipticSurface(1, 1, 1)


@record
class SymplecticGeneric(_Block):
    """Symplectic block with b1 = 0; only the canonical class, which is also
    the distinguished class, carries declared SW data: SW = 1 (sign
    convention fixed to +1)."""

    b_plus: int

    tag = "symplectic"
    almost_complex = True

    def __post_init__(self):
        _check_odd_b_plus(self.b_plus, "symplectic")

    @property
    def label(self) -> str:
        return f"symplectic(b+={self.b_plus})"

    def sw_value(self, class_key):
        if class_key is None or class_key == CANONICAL:
            return 1
        raise UnknownSW(
            "symplectic blocks declare SW data only at the canonical class"
        )


@record
class KaehlerGeneric(_Block):
    """Kaehler block with b1 = 0 and a complete declaration of its odd-SW
    classes, labelled by their c^2 values.  SW values are known as parities
    only.  The distinguished class is the largest declared label (even
    everywhere when nothing is declared)."""

    b_plus: int
    odd_basic: tuple[int, ...] = ()

    tag = "kaehler"
    almost_complex = True

    def __post_init__(self):
        _check_odd_b_plus(self.b_plus, "Kaehler")
        raw = as_tuple(self.odd_basic, "odd_basic")
        labels = tuple(sorted({narrow_int(x, "odd_basic entry") for x in raw}))
        object.__setattr__(self, "odd_basic", labels)

    @property
    def label(self) -> str:
        return f"kaehler(b+={self.b_plus})"

    def sw_parity(self, class_key=None) -> Parity | None:
        if class_key is not None:
            key = exact_int(class_key, "Kaehler class key")
            return _ODD if key in self.odd_basic else _EVEN
        return _ODD if self.odd_basic else _EVEN

    sw_value = sw_parity

    def odd_classes(self) -> tuple[int, ...]:
        return self.odd_basic


@record
class NegativeDefinite(_Block):
    """Negative definite diagonal block of the given rank, b1 = 0.  It takes
    spin-c data (the ``c`` coordinates) instead of a class key."""

    rank: int

    tag = "negative_definite"

    def __post_init__(self):
        narrow_int(self.rank, "rank")
        if self.rank < 0:
            raise InvalidParameters(f"rank must be >= 0, got {self.rank}")

    @property
    def label(self) -> str:
        return f"negative-definite(rank={self.rank})"

    @property
    def neutral(self) -> bool:
        return self.rank == 0


@record
class HomotopySphereLike(_Block):
    """A block with b1 = b2 = 0; contributes the identity to every sum."""

    tag = "s4"
    neutral = True

    @property
    def label(self) -> str:
        return "homotopy-sphere"


BuildingBlock = Union[
    EllipticSurface, SymplecticGeneric, KaehlerGeneric, NegativeDefinite, HomotopySphereLike
]


def _catalogued(block) -> _Block:
    if not isinstance(block, _Block):
        raise UncataloguedBlock(f"not a catalogued building block: {block!r}")
    return block


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


def _check_table_params(p_g: int, m: int, n: int) -> None:
    _triple_ints(p_g, m, n)
    if p_g < 1:
        raise InvalidParameters(
            f"basic-class data requires geometric genus >= 1, got p_g = {p_g}"
        )
    _check_multiplicities(m, n)


#: the listing budget: the most entries, and the most bits (MAX_LISTING keys
#: of 64 bits); a table also counts p_g bits per value, each below 2^(p_g - 1)
MAX_LISTING = 2_000_000
MAX_LISTING_BITS = 64 * MAX_LISTING


def _admit(size: int, bits: int, what: str, listed: str = "keys") -> None:
    """Refuse a listing of ``size`` entries and ``bits`` bits of ``listed``
    (its size times its widest entry's bit length) past either bound."""
    if size > MAX_LISTING:
        raise InvalidParameters(f"{what} would list more than {MAX_LISTING} entries")
    if bits > MAX_LISTING_BITS:
        raise InvalidParameters(f"{what} would list more than {MAX_LISTING_BITS} bits of {listed}")


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


#: the last answer of ``_residue_masks``, as (m, n, answer): one entry, replaced
#: as one tuple, so a thread reads either the old entry or the new one whole
_MASKS: tuple = (0, 0, None)


def _residue_masks(m: int, n: int):
    """How a residue block of the listing splits between two rows.

    For coprime m, n each residue t mod mn has exactly one s = b*n + c*m
    (b < m, c < n), and s is t or t + mn (CRT; h[t] = 0 or 1).  So r = a*mn + s
    sits in block j = a + h[t] at position t, and the key top - 2r ascends as
    (j, t) descends: block j is the keys from top - 2(j*mn + mn - 1) up in
    steps of 2, its position i holding t = mn - 1 - i.  Returns ``wraps``,
    the slices of t where h[t] = 1 with their lengths, and the masks of the
    positions of row j - 1 (``high``, h = 1) and of row j (``low``, h = 0).
    The last answer is held (``_MASKS``): immutable, two masks of mn bytes
    and m - 1 slices, so a table and then its odd-SW set compute it once.
    """
    global _MASKS
    held = _MASKS  # one read: a whole entry, whatever another thread writes
    if held[0] == m and held[1] == n:
        return held[2]
    # the c >= ceil((m - b) n / m) wrap past mn: h[t] = 1 on these slices
    wraps = tuple((slice(b * n % m, b * n, m), b * n // m) for b in range(1, m))
    h = bytearray(m * n)
    for span, count in wraps:
        h[span] = b"\x01" * count
    high = bytes(h[::-1])
    masks = wraps, high, high.translate(bytes.maketrans(b"\0\1", b"\1\0"))
    _MASKS = (m, n, masks)
    return masks


#: every table ``_table`` built, by triple, unbounded.  A table and an odd-SW
#: set take the key ints of a block within ``_SHARED`` of 0 from ``_window``,
#: which is bounded; an all-odd row's table holds its odd-SW set as its keys;
#: past the window, any other row builds its own ints
_TABLES: dict[tuple[int, int, int], BasicClassTable] = {}

#: how far from 0 ``_window`` may reach: it never holds more than
#: 2 * _SHARED + 1 ints (about 2.6 MB)
_SHARED = 2**15
#: every int in [-reach, reach] once, reach = len // 2: the one object of each
#: key value in every table and odd-SW set, whichever of them is built first
_window: tuple[int, ...] = (0,)


def _keys(start: int, stop: int):
    """``range(start, stop, 2)``, a non-empty block of keys: a slice of
    ``_window``, grown to reach the block (at least doubled, its objects
    kept), or the range itself where the block reaches past ``_SHARED``."""
    global _window
    last = stop - 2
    if start < -_SHARED or last > _SHARED:
        return range(start, stop, 2)
    window = _window  # sliced at its own reach, whatever another caller grows
    reach = len(window) // 2
    if max(-start, last) > reach:
        grown = min(max(-start, last, 2 * reach), _SHARED)
        window = _window = (*range(-grown, -reach), *window, *range(reach + 1, grown + 1))
        reach = grown
    return window[start + reach:stop + reach:2]


def _table(p_g: int, m: int, n: int) -> BasicClassTable:
    """The table, built once and held in ``_TABLES``; its columns by blocks p_g
    down to 0: block p_g holds row p_g - 1 at its high positions only, block
    0 row 0 at its low positions only, and each block between all mn."""
    held = _TABLES.get((p_g, m, n))
    if held is not None:
        return held
    row = [1]  # binomial(p_g - 1, a) for 0 <= a < p_g, each exact from the last
    for a in range(p_g - 1):
        row.append(row[-1] * (p_g - 1 - a) // (a + 1))
    wraps, high, low = _residue_masks(m, n)
    mn, top, edge = m * n, max_multiple(p_g, m, n), high.count(1)
    values: list[int] = [1] * edge  # the two ends of the row, each 1
    for j in range(p_g - 1, 0, -1):
        run = [row[j]] * mn  # row j - 1 where h = 1
        for span, count in wraps:
            run[span] = [row[j - 1]] * count
        values.extend(reversed(run))
    values.extend(repeat(1, mn - edge))
    # row p_g - 1 is all odd (Lucas): the keys are the odd-SW set, admitted
    # with the table (as many entries, fewer bits)
    if not p_g & (p_g - 1):
        column = _recognizable(p_g, m, n)
    else:
        def block(j: int):
            start = top - 2 * (j * mn + mn - 1)
            return _keys(start, start + 2 * mn)

        keys = [*compress(block(p_g), high)]
        start, stop = top - 2 * (p_g * mn - 1), top - 2 * mn + 2  # blocks p_g - 1 .. 1
        if -_SHARED <= start and stop - 2 <= _SHARED:  # in the window: one slice of it
            keys += _keys(start, stop)
        else:  # each block as _keys gives it, so those within the window share
            for j in range(p_g - 1, 0, -1):
                keys += block(j)
        keys += compress(block(0), low)
        column = tuple(keys)
    held = _TABLES[p_g, m, n] = BasicClassTable(p_g, m, n, column, tuple(values))
    return held


class _Pairs(Sequence):
    """The (key, value) pairs of two columns, as a read-only sequence view:
    each pair is built when it is read.  It compares equal to, and reads
    as, the tuple of its pairs."""

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: tuple[int, ...], values: tuple[int, ...]):
        self._keys, self._values = keys, values

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, index):
        if type(index) is slice:
            return tuple(zip(self._keys[index], self._values[index]))
        return self._keys[index], self._values[index]

    def __iter__(self):
        return zip(self._keys, self._values)

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Pairs)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


@record
class BasicClassTable:
    """|SW| values on the line of fiber multiples, as two columns: ``keys``,
    the multiples ascending, and ``values``, the |SW| at each multiple.
    ``entries`` is a sequence view of the (key, value) pairs."""

    p_g: int
    m: int
    n: int
    keys: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        _check_table_params(self.p_g, self.m, self.n)
        object.__setattr__(self, "keys", as_tuple(self.keys, "keys"))  # a tuple is kept, not copied
        object.__setattr__(self, "values", as_tuple(self.values, "values"))
        if not len(self.keys) == len(self.values) == self.p_g * self.m * self.n:
            raise InvalidParameters("a table lists p_g*m*n keys and as many values")

    @property
    def entries(self) -> _Pairs:
        return _Pairs(self.keys, self.values)

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.keys, self.values))

    def value(self, multiple: int) -> int:
        """Exact |SW| value at a multiple, as ``sw_value`` (0 off the table)."""
        return _abs_sw(self.p_g, self.m, self.n, exact_int(multiple, "multiple"))


def basic_class_table(p_g: int, m: int, n: int) -> BasicClassTable:
    """Full basic-class table of E(p_g; m, n), p_g >= 1, coprime m <= n.

    Contains exactly p_g * m * n distinct multiples with their |SW| values,
    value 1 at the largest multiple; symmetric under negation with equal
    values (the signed values differ by (-1)^(p_g-1)).  A table past
    MAX_LISTING entries or MAX_LISTING_BITS bits of keys and values is refused unbuilt.

    >>> basic_class_table(3, 1, 1).entries
    ((-2, 1), (0, 2), (2, 1))
    """
    _check_table_params(p_g, m, n)
    size = p_g * m * n
    bits = size * (max_multiple(p_g, m, n).bit_length() + p_g)
    _admit(size, bits, "the table", "keys and values")
    return _table(p_g, m, n)


def _submasks(x: int):
    """The a with a AND x == a, descending: the odd entries of row x (Lucas)."""
    a = x
    while a:
        yield a
        a = (a - 1) & x
    yield 0


#: every odd-SW set ``_recognizable`` built, by id; ``recognize.Pattern`` admits
#: these unchecked.  An entry holds its set, so no other object takes its id
_LISTED: dict[int, tuple[int, ...]] = {}


@lru_cache(maxsize=None)
def _recognizable(p_g: int, m: int, n: int) -> tuple[int, ...]:
    """The odd-SW set, by the blocks of the odd rows (``_submasks``), a row's
    mask selecting each block's odd keys.  Its keys come from ``_keys`` alone:
    the shared window within 2^15 of 0, else the block's own ints; an
    all-odd row's table takes this tuple as its key column."""
    _, high, low = _residue_masks(m, n)
    mn, top = m * n, max_multiple(p_g, m, n)
    runs = []
    last = None
    for a in _submasks(p_g - 1):  # row a lies in blocks a + 1 and a
        for j in (a,) if a + 1 == last else (a + 1, a):  # block a + 1 came with row a + 1
            start = top - 2 * (j * mn + mn - 1)
            keys = _keys(start, start + 2 * mn)
            odd_low, odd_high = odd_binomial(p_g - 1, j), odd_binomial(p_g - 1, j - 1)
            runs.append(keys if odd_low and odd_high else compress(keys, low if odd_low else high))
        last = a
    odd = tuple(chain.from_iterable(runs))
    _LISTED[id(odd)] = odd
    return odd


def _odd_count(p_g: int, m: int, n: int) -> int:
    """Size of the recognizable set, 2^popcount(p_g - 1) m n, without building it."""
    _check_table_params(p_g, m, n)
    return 2 ** (p_g - 1).bit_count() * m * n


def recognizable_set(p_g: int, m: int, n: int) -> tuple[int, ...]:
    """The multiples whose SW value is odd, sorted ascending; refused unbuilt,
    as tables are, past MAX_LISTING entries or MAX_LISTING_BITS bits of keys.

    >>> recognizable_set(3, 1, 1)
    (-2, 2)
    >>> recognizable_set(1, 2, 3)
    (-7, -3, -1, 1, 3, 7)
    """
    size = _odd_count(p_g, m, n)  # checks the parameters
    _admit(size, size * max_multiple(p_g, m, n).bit_length(), "the odd-SW set")
    return _recognizable(p_g, m, n)


def odd_class_sets(blocks) -> list[tuple[int, ...]]:
    """The odd-SW class sets of the blocks not neutral, in order, admitted
    together as one listing before any is built."""
    listed = [block for block in blocks if not block.neutral]
    sizes = [block.odd_size() for block in listed]  # refuses a block without odd data
    bits = sum(count * width for count, width in sizes)
    _admit(sum(count for count, _ in sizes), bits, "the odd-SW sets")
    return [block.odd_classes() for block in listed]


def sw_value(block: BuildingBlock, class_key):
    """Seiberg-Witten datum of a block at a chosen class (None: its
    distinguished class): an exact integer for elliptic blocks (0 off the
    table; past p_g - 1 = MAX_SHOWN_BITS, only the 1 at either end of the
    row) and symplectic blocks, a ``Parity`` for Kaehler blocks; UnknownSW
    where the block declares none."""
    return _catalogued(block).sw_value(class_key)


def sw_parity(block: BuildingBlock, class_key=None) -> Parity | None:
    """SW parity of a block at a chosen class (None: its distinguished
    class, see the block classes); None when undetermined."""
    return _catalogued(block).sw_parity(class_key)
