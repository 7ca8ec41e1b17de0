"""The listing half of ``blocks``: basic-class tables and odd-SW sets.

Both are built only for listing and recognition, in ascending key order by
residue blocks (``_residue_masks``, whose last answer ``_MASKS`` holds, so a
table and then its odd-SW set compute it once) with no sort.  A table is
held in ``_TABLES`` as one ``BasicClassTable`` of two tuples, the keys and
values from one binomial row; an odd-SW set builds no values and walks only
the odd rows' blocks.  Key ints are shared by one rule in either build order
(``_keys``, ``_TABLES``).  Each listing is admitted before it is built, a
fingerprint's sets together first (``odd_class_sets``), then each elliptic
set again.  ``BasicClassTable.entries`` builds each (key, value) pair only
when it is read.  No file command but ``fingerprint`` lists, so this module
loads on first use: ``blocks`` forwards its public names, and
``EllipticSurface.odd_classes`` imports it when it runs.  It reads the closed
forms from ``_elliptic``, so a listing loads no block kind.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, compress, repeat

from ._elliptic import _abs_sw, _check_multiplicities, _triple_ints, max_multiple, odd_binomial
from ._record import record
from .errors import InvalidParameters, as_tuple, exact_int


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


def _check_table_params(p_g: int, m: int, n: int) -> None:
    _triple_ints(p_g, m, n)
    if p_g < 1:
        raise InvalidParameters(
            f"basic-class data requires geometric genus >= 1, got p_g = {p_g}"
        )
    _check_multiplicities(m, n)


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
#: past the window, any other row builds its own ints.  Threads: two callers
#: that miss one triple at once may each build its table, the last one stored
#: is held, and each caller gets an equal table
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
    kept), or the range itself where the block reaches past ``_SHARED``.
    Threads: two callers may each grow the window from the same one, and the
    last one stored is kept, so a block sliced from the other shares its ints
    with fewer later blocks; sharing is lost, never a key's value."""
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
    all-odd row's table takes this tuple as its key column.  Threads: the
    ``lru_cache`` may run this twice for one triple when two callers miss at
    once; each gets an equal set, both are listed in ``_LISTED``, and each is
    admitted by ``Pattern`` unchecked, as any set listed is."""
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
