"""Catalogue of building-block 4-manifolds and their Seiberg-Witten data.

The blocks are the summands the connected-sum engine understands, all with
b1 = 0: elliptic surfaces E(p_g; m, n) (``K3`` is E(1; 1, 1)), symplectic
and Kaehler blocks known through declared classes, negative definite
diagonal blocks, and homotopy-sphere-like blocks.  Each kind is declared
once, as its class: its label, b+ (for an almost complex kind), SW value
and parity at a class key, odd-SW class set, whether it is neutral or almost
complex, and its JSON tag and fields.  The module functions check once that
they were given a catalogued block and then ask the block.

The basic classes of E(p_g; m, n) are the multiples of the fiber class
listed by ``basic_class_table``: the multiple (p_g-1-2a)mn + (m-2b-1)n +
(n-2c-1)m carries |SW| = binomial(p_g-1, a), for 0 <= a < p_g,
0 <= b < m, 0 <= c < n.  For coprime m, n these multiples are pairwise
distinct and the largest multiple always has value 1.  The values are
absolute: the Fintushel-Stern product formula gives the signed value
(-1)^a binomial(p_g-1, a), so SW(-k) = (-1)^(p_g-1) SW(k) and the table is
symmetric under negation with equal values for |SW| only.

A lookup at one multiple inverts the key map in O(1) (``_genus_index``);
tables are built only for listing and recognition, straight into ascending
key order by residue blocks (``_key_blocks``), with no sort.  A block's
values are filled in by list slices, and an odd-SW set builds no values.
"""

from __future__ import annotations

import enum
import warnings
from functools import lru_cache, partial
from itertools import chain, compress, repeat, starmap
from math import comb, gcd
from typing import Union

from ._record import record
from .errors import InvalidParameters, UncataloguedBlock, UnknownSW

#: class key selecting the canonical class of a symplectic block
CANONICAL = "canonical"


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1

    def __str__(self) -> str:
        return self.name.lower()


def _integer(raw, message: str) -> int:
    # exactly int: floats, and bools (an int subclass), are rejected
    if type(raw) is not int:
        raise InvalidParameters(message)
    return raw


def _int_field(raw, what: str) -> int:
    return _integer(raw, f"{what} must be an integer, got {raw!r}")


#: the widest integer printed; str() refuses over 4,300 digits (14,284 bits)
MAX_SHOWN_BITS = 14_000


def shown(value) -> str:
    """repr(value), but an integer wider than MAX_SHOWN_BITS by its bit length."""
    bits = value.bit_length() if type(value) is int else 0
    return repr(value) if bits <= MAX_SHOWN_BITS else f"a {bits}-bit integer"


class _Block:
    """What every catalogued kind declares: a ``label``, a ``b_plus`` when it
    is almost complex, and overrides of these defaults, those of a block
    without SW data.

    ``class_key=None`` selects the block's distinguished class.  ``tag`` is
    the JSON ``"type"``, ``fields`` the other JSON keys (by default the
    integer record fields), ``required`` those that must be present;
    ``from_json`` returns the block and the characteristic coordinates of
    its spin-c structure (None for the default), and ``to_json`` takes
    those coordinates back.
    """

    fields: tuple[str, ...] = ()
    required: tuple[str, ...] = ()
    almost_complex = False
    neutral = False  # b1 = b2 = 0: the block contributes the identity to every sum

    def sw_value(self, class_key):
        raise UnknownSW(f"{self.label} carries no SW data")

    def sw_parity(self, class_key=None) -> Parity | None:
        try:
            return Parity(self.sw_value(class_key) % 2)
        except UnknownSW:
            return None

    def odd_classes(self) -> tuple[int, ...]:
        raise UnknownSW(f"{self.label} does not declare a complete odd basic set")

    @classmethod
    def from_json(cls, raw: dict):
        # the constructors reject a field that is not an integer
        return cls(*(raw[key] for key in cls.fields)), None

    def to_json(self, coords) -> dict:
        return {"type": self.tag, **{key: getattr(self, key) for key in self.fields}}


@record
class EllipticSurface(_Block):
    """Simply connected minimal elliptic surface E(p_g; m, n).

    ``p_g >= 0`` is the geometric genus; ``m <= n`` are the coprime
    multiplicities of the multiple fibers (1 means no log transform).  The
    constructor swaps m > n with a warning; a manifold file refuses them.
    Basic-class data exists for p_g >= 1 only; p_g = 0 blocks carry unknown
    SW.  The distinguished class is the largest multiple (value 1); a chosen
    multiple must have the parity of the table multiples, otherwise it is not
    characteristic.
    """

    p_g: int
    m: int
    n: int

    tag = "elliptic"
    fields = required = ("p_g", "m", "n")
    almost_complex = True

    def __post_init__(self):
        if not type(self.p_g) is type(self.m) is type(self.n) is int:
            for name in self.fields:
                _int_field(getattr(self, name), name)
        if self.p_g < 0:
            raise InvalidParameters(f"p_g must be >= 0, got {self.p_g}")
        if self.m < 1 or self.n < 1:
            raise InvalidParameters("fiber multiplicities must be >= 1")
        if self.m > self.n:
            warnings.warn(
                f"multiplicities given as ({self.m}, {self.n}); normalizing to m <= n",
                stacklevel=3,  # the caller of the generated __init__
            )
            m, n = self.n, self.m
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "n", n)
        if gcd(self.m, self.n) != 1:
            raise InvalidParameters(
                f"multiplicities must be coprime, got ({self.m}, {self.n})"
            )

    @property
    def label(self) -> str:
        if self == K3:
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
        key = _integer(class_key, "elliptic class keys are fiber multiples (integers)")
        a = _genus_index(self.p_g, self.m, self.n, key)
        return 0 if a is None else comb(self.p_g - 1, a)

    def sw_parity(self, class_key=None) -> Parity | None:
        if self.p_g < 1:
            return None
        if class_key is None:
            return Parity.ODD
        key = _integer(class_key, "elliptic class keys are fiber multiples (integers)")
        if (key - max_multiple(self.p_g, self.m, self.n)) % 2 != 0:
            raise InvalidParameters(
                f"multiple {shown(key)} is not characteristic on "
                f"{self.label}: its parity differs from the table's"
            )
        a = _genus_index(self.p_g, self.m, self.n, key)
        odd = a is not None and odd_binomial(self.p_g - 1, a)
        return Parity.ODD if odd else Parity.EVEN

    def odd_classes(self) -> tuple[int, ...]:
        if self.p_g < 1:
            raise UnknownSW(f"{self.label}: no declared odd basic data for p_g = 0")
        return recognizable_set(self.p_g, self.m, self.n)

    @classmethod
    def from_json(cls, raw: dict):
        # a file must state m <= n, as basic-classes does
        p_g, m, n = raw["p_g"], raw["m"], raw["n"]
        if type(m) is type(n) is int and m > n:
            cls(p_g, n, m)  # the constructor's other checks first, with their texts
            raise InvalidParameters(f"multiplicities must satisfy m <= n, got ({m}, {n})")
        return cls(p_g, m, n), None


K3 = EllipticSurface(1, 1, 1)


class _K3Shorthand(_Block):
    """The JSON tag ``k3``: K3 without fields.  K3 serializes as elliptic."""

    tag = "k3"

    @staticmethod
    def from_json(raw: dict):
        return K3, None


@record
class SymplecticGeneric(_Block):
    """Symplectic block with b1 = 0; only the canonical class, which is also
    the distinguished class, carries declared SW data: SW = 1 (sign
    convention fixed to +1)."""

    b_plus: int

    tag = "symplectic"
    fields = required = ("b_plus",)
    almost_complex = True

    def __post_init__(self):
        _int_field(self.b_plus, "b_plus")
        if self.b_plus < 1 or self.b_plus % 2 == 0:
            raise InvalidParameters(
                f"b_plus of a symplectic block must be odd and positive, got {self.b_plus}"
            )

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
    fields = ("b_plus", "odd_basic")
    required = ("b_plus",)
    almost_complex = True

    def __post_init__(self):
        _int_field(self.b_plus, "b_plus")
        if self.b_plus < 1 or self.b_plus % 2 == 0:
            raise InvalidParameters(
                f"b_plus of a Kaehler block must be odd and positive, got {self.b_plus}"
            )
        labels = tuple(sorted({_int_field(x, "odd_basic entry") for x in self.odd_basic}))
        object.__setattr__(self, "odd_basic", labels)

    @property
    def label(self) -> str:
        return f"kaehler(b+={self.b_plus})"

    def sw_parity(self, class_key=None) -> Parity | None:
        if class_key is not None:
            key = _integer(class_key, "Kaehler class keys are c^2 labels (integers)")
            return Parity.ODD if key in self.odd_basic else Parity.EVEN
        return Parity.ODD if self.odd_basic else Parity.EVEN

    sw_value = sw_parity

    def odd_classes(self) -> tuple[int, ...]:
        return self.odd_basic

    @classmethod
    def from_json(cls, raw: dict):
        labels = raw.get("odd_basic", [])
        if not isinstance(labels, list):
            raise InvalidParameters("odd_basic must be a list")
        odd_basic = tuple(_int_field(x, "odd_basic entry") for x in labels)
        return cls(raw["b_plus"], odd_basic), None


@record
class NegativeDefinite(_Block):
    """Negative definite diagonal block of the given rank, b1 = 0.  It takes
    spin-c data (the ``c`` coordinates) instead of a class key."""

    rank: int

    tag = "negative_definite"
    fields = ("rank", "c")
    required = ("rank",)

    def __post_init__(self):
        _int_field(self.rank, "rank")
        if self.rank < 0:
            raise InvalidParameters(f"rank must be >= 0, got {self.rank}")

    @property
    def label(self) -> str:
        return f"negative-definite(rank={self.rank})"

    @property
    def neutral(self) -> bool:
        return self.rank == 0

    @classmethod
    def from_json(cls, raw: dict):
        block = cls(raw["rank"])
        if "c" not in raw:
            return block, None
        coords = raw["c"]
        if not isinstance(coords, list):
            raise InvalidParameters("c must be a list of integers")
        return block, tuple(_int_field(x, "coordinate") for x in coords)

    def to_json(self, coords) -> dict:
        out: dict = {"type": self.tag, "rank": self.rank}
        if coords is not None:
            out["c"] = list(coords)
        return out


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

#: JSON tag -> the declaration that parses it
JSON_KINDS = {kind.tag: kind for kind in (*BuildingBlock.__args__, _K3Shorthand)}


def _catalogued(block) -> _Block:
    if not isinstance(block, _Block):
        raise UncataloguedBlock(f"not a catalogued building block: {block!r}")
    return block


def odd_binomial(n: int, k: int) -> bool:
    """True iff binomial(n, k) is odd, decided by the bit test k AND n == k.

    Works for arbitrarily large inputs without evaluating the binomial;
    k > n (a bit of k outside n) yields false.

    >>> odd_binomial(10, 2)
    True
    >>> odd_binomial(4, 2)
    False
    """
    if n < 0 or k < 0:
        return False
    return (k & n) == k


def _check_table_params(p_g: int, m: int, n: int) -> None:
    if p_g < 1:
        raise InvalidParameters(
            f"basic-class data requires geometric genus >= 1, got p_g = {p_g}"
        )
    if m < 1 or n < 1:
        raise InvalidParameters("fiber multiplicities must be >= 1")
    if m > n:
        raise InvalidParameters(f"multiplicities must satisfy m <= n, got ({m}, {n})")
    if gcd(m, n) != 1:
        raise InvalidParameters(f"multiplicities must be coprime, got ({m}, {n})")


def max_multiple(p_g: int, m: int, n: int) -> int:
    """Largest basic-class multiple, attained at a = b = c = 0."""
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


def _key_blocks(p_g: int, m: int, n: int, rows, value):
    """The listing in ascending key order, as (keys, values) runs, one per block.

    For coprime m, n each residue t mod mn has exactly one s = b*n + c*m
    (b < m, c < n), and s is t or t + mn (CRT; h[t] = 0 or 1).  So r = a*mn + s
    sits in block j = a + h[t] at position t, and the key top - 2r ascends as
    (j, t) descends.  ``rows`` are the wanted a, descending; ``value(a)``,
    asked for 0 <= a <= p_g only, is row a's value, falsy for a row left out.
    A block with two distinct values fills them in by the slices that build h;
    one with a single value, or two equal ones (odd sets'), repeats it.
    """
    mn = m * n
    # the c >= ceil((m - b) n / m) wrap past mn: h[t] = 1 on these slices
    wraps = [(slice(b * n % m, b * n, m), b * n // m) for b in range(1, m)]
    h = bytearray(mn)
    for span, count in wraps:
        h[span] = b"\x01" * count
    high = h[::-1]  # block position i holds t = mn - 1 - i
    low = high.translate(bytes.maketrans(b"\0\1", b"\1\0"))
    top = max_multiple(p_g, m, n)
    last = None
    for a in rows:
        for j in (a,) if a + 1 == last else (a + 1, a):
            start = top - 2 * (j * mn + mn - 1)
            keys = range(start, start + 2 * mn, 2)
            v_low, v_high = value(j), j and value(j - 1)
            if not v_low:
                yield compress(keys, high), repeat(v_high)
            elif not v_high:
                yield compress(keys, low), repeat(v_low)
            elif v_low == v_high:
                yield keys, repeat(v_low)
            else:
                values = [v_low] * mn
                for span, count in wraps:
                    values[span] = [v_high] * count
                yield keys, reversed(values)
        last = a


@lru_cache(maxsize=None)
def _table_entries(p_g: int, m: int, n: int) -> tuple[tuple[int, int], ...]:
    blocks = _key_blocks(p_g, m, n, range(p_g - 1, -1, -1), partial(comb, p_g - 1))
    return tuple(chain.from_iterable(starmap(zip, blocks)))


@record
class BasicClassTable:
    """|SW| values on the line of fiber multiples, keyed by the multiple."""

    p_g: int
    m: int
    n: int
    entries: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def value(self, multiple: int) -> int:
        """Exact |SW| value at a multiple; 0 when absent from the table."""
        a = _genus_index(self.p_g, self.m, self.n, multiple)
        return 0 if a is None else comb(self.p_g - 1, a)

    @property
    def multiples(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def max_multiple(self) -> int:
        return self.entries[-1][0]


def basic_class_table(p_g: int, m: int, n: int) -> BasicClassTable:
    """Full basic-class table of E(p_g; m, n), p_g >= 1, coprime m <= n.

    Contains exactly p_g * m * n distinct multiples with their |SW| values,
    value 1 at the largest multiple; symmetric under negation with equal
    values (the signed values differ by (-1)^(p_g-1)).

    >>> basic_class_table(3, 1, 1).entries
    ((-2, 1), (0, 2), (2, 1))
    """
    _check_table_params(p_g, m, n)
    return BasicClassTable(p_g, m, n, _table_entries(p_g, m, n))


def _submasks(x: int):
    """The a with a AND x == a, descending: the odd entries of row x (Lucas)."""
    a = x
    while a:
        yield a
        a = (a - 1) & x
    yield 0


@lru_cache(maxsize=None)
def _recognizable(p_g: int, m: int, n: int) -> tuple[int, ...]:
    blocks = _key_blocks(p_g, m, n, _submasks(p_g - 1), partial(odd_binomial, p_g - 1))
    return tuple(chain.from_iterable(keys for keys, _ in blocks))


def _odd_count(p_g: int, m: int, n: int) -> int:
    """Size of the recognizable set, 2^popcount(p_g - 1) m n, without building it."""
    _check_table_params(p_g, m, n)
    return 2 ** (p_g - 1).bit_count() * m * n


def recognizable_set(p_g: int, m: int, n: int) -> tuple[int, ...]:
    """The multiples whose SW value is odd, sorted ascending.

    >>> recognizable_set(3, 1, 1)
    (-2, 2)
    >>> recognizable_set(1, 2, 3)
    (-7, -3, -1, 1, 3, 7)
    """
    _check_table_params(p_g, m, n)
    return _recognizable(p_g, m, n)


def sw_value(block: BuildingBlock, class_key):
    """Seiberg-Witten datum of a block at a chosen class (None: its
    distinguished class): an exact integer for elliptic blocks (0 off the
    table) and symplectic blocks, a ``Parity`` for Kaehler blocks; UnknownSW
    where the block declares none."""
    return _catalogued(block).sw_value(class_key)


def sw_parity(block: BuildingBlock, class_key=None) -> Parity | None:
    """SW parity of a block at a chosen class (None: its distinguished
    class, see the block classes); None when undetermined."""
    return _catalogued(block).sw_parity(class_key)
