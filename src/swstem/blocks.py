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

A lookup at one multiple inverts the key map in O(1) (``_genus_index``) and
an odd-SW set is counted by its closed form.  These closed forms are
``swstem._elliptic``'s, bound here too, so that a listing or a recognition
loads them without the block kinds.  The listing half is ``swstem._listing``,
loaded on first use: ``odd_classes`` imports it when it runs, and the six
public listing names (``_LISTING``) are forwarded on first read (PEP 562).
Reading and answering for a manifold loads this module, its closed forms and
no listing.
"""

from __future__ import annotations

import enum
from typing import Union

from ._elliptic import _abs_sw, _check_multiplicities, _genus_index, _odd_size, _triple_ints
from ._elliptic import max_multiple, odd_binomial
from ._record import record
from .errors import MAX_SHOWN_BITS, InvalidParameters, UncataloguedBlock, UnknownSW, as_tuple
from .errors import _EnumType, exact_int, narrow_int, shown

#: class key selecting the canonical class of a symplectic block
CANONICAL = "canonical"


class Parity(enum.Enum, metaclass=_EnumType):
    EVEN = 0
    ODD = 1


_PARITIES = _EVEN, _ODD = tuple(Parity)  # bound once: an enum lookup on its class is slow


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
        return _odd_size(self.p_g, self.m, self.n)

    def odd_classes(self) -> tuple[int, ...]:
        from ._listing import recognizable_set

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
        raise UncataloguedBlock(f"not a catalogued building block: {shown(block)}")
    return block


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


#: the listing names read here, each defined in ``_listing``
_LISTING = frozenset(
    ("BasicClassTable", "MAX_LISTING", "MAX_LISTING_BITS", "basic_class_table", "odd_class_sets",
     "recognizable_set")
)


def __getattr__(name: str):
    if name not in _LISTING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _listing

    value = globals()[name] = getattr(_listing, name)
    return value
