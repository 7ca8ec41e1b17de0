"""Integer arithmetic on the second cohomology of closed oriented 4-manifolds.

Three formulas drive everything downstream, all in exact arbitrary-precision
integers:

* the complex index of the spin-c Dirac operator, d = (c^2 - sign) / 8,
* the expected dimension of the monopole moduli space, k = 2d - (b+ - b1 + 1),
* the characteristic condition for vectors on diagonal negative definite
  forms (all coordinates odd, c^2 = -sum of squares).

A stably almost complex structure is almost complex exactly when k = 0.
"""

from __future__ import annotations

from ._record import record
from .errors import IndexNotIntegral, InvalidParameters, as_tuple, exact_int, narrow_int, shown

#: the c_square ``from_coords`` passes: the constructor derives it from the coordinates
_FROM_COORDS = object()


@record
class SpinC:
    """First-Chern-class data of a spin-c structure, reduced to c^2.

    ``c_coords``, when present, are the coordinates of c in a diagonal basis
    of a negative definite form.  The characteristic condition c.x = x.x
    (mod 2) on the standard basis forces every coordinate to be odd, and then
    c_square must equal minus the sum of squares.  Without coordinates,
    c_square is refused past MAX_INPUT_BITS bits, as a block integer is.
    """

    c_square: int
    c_coords: tuple[int, ...] | None = None

    def __post_init__(self):
        derived = self.c_square is _FROM_COORDS
        if self.c_coords is None and not derived:
            narrow_int(self.c_square, "c_square")
            return
        if not derived:
            exact_int(self.c_square, "c_square")
        coords = _odd_coordinates(self.c_coords)
        object.__setattr__(self, "c_coords", coords)
        square = -sum(x * x for x in coords)
        if derived:
            object.__setattr__(self, "c_square", square)
        elif self.c_square != square:
            raise InvalidParameters(
                f"c_square = {shown(self.c_square)} does not match -sum of squared "
                f"coordinates = {square}"
            )

    @classmethod
    def from_coords(cls, coords) -> "SpinC":
        """c^2 from the coordinates; the constructor checks them once."""
        return cls(c_square=_FROM_COORDS, c_coords=coords)


def _odd_coordinates(raw) -> tuple[int, ...]:
    """The coordinates as a tuple, checked to be odd integers (not bools)."""
    coords = as_tuple(raw, "coordinates")
    for x in coords:
        if narrow_int(x, "coordinate") % 2 == 0:
            raise InvalidParameters(
                f"coordinate {x} is even; characteristic vectors on a diagonal "
                "negative definite form have odd coordinates"
            )
    return coords


def dirac_index(c_square: int, signature: int) -> int:
    """Complex index (c^2 - sign) / 8 of the spin-c Dirac operator.

    Raises IndexNotIntegral unless c^2 is congruent to the signature mod 8,
    which is exactly the obstruction to c being characteristic.

    >>> dirac_index(0, -16)
    2
    >>> dirac_index(-9, -1)
    -1
    """
    for value in (c_square, signature):
        if type(value) is not int:
            raise InvalidParameters(f"the Dirac index takes integers, got {shown(value)}")
    diff = c_square - signature
    if diff % 8 != 0:
        raise IndexNotIntegral(
            f"c^2 - signature = {shown(diff)} is not divisible by 8; "
            "no spin-c structure has this Chern class"
        )
    return diff // 8


def expected_dimension(d: int, b_plus: int, b1: int) -> int:
    """Expected dimension 2d - (b+ - b1 + 1) of the monopole moduli space.
    A pure formula on integers already checked: it checks no argument types."""
    return 2 * d - (b_plus - b1 + 1)

