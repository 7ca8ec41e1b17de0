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
from .errors import IndexNotIntegral, InvalidParameters


@record
class SpinC:
    """First-Chern-class data of a spin-c structure, reduced to c^2.

    ``c_coords``, when present, are the coordinates of c in a diagonal basis
    of a negative definite form.  The characteristic condition c.x = x.x
    (mod 2) on the standard basis forces every coordinate to be odd, and then
    c_square must equal minus the sum of squares.
    """

    c_square: int
    c_coords: tuple[int, ...] | None = None

    def __post_init__(self):
        if type(self.c_square) is not int:
            raise InvalidParameters(f"c_square must be an integer, got {self.c_square!r}")
        if self.c_coords is None:
            return
        coords = _odd_coordinates(self.c_coords)
        object.__setattr__(self, "c_coords", coords)
        if self.c_square != -sum(x * x for x in coords):
            raise InvalidParameters(
                f"c_square = {self.c_square} does not match -sum of squared "
                f"coordinates = {-sum(x * x for x in coords)}"
            )

    @classmethod
    def from_coords(cls, coords) -> "SpinC":
        coords = _odd_coordinates(coords)
        return cls(c_square=-sum(x * x for x in coords), c_coords=coords)


def _odd_coordinates(raw) -> tuple[int, ...]:
    """The coordinates as a tuple, checked to be odd integers (not bools)."""
    coords = tuple(raw)
    for x in coords:
        if type(x) is not int:
            raise InvalidParameters(f"coordinate must be an integer, got {x!r}")
        if x % 2 == 0:
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
            raise InvalidParameters(f"the Dirac index takes integers, got {value!r}")
    diff = c_square - signature
    if diff % 8 != 0:
        raise IndexNotIntegral(
            f"c^2 - signature = {diff} is not divisible by 8; "
            "no spin-c structure has this Chern class"
        )
    return diff // 8


def expected_dimension(d: int, b_plus: int, b1: int) -> int:
    """Expected dimension 2d - (b+ - b1 + 1) of the monopole moduli space."""
    return 2 * d - (b_plus - b1 + 1)

