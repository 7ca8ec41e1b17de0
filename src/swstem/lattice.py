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
class TopProfile:
    """Betti-number profile (b1, b+, b-) of a closed oriented 4-manifold.

    ``b_minus`` is None when the catalogue does not determine it; the
    signature is derived from b+ - b- and is likewise None in that case.
    """

    b1: int
    b_plus: int
    b_minus: int | None = None

    def __post_init__(self):
        if self.b1 < 0 or self.b_plus < 0:
            raise InvalidParameters("Betti numbers must be non-negative")
        if self.b_minus is not None and self.b_minus < 0:
            raise InvalidParameters("b_minus must be non-negative when known")

    @property
    def signature(self) -> int | None:
        if self.b_minus is None:
            return None
        return self.b_plus - self.b_minus


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


def is_almost_complex_profile(d: int, b_plus: int, b1: int) -> bool:
    """True when the expected dimension vanishes, i.e. the stably almost
    complex structure with these indices is realized by an almost complex one.

    >>> is_almost_complex_profile(2, 3, 0)
    True
    """
    return expected_dimension(d, b_plus, b1) == 0
