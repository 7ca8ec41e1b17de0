"""Exception types shared across the package.

Every error raised on purpose by this library derives from SwStemError, so
callers (and the CLI) can map domain failures to a single exit code.
``exact_int`` is the library's one test for an exact integer argument,
``narrow_int`` the one for block integers and spin-c coordinates, and
``as_tuple`` the one for an argument that lists integers.  A message names
an integer through ``shown``, so that one too wide to print is named by its
bit length, and a value nested too deeply to print by its type.  Every enum
of the package is of the type ``_EnumType``, which refuses a value that
names no member with InvalidParameters, named through ``shown``.
"""

from __future__ import annotations

import enum


class SwStemError(Exception):
    """Base class for all domain errors raised by this package."""


class IndexNotIntegral(SwStemError):
    """c^2 - signature is not divisible by 8.

    Signals a class that cannot be the first Chern class of a spin-c
    structure on the given intersection form.
    """


class InvalidParameters(SwStemError):
    """Arguments violate a documented precondition (range, coprimality, order)."""


#: the widest integer printed; str() refuses over 4,300 digits (14,284 bits)
MAX_SHOWN_BITS = 14_000


def shown(value) -> str:
    """repr(value), but an integer wider than MAX_SHOWN_BITS by its bit length,
    and a value nested too deeply for repr by its type.

    >>> shown(-7), shown(10**5000)
    ('-7', 'a 16610-bit integer')
    """
    bits = value.bit_length() if isinstance(value, int) else 0
    if bits > MAX_SHOWN_BITS:
        return f"a {bits}-bit integer"
    try:
        return repr(value)
    except RecursionError:  # a list nested about as deep as the JSON decoder admits
        return f"a {type(value).__name__} nested too deeply to show"


def exact_int(value, what: str) -> int:
    """``value`` when it is exactly an int; InvalidParameters naming ``what``
    otherwise.  Floats, strings and bools (an int subclass) are refused.

    >>> exact_int(7, "rank")
    7
    >>> exact_int(True, "rank")  # doctest: +ELLIPSIS
    Traceback (most recent call last):
    ...
    swstem.errors.InvalidParameters: rank must be an integer, ...
    """
    if type(value) is not int:
        raise InvalidParameters(f"{what} must be an integer, got {shown(value)}")
    return value


def as_tuple(value, what: str) -> tuple:
    """``value`` as a tuple (itself when it is one); InvalidParameters naming
    ``what`` when it is not iterable.  Its items are the caller's to check.

    >>> as_tuple([3, 1], "coordinates")
    (3, 1)
    """
    if type(value) is tuple:
        return value
    try:
        return tuple(value)
    except TypeError:
        raise InvalidParameters(f"{what} must be iterable, got {type(value).__name__}") from None


#: the widest block integer or spin-c coordinate: their sums and squares still print
MAX_INPUT_BITS = 7_000


def narrow_int(value, what: str) -> int:
    """``exact_int(value, what)``, refused past MAX_INPUT_BITS bits."""
    if exact_int(value, what).bit_length() > MAX_INPUT_BITS:
        raise InvalidParameters(f"{what} has more than {MAX_INPUT_BITS} bits")
    return value


class _EnumType(enum.EnumMeta):
    """The type of the package's enums: a call on one value returns its
    member, and refuses a value that names none with InvalidParameters,
    which names it through ``shown``.  ``enum`` itself formats the value's
    repr first, so an int too wide to print or a list nested too deeply
    would escape as its own error.  A call with more arguments is the
    functional API, unchanged."""

    def __call__(cls, value, *args, **kwargs):
        if args or kwargs:
            return super().__call__(value, *args, **kwargs)
        try:
            return cls._value2member_map_[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            if isinstance(value, cls):
                return value
        raise InvalidParameters(f"{shown(value)} is not a valid {cls.__qualname__}")


class UnknownSW(SwStemError):
    """The block kind carries no Seiberg-Witten data for the queried class."""


class UncataloguedBlock(SwStemError):
    """An object that is not one of the catalogued building blocks."""


class PositiveIndexOnNegativeDefinite(SwStemError):
    """Spin-c data on a negative definite block implies d > 0, which is impossible
    for a characteristic vector; the input data is inconsistent."""


class PreconditionNotMet(SwStemError):
    """The splitting analysis only covers total classes eta^2 and eta^3."""


class NotAnEllipticPattern(SwStemError):
    """The multiple pattern is not the odd-SW set of any odd-genus elliptic surface."""


class ManifoldSyntaxError(SwStemError):
    """Malformed JSON in a manifold description; carries line and column if known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ManifoldSemanticError(SwStemError):
    """Well-formed JSON that does not describe a valid connected sum."""

    def __init__(self, message: str, block_index: int | None = None):
        if block_index is not None:
            message = f"summand {block_index}: {message}"
        super().__init__(message)
        self.block_index = block_index
