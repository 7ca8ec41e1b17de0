"""Strict JSON descriptions of connected sums.

A manifold file is a single JSON object::

    {
      "name": "two K3s",            // optional
      "notes": "free-form text",    // optional
      "summands": [                 // required, nonempty
        {"type": "k3"},
        {"type": "elliptic", "p_g": 3, "m": 1, "n": 1},
        {"type": "symplectic", "b_plus": 7},
        {"type": "kaehler", "b_plus": 3, "odd_basic": [0]},
        {"type": "negative_definite", "rank": 1, "c": [3]},
        {"type": "s4"}
      ]
    }

This module alone reads and writes the format.  A summand's ``type`` is its
kind's ``tag``, its other keys the kind's record fields, optional where the
class gives a default (``odd_basic``, a list of c^2 labels, defaults to
empty).  ``k3`` is K3 and takes no key, as ``s4`` takes none.  A negative
definite summand also takes ``c``, its characteristic coordinates (one odd
integer per rank; default the unit vector).  Unknown and repeated keys are
rejected everywhere (json.loads alone would keep a repeated key's last
value).  Parsing is strict and total: malformed JSON raises
ManifoldSyntaxError with line and column, a well-formed but invalid
description raises ManifoldSemanticError with the offending summand's index.
A file is written by ``json_text``, the package's one JSON writer, from each
summand's record fields, "type" and ``c``, so a ``ManifoldDoc`` holds no class
key and no spin-c data but ``c``.

A summand object whose values are exact ints or lists of them is interned:
its first parse runs every check, and every later equal object, in any file
of the process, parses to the same shared, frozen ``Summand``.  Any other
object (a bool, a float, a nested list, ...) is checked as it stands, so
every refusal reads as it would with nothing held.  The table holds at most
1,024 summands, each keyed by at most 16 words of ints, and drops its oldest
entry first.  A written summand keeps its own text: the first file written
that holds a summand, parsed or built by hand, writes its text once, and
every later file joins that text.
"""

from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring_ascii

from ._json_text import json_text
from ._record import record
from .blocks import K3, BuildingBlock, NegativeDefinite
from .errors import (
    InvalidParameters,
    ManifoldSemanticError,
    ManifoldSyntaxError,
)
from .invariants import ConnectedSum, Summand
from .lattice import SpinC

_TOP_KEYS = {"summands", "name", "notes"}


def _kind_format(kind, *extra: str) -> tuple:
    """(kind, its fields without a class default, those with one, every key
    admitted); the defaulted and ``extra`` are int lists."""
    fields = kind._record_fields
    lists = tuple(key for key in fields if key in vars(kind))
    required = fields[: len(fields) - len(lists)]  # a record's defaults come last
    return kind, required, lists, frozenset((*fields, *extra, "type"))


#: summand "type" -> (kind, required keys, list keys, keys admitted)
_KINDS = {kind.tag: _kind_format(kind) for kind in BuildingBlock.__args__}
_KINDS[NegativeDefinite.tag] = _kind_format(NegativeDefinite, "c")
# K3 is a block, not a kind: its "constructor" takes no key and returns it; it
# is written as the elliptic block it is
_KINDS["k3"] = (lambda: K3), (), (), frozenset({"type"})


@record
class ManifoldDoc:
    """A parsed manifold description; ``name`` and ``notes`` are strings or
    None (absent).  ``summands`` pass ``ConnectedSum``'s check (nonempty,
    every entry a ``Summand``) and become a tuple; the checked sum is kept
    for ``to_connected_sum``, so every record has a canonical text."""

    summands: tuple[Summand, ...]
    name: str | None = None
    notes: str | None = None

    def __post_init__(self):
        for field_name in ("name", "notes"):
            if not isinstance(getattr(self, field_name), (str, type(None))):
                raise InvalidParameters(f"'{field_name}' must be a string or None")
        csum = ConnectedSum(self.summands)
        for s in csum.summands:  # what serialize_manifold cannot write
            if s.class_key is not None or s.spin_c is not None and s.spin_c.c_coords is None:
                raise InvalidParameters("a file holds no class key and no spin-c data but c")
        object.__setattr__(self, "summands", csum.summands)
        object.__setattr__(self, "_csum", csum)

    def to_connected_sum(self) -> ConnectedSum:
        return self._csum


class _Repeats(dict):
    """A JSON object in which ``key`` (an attribute) appears more than once."""


def _object(pairs: list) -> dict:
    """json's object hook: the object as a dict, a ``_Repeats`` if a key repeats."""
    raw = dict(pairs)
    if len(raw) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raw = _Repeats(raw)
        raw.key = next(key for key, count in counts.items() if count > 1)
    return raw


# built once: json.loads(text, object_pairs_hook=...) builds a decoder per call
_decode = json.JSONDecoder(object_pairs_hook=_object).decode


#: the intern table's bounds: summands held, and the weight of the ints their
#: keys hold, in 64-bit words (``_words``).  A summand is held only when its
#: key weighs at most _HELD_WORDS // _HELD_SUMMANDS (16) words, so a bound on
#: the count bounds the weight.  A held summand's text writes no int but its
#: key's (and K3's three), so it is at most 128 characters and 32 a word
_HELD_SUMMANDS = 1024
_HELD_WORDS = 1 << 14
_SCALARS = {int, str}
_INTS = {int}


def _key(raw: object) -> frozenset | None:
    """A summand object's key in the intern table, or None: its (key, value)
    pairs, a list value as a tuple.  Every value is an exact int, a string or
    a list of exact ints, so an equal key is an equal object of the same types
    (an int equals a bool or a float that no kind admits).  A string anywhere
    but "type" never parses, so no such key is ever held."""
    if type(raw) is not dict:  # a _Repeats too
        return None
    items = []
    for name, value in raw.items():
        if type(value) is list:
            # an int weighs a word at least
            if len(value) > _HELD_WORDS // _HELD_SUMMANDS or not _INTS.issuperset(map(type, value)):
                return None
            value = (*value,)
        elif type(value) not in _SCALARS:
            return None
        items.append((name, value))
    return frozenset(items)


def _words(key: frozenset) -> int:
    """The weight of the ints a key holds, in 64-bit words: one for each
    scalar and each 64 bits of its width, one for each int of a list and each
    64 bits of their widths' sum."""
    words = 0
    for _, value in key:
        if type(value) is tuple:
            words += len(value) + sum(map(int.bit_length, value)) // 64
        elif type(value) is int:
            words += 1 + value.bit_length() // 64
    return words


#: the intern table: a summand object's key -> its ``Summand``, oldest first
_HELD: dict = {}


def _parse_held(key: frozenset | None, raw: object, index: int) -> Summand:
    """A summand object not held: checked as it stands, then held if it has
    a key of few enough words, in place of the oldest when the table is full."""
    summand = _parse_summand(raw, index)
    if key is not None and _words(key) <= _HELD_WORDS // _HELD_SUMMANDS:
        if len(_HELD) >= _HELD_SUMMANDS:
            del _HELD[next(iter(_HELD))]
        _HELD[key] = summand
    return summand


def _parse_summand(raw: object, index: int) -> Summand:
    if type(raw) is not dict:  # _object builds every JSON object
        if type(raw) is _Repeats:
            raise ManifoldSemanticError(f"repeated key {raw.key!r}", index)
        raise ManifoldSemanticError("summands must be JSON objects", index)
    tag = raw.get("type")
    entry = _KINDS.get(tag) if isinstance(tag, str) else None
    if entry is None:
        known = ", ".join(sorted(_KINDS))
        raise ManifoldSemanticError(
            f"unknown summand type {tag!r}; expected one of: {known}", index
        )
    kind, required, lists, allowed = entry
    if not raw.keys() <= allowed:
        key = next(key for key in raw if key not in allowed)  # the first in the file
        raise ManifoldSemanticError(f"unknown key {key!r} on a {tag!r} summand", index)
    try:
        args = [*map(raw.__getitem__, required)]
    except KeyError as exc:  # map stops at the first missing key, in field order
        raise ManifoldSemanticError(
            f"missing key {exc.args[0]!r} on a {tag!r} summand", index
        ) from None
    try:
        # the constructors reject a value that is not an integer
        for key in lists:
            if key in raw:
                if type(raw[key]) is not list:
                    raise InvalidParameters(f"{key} must be a list")
                args.append(raw[key])
        block = kind(*args)
        if "c" not in raw:
            return Summand(block)
        if type(raw["c"]) is not list:
            raise InvalidParameters("c must be a list of integers")
        return Summand(block, SpinC.from_coords(raw["c"]))
    except InvalidParameters as exc:
        raise ManifoldSemanticError(str(exc), index) from exc


def parse_manifold(text: str) -> ManifoldDoc:
    """Parse a manifold description from JSON text."""
    if text.startswith("\ufeff"):  # json.loads refuses it; the decoder alone would not say why
        raise ManifoldSyntaxError("Unexpected UTF-8 BOM (decode using utf-8-sig)", 1, 1)
    try:
        raw = _decode(text)
    except json.JSONDecodeError as exc:
        raise ManifoldSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:
        # an integer past the digit limit; drop the interpreter's advice after
        # ";" (sys.set_int_max_str_digits), which a file's author cannot act on
        detail = str(exc).partition(";")[0]
        raise ManifoldSyntaxError(f"integer literal too long: {detail}") from exc
    except RecursionError as exc:
        raise ManifoldSyntaxError(str(exc)) from exc  # nesting past the recursion limit
    if type(raw) is not dict:
        if type(raw) is _Repeats:
            raise ManifoldSemanticError(f"repeated key {raw.key!r}")
        raise ManifoldSemanticError("a manifold description is a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ManifoldSemanticError(f"unknown top-level key {key!r}")
    if "summands" not in raw:
        raise ManifoldSemanticError("missing top-level key 'summands'")
    summands_raw = raw["summands"]
    if not isinstance(summands_raw, list) or not summands_raw:
        raise ManifoldSemanticError("'summands' must be a nonempty list")
    for field_name in ("name", "notes"):
        if field_name in raw and not isinstance(raw[field_name], str):
            raise ManifoldSemanticError(f"'{field_name}' must be a string")
    summands = [  # held, or parsed now and held if it can be
        _HELD.get(key := _key(obj)) or _parse_held(key, obj, index)
        for index, obj in enumerate(summands_raw)
    ]
    return ManifoldDoc(summands, raw.get("name"), raw.get("notes"))


def _summand_text(summand: Summand) -> str:
    """A summand's text at its depth in a file, kept on it as ``_text``: its
    record fields, "type" and ``c``.  Every key and tag is ASCII, so json_text
    writes them as encode_basestring_ascii would."""
    block, spin_c = summand.block, summand.spin_c
    raw = {**vars(block), "type": block.tag}  # a record keeps its fields there, by name
    if spin_c is not None:  # ManifoldDoc admits it with coordinates only
        raw["c"] = spin_c.c_coords
    text = json_text(raw, "\n    ")
    object.__setattr__(summand, "_text", text)  # as Summand keeps _parity
    return text


def serialize_manifold(doc: ManifoldDoc) -> str:
    """Canonical JSON text for a manifold description: json.dumps' sorted
    indent-2 text of its raw dict plus a newline, each summand's text written
    by json_text.  ``parse_manifold(serialize_manifold(doc))`` returns an equal document."""
    head = "".join(f'  "{key}": {encode_basestring_ascii(text)},\n'
                   for key, text in (("name", doc.name), ("notes", doc.notes)) if text is not None)
    # a summand's text is written once, by the first file written that holds it
    body = ",\n    ".join([getattr(s, "_text", None) or _summand_text(s) for s in doc.summands])
    return f'{{\n{head}  "summands": [\n    {body}\n  ]\n}}\n'


def load_manifold(path: str) -> ManifoldDoc:
    """Read and parse a manifold file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ManifoldSyntaxError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except ValueError as exc:  # a NUL in the path, which names no file
        raise OSError(f"{path!r}: {exc}") from exc
    return parse_manifold(text)
