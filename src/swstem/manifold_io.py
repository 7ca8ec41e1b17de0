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
key and no spin-c data but ``c``.  The writer is imported on a summand's first
write, so reading a file loads none.

A text is decoded once, each JSON object the tuple of its (key, value) pairs;
the top level and a summand not held below become dicts through the
repeated-key check.  A summand that may hold an object has each object in its
values, at any depth, made a dict first, so that a message shows it as one.

A summand object whose values are exact ints or lists of them is interned:
its first parse runs every check, and every later object with the same pairs
in the same order, in any file of the process, parses to the same shared,
frozen ``Summand``, keyed by the pairs the decoder gave.  One summand written
in two key orders is held twice; files written by ``serialize_manifold`` sort
their keys, so they share their keys.  Any other object (a bool, a float, a
nested list, ...) is checked as it stands, so every refusal reads as it would
with nothing held.
The table holds at most 1,024 summands, each keyed by at most 16 words of
ints, and drops its oldest entry first.  A written summand keeps its own
text: the first file written that holds a summand, parsed or built by hand,
writes its text once, and every later file joins that text.
"""

from __future__ import annotations

import json
import os
from collections import Counter, OrderedDict
from json.encoder import encode_basestring_ascii

from ._record import record
from .blocks import K3, BuildingBlock, NegativeDefinite
from .errors import InvalidParameters, ManifoldSemanticError, ManifoldSyntaxError, shown
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


def _object(pairs: tuple, index: int | None = None) -> dict:
    """An object's pairs as a dict; refused, as summand ``index`` or the
    top level, if a key repeats."""
    raw = dict(pairs)
    if len(raw) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        key = next(key for key, count in counts.items() if count > 1)
        raise ManifoldSemanticError(f"repeated key {key!r}", index)
    return raw


def _with_dicts(raw: dict) -> None:
    """Makes each object in ``raw``'s values, at any depth, the dict of its pairs
    (a repeated key's last value kept), as a message shows it.  It rewrites one
    container at a time, in place, so no depth overflows the stack."""
    stack = [raw]
    while stack:
        container = stack.pop()
        for slot, item in container.items() if type(container) is dict else enumerate(container):
            if type(item) is tuple:
                container[slot] = item = dict(item)
            if type(item) is dict or type(item) is list:
                stack.append(item)


# built once: json.loads(text, object_pairs_hook=...) builds a decoder per call
_pairs = json.JSONDecoder(object_pairs_hook=tuple).decode


#: the intern table's bounds: summands held, and the weight of the ints their
#: keys hold, in 64-bit words (``_words``).  A summand is held only when its
#: key weighs at most _HELD_WORDS // _HELD_SUMMANDS (16) words, so a bound on
#: the count bounds the weight.  A held summand's text writes no int but its
#: key's (and K3's three), so it is at most 128 characters and 32 a word
_HELD_SUMMANDS = 1024
_HELD_WORDS = 1 << 14
_SCALARS = {int, str}
_INTS = {int}


def _key(pairs: object) -> tuple | None:
    """A summand object's key in the intern table, or None: its (key, value)
    pairs as the decoder gave them, a list value as a tuple.  Every value is
    an exact int, a string or a list of exact ints, so an equal key is an
    equal object of the same types, its names in the same order (an int
    equals a bool or a float that no kind admits).  A held key is the pairs
    of an object that parsed, so it repeats no name.  A string anywhere but
    "type" never parses, so no such key is ever held."""
    if type(pairs) is not tuple:  # not an object, so refused
        return None
    for _, value in pairs:  # faster than a C-level test of so few values
        if type(value) not in _SCALARS:
            items = []
            for name, value in pairs:
                if type(value) is list:  # an int weighs a word at least
                    if len(value) > _HELD_WORDS // _HELD_SUMMANDS or {*map(type, value)} - _INTS:
                        return None
                    value = (*value,)
                elif type(value) not in _SCALARS:
                    return None
                items.append((name, value))
            return (*items,)
    return pairs


def _words(key: tuple) -> int:
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


#: the intern table: a summand object's key -> its ``Summand``, oldest first.
#: An ``OrderedDict`` drops its oldest entry in one C call (``popitem``), so
#: two threads that fill it at once never drop the same key twice
_HELD: OrderedDict = OrderedDict()


def _parse_held(key: tuple | None, raw: object, index: int) -> Summand:
    """A summand object not held: checked as it stands, then held if it has
    a key of few enough words, in place of the oldest when the table is full."""
    summand = _parse_summand(raw, index, key is None)
    if key is not None and _words(key) <= _HELD_WORDS // _HELD_SUMMANDS:
        _HELD[key] = summand
        # held, then trimmed: each thread trims after its own insertion, so
        # the bound holds once every thread has returned
        while len(_HELD) > _HELD_SUMMANDS:
            _HELD.popitem(last=False)
    return summand


def _parse_summand(pairs: object, index: int, unkeyed: bool) -> Summand:
    if type(pairs) is not tuple:  # a JSON object decodes as its pairs
        raise ManifoldSemanticError("summands must be JSON objects", index)
    raw = _object(pairs, index)
    if unkeyed:  # no key in the intern table (_key), so it may hold an object
        _with_dicts(raw)
    tag = raw.get("type")
    entry = _KINDS.get(tag) if isinstance(tag, str) else None
    if entry is None:
        known = ", ".join(sorted(_KINDS))
        raise ManifoldSemanticError(
            f"unknown summand type {shown(tag)}; expected one of: {known}", index
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


def _parse(text: str) -> ManifoldDoc:
    """The document ``text`` describes."""
    try:
        raw = _pairs(text)
    except json.JSONDecodeError as exc:
        raise ManifoldSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:
        # an integer past the digit limit; drop the interpreter's advice after
        # ";" (sys.set_int_max_str_digits), which a file's author cannot act on
        detail = str(exc).partition(";")[0]
        raise ManifoldSyntaxError(f"integer literal too long: {detail}") from exc
    except RecursionError as exc:
        raise ManifoldSyntaxError(str(exc)) from exc  # nesting past the recursion limit
    if type(raw) is not tuple:  # a JSON object decodes as its pairs
        raise ManifoldSemanticError("a manifold description is a JSON object")
    raw = _object(raw)
    for key in raw:
        if key not in _TOP_KEYS:
            raise ManifoldSemanticError(f"unknown top-level key {key!r}")
    if "summands" not in raw:
        raise ManifoldSemanticError("missing top-level key 'summands'")
    summands = raw["summands"]
    if not isinstance(summands, list) or not summands:
        raise ManifoldSemanticError("'summands' must be a nonempty list")
    for field_name in ("name", "notes"):
        if field_name in raw and not isinstance(raw[field_name], str):
            raise ManifoldSemanticError(f"'{field_name}' must be a string")
    for index, obj in enumerate(summands):  # in place of its pairs: held, or parsed now
        summands[index] = _HELD.get(key := _key(obj)) or _parse_held(key, obj, index)
    return ManifoldDoc(summands, raw.get("name"), raw.get("notes"))


def parse_manifold(text: str) -> ManifoldDoc:
    """Parse a manifold description from JSON text."""
    if not isinstance(text, str):  # load_manifold reads a file's bytes
        raise InvalidParameters(f"a manifold description is a str, got {type(text).__name__}")
    if text.startswith("\ufeff"):  # json.loads refuses it; the decoder alone would not say why
        raise ManifoldSyntaxError("Unexpected UTF-8 BOM (decode using utf-8-sig)", 1, 1)
    return _parse(text)


def _summand_text(summand: Summand) -> str:
    """A summand's text at its depth in a file, kept on it as ``_text``: its
    record fields, "type" and ``c``.  Every key and tag is ASCII, so json_text
    writes them as encode_basestring_ascii would."""
    from ._json_text import json_text

    block, spin_c = summand.block, summand.spin_c
    raw = {**vars(block), "type": block.tag}  # a record keeps its fields there, by name
    if spin_c is not None:  # ManifoldDoc admits it with coordinates only
        raw["c"] = spin_c.c_coords
    text = json_text(raw, "\n    ")
    object.__setattr__(summand, "_text", text)  # as Summand keeps _entry
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


def load_manifold(path: str | os.PathLike) -> ManifoldDoc:
    """Read and parse a manifold file, named by a str or a path, never a
    file descriptor."""
    try:
        path = os.fspath(path)
    except TypeError:  # open() would read an int as a descriptor, and close it
        kind = type(path).__name__
        raise InvalidParameters(f"a manifold file is named by a path, got {kind}") from None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ManifoldSyntaxError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except ValueError as exc:  # a NUL in the path, which names no file
        raise OSError(f"{path!r}: {exc}") from exc
    return parse_manifold(text)
