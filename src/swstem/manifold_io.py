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

Unknown keys are rejected everywhere, at top level and inside summands.
``odd_basic`` (a list of c^2 labels) is optional and defaults to empty;
``c`` (the characteristic coordinates of a negative definite block, one odd
integer per rank) is optional and defaults to the unit vector.  Parsing is
strict and total: malformed JSON raises ManifoldSyntaxError with line and
column, a well-formed but invalid description raises ManifoldSemanticError
with the offending summand's index.  The canonical text, json.dumps' sorted
indent-2 form, is written directly, not by json.dumps' pure-Python encoder.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from ._record import record
from .blocks import JSON_KINDS
from .errors import (
    InvalidParameters,
    ManifoldSemanticError,
    ManifoldSyntaxError,
)
from .invariants import ConnectedSum, Summand
from .lattice import SpinC

_TOP_KEYS = {"summands", "name", "notes"}


@record
class ManifoldDoc:
    """A parsed manifold description; ``name`` and ``notes`` are strings or
    None (absent)."""

    summands: tuple[Summand, ...]
    name: str | None = None
    notes: str | None = None

    def __post_init__(self):
        for field_name in ("name", "notes"):
            if not isinstance(getattr(self, field_name), (str, type(None))):
                raise InvalidParameters(f"'{field_name}' must be a string or None")

    def to_connected_sum(self) -> ConnectedSum:
        return ConnectedSum(self.summands)


def _parse_summand(raw: object, index: int) -> Summand:
    if not isinstance(raw, dict):
        raise ManifoldSemanticError("summands must be JSON objects", index)
    tag = raw.get("type")
    kind = JSON_KINDS.get(tag) if isinstance(tag, str) else None
    if kind is None:
        known = ", ".join(sorted(JSON_KINDS))
        raise ManifoldSemanticError(
            f"unknown summand type {tag!r}; expected one of: {known}", index
        )
    for key in raw:
        if key != "type" and key not in kind.fields:
            raise ManifoldSemanticError(
                f"unknown key {key!r} on a {tag!r} summand", index
            )
    for key in kind.required:
        if key not in raw:
            raise ManifoldSemanticError(
                f"missing key {key!r} on a {tag!r} summand", index
            )
    try:
        block, coords = kind.from_json(raw)
        spin_c = None if coords is None else SpinC.from_coords(coords)
        return Summand(block, spin_c=spin_c)
    except InvalidParameters as exc:
        raise ManifoldSemanticError(str(exc), index) from exc


def parse_manifold(text: str) -> ManifoldDoc:
    """Parse a manifold description from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifoldSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:
        # an integer past the digit limit; drop the interpreter's advice after
        # ";" (sys.set_int_max_str_digits), which a file's author cannot act on
        detail = str(exc).partition(";")[0]
        raise ManifoldSyntaxError(f"integer literal too long: {detail}") from exc
    except RecursionError as exc:
        raise ManifoldSyntaxError(str(exc)) from exc  # nesting past the recursion limit
    if not isinstance(raw, dict):
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
    summands = tuple(
        _parse_summand(entry, index) for index, entry in enumerate(summands_raw)
    )
    return ManifoldDoc(summands, raw.get("name"), raw.get("notes"))


def _field(key: str, value) -> str:
    """``"key": value`` for a string, an int or a list of ints (one per line)."""
    if type(value) is str:
        value = _quote(value)
    elif type(value) is not int:
        items = ",\n        ".join(map(repr, value))
        value = f"[\n        {items}\n      ]" if items else "[]"
    return f"{_quote(key)}: {value}"


def serialize_manifold(doc: ManifoldDoc) -> str:
    """Canonical JSON text for a manifold description.

    The text is ``json.dumps(raw, indent=2, sort_keys=True) + "\\n"`` byte for
    byte, written directly: with ``indent`` set, json.dumps runs its
    pure-Python encoder (a generator per nesting level) before Python 3.13,
    which cost more than parsing the text or computing its invariant.
    ``parse_manifold(serialize_manifold(doc))`` returns an equal document.
    """
    summands = []
    for s in doc.summands:
        raw = s.block.to_json(None if s.spin_c is None else s.spin_c.c_coords)
        fields = ",\n      ".join(_field(key, raw[key]) for key in sorted(raw))
        summands.append(f"{{\n      {fields}\n    }}")
    top = {"name": doc.name, "notes": doc.notes}  # sorted keys
    lines = [f'  "{key}": {_quote(text)}' for key, text in top.items() if text is not None]
    listed = ",\n    ".join(summands)
    lines.append(f'  "summands": [\n    {listed}\n  ]' if summands else '  "summands": []')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def load_manifold(path: str) -> ManifoldDoc:
    """Read and parse a manifold file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ManifoldSyntaxError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_manifold(text)
