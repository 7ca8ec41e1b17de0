"""The one writer of JSON text, for manifold files and ``--json`` documents."""

from json.encoder import encode_basestring


def json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True)`` byte
    for byte for str-keyed dicts, lists, tuples, ints, strs and bools, without
    json.dumps' pure-Python encoder (a generator per level before Python 3.13).
    ``newline`` is the line break at the value's depth: a value nested two
    levels down, as a summand in a file, passes ``"\\n    "``."""
    inner = newline + "  "
    if type(value) is dict:
        items = [
            f"{encode_basestring(key)}: "
            + (repr(v) if type(v) is int else encode_basestring(v) if type(v) is str
               else json_text(v, inner))
            for key, v in sorted(value.items())
        ]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    if type(value) in (list, tuple):
        items = [repr(v) if type(v) is int else json_text(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    if type(value) is bool:
        return "true" if value else "false"
    return encode_basestring(value) if type(value) is str else int.__repr__(value)
