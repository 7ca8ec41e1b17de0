"""Strict manifold-description parsing and canonical serialization."""

import itertools
import json
import os
import random
import sys
import threading
import warnings
from collections import OrderedDict
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from swstem import _json_text, manifold_io
from swstem._json_text import json_text
from swstem._record import FrozenInstanceError
from swstem.blocks import (
    K3,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
    basic_class_table,
    recognizable_set,
    sw_parity,
)
from swstem.errors import (
    MAX_INPUT_BITS,
    InvalidParameters,
    ManifoldSemanticError,
    ManifoldSyntaxError,
)
from swstem.invariants import Summand, invariant
from swstem.lattice import SpinC
from swstem.manifold_io import (
    ManifoldDoc,
    load_manifold,
    parse_manifold,
    serialize_manifold,
)

# every test of the reader and writer also runs under the ci profile
pytestmark = pytest.mark.deep

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

FULL_DOC = """
{
  "name": "one of each",
  "notes": "exercises every descriptor",
  "summands": [
    {"type": "k3"},
    {"type": "elliptic", "p_g": 3, "m": 1, "n": 2},
    {"type": "symplectic", "b_plus": 7},
    {"type": "kaehler", "b_plus": 3, "odd_basic": [2, 0, 2]},
    {"type": "negative_definite", "rank": 2, "c": [3, -1]},
    {"type": "negative_definite", "rank": 1},
    {"type": "s4"}
  ]
}
"""


def test_parse_minimal():
    doc = parse_manifold('{"summands":[{"type":"k3"}]}')
    assert len(doc.summands) == 1
    assert doc.summands[0].block == EllipticSurface(1, 1, 1)
    assert doc.name is None


def test_parse_full_doc():
    doc = parse_manifold(FULL_DOC)
    assert doc.name == "one of each"
    assert doc.summands[1].block == EllipticSurface(3, 1, 2)
    assert doc.summands[3].block == KaehlerGeneric(3, (0, 2))
    assert doc.summands[4].block == NegativeDefinite(2)
    assert doc.summands[4].spin_c.c_square == -10
    assert doc.summands[5].spin_c is None
    invariant(doc.to_connected_sum())  # parses to a working sum


def test_round_trip_identity():
    doc = parse_manifold(FULL_DOC)
    assert parse_manifold(serialize_manifold(doc)) == doc


def test_serialize_deterministic():
    doc = parse_manifold(FULL_DOC)
    assert serialize_manifold(doc) == serialize_manifold(doc)


def test_serialize_emits_k3_as_elliptic():
    text = serialize_manifold(parse_manifold('{"summands":[{"type":"k3"}]}'))
    assert '"type": "elliptic"' in text
    assert '"p_g": 1' in text


def test_negative_definite_coordinates():
    doc = parse_manifold(
        '{"summands":[{"type":"negative_definite","rank":1,"c":[3]}]}'
    )
    assert doc.summands[0].spin_c.c_square == -9


def test_syntax_error_position():
    with pytest.raises(ManifoldSyntaxError) as exc:
        parse_manifold('{"summands": [\n  {"type": "k3"},\n]}')
    assert exc.value.line == 3
    assert exc.value.column == 1
    assert "line 3, column 1" in str(exc.value)


def test_a_byte_order_mark_is_refused_as_json_loads_refuses_it():
    with pytest.raises(ManifoldSyntaxError) as exc:
        parse_manifold('\ufeff{"summands": [{"type": "k3"}]}')
    assert str(exc.value) == "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"


@pytest.mark.parametrize(
    "text, name",
    [
        (b'{"summands": [{"type": "k3"}]}', "bytes"),
        (bytearray(b'{"summands": [{"type": "k3"}]}'), "bytearray"),
        (None, "NoneType"),
        (5, "int"),
        (['{"summands": [{"type": "k3"}]}'], "list"),
    ],
    ids=["bytes", "bytearray", "none", "int", "list"],
)
def test_a_description_that_is_not_text_is_refused_by_its_type(text, name):
    # load_manifold reads a file's bytes as UTF-8; parse_manifold takes text alone
    with pytest.raises(InvalidParameters) as exc:
        parse_manifold(text)
    assert str(exc.value) == f"a manifold description is a str, got {name}"


@pytest.mark.parametrize("path, name", [(True, "bool"), (None, "NoneType"), ([], "list")])
def test_a_file_is_named_by_a_path_not_a_descriptor(path, name):
    read, write = os.pipe()
    os.write(write, b'{"summands": [{"type": "k3"}]}')
    os.close(write)  # a descriptor read to its end, were it read
    try:
        for value, kind in ((read, "int"), (path, name)):
            with pytest.raises(InvalidParameters) as exc:
                load_manifold(value)
            assert str(exc.value) == f"a manifold file is named by a path, got {kind}"
        os.fstat(read)  # neither read nor closed, nor is stdout
        os.fstat(1)
    finally:
        os.close(read)
    assert load_manifold(SAMPLES / "k3x2.json") == load_manifold(str(SAMPLES / "k3x2.json"))


def test_semantic_error_carries_block_index():
    with pytest.raises(ManifoldSemanticError) as exc:
        parse_manifold(
            '{"summands":[{"type":"k3"},'
            '{"type":"elliptic","p_g":3,"m":2,"n":4}]}'
        )
    assert exc.value.block_index == 1
    assert str(exc.value).startswith("summand 1: ")


@pytest.mark.parametrize(
    "p_g, m, n, message",
    [
        (3, 3, 2, "multiplicities must satisfy m <= n, got (3, 2)"),
        # every other check comes first, with its message unchanged
        (3, 3.0, 2, "m must be an integer, got 3.0"),
        (3, 3, "2", "n must be an integer, got '2'"),
        (3, True, 2, "m must be an integer, got True"),
        (-1, 3, 2, "p_g must be >= 0, got -1"),
        (3, 3, 0, "fiber multiplicities must be >= 1"),
        (3, 4, 2, "multiplicities must satisfy m <= n, got (4, 2)"),
    ],
)
def test_a_file_refuses_m_greater_than_n(p_g, m, n, message):
    raw = {"summands": [{"type": "k3"}, {"type": "elliptic", "p_g": p_g, "m": m, "n": n}]}
    with pytest.raises(ManifoldSemanticError) as exc:
        parse_manifold(json.dumps(raw))
    assert exc.value.block_index == 1
    assert str(exc.value) == f"summand 1: {message}"


def _refusal(build) -> str | None:
    """The text an entry point refuses with, None when it accepts."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no entry point warns
        try:
            build()
        except (InvalidParameters, ManifoldSemanticError) as exc:
            return str(exc)
    return None


@pytest.mark.parametrize(
    "p_g, m, n",
    [
        (p_g, m, n)
        for p_g in (0, 1, 3)
        for m, n in [
            (2, 3), (1, 1),  # accepted
            (3, 2), (4, 2), (6, 4), (4, 4),  # m > n, some with a shared factor
            (2, 4), (0, 2), (2, 0), (0, 0), (-1, 2), (3, -2),
            (2.0, 3), (2, 3.0), (True, 3), (1, False), ("2", 3), (None, 3),
        ]
    ]
    + [(1.0, 2, 3), (True, 2, 3), (-1, 3, 2), (3.0, 3, 2)]
    + [(2**7000, 2, 3), (1, 2**7000 + 1, 2**7000 + 3)],  # past the input width
)
def test_every_entry_point_reads_a_triple_one_way(p_g, m, n):
    refusal = _refusal(lambda: EllipticSurface(p_g, m, n))
    raw = {"summands": [{"type": "k3"}, {"type": "elliptic", "p_g": p_g, "m": m, "n": n}]}
    in_file = _refusal(lambda: parse_manifold(json.dumps(raw)))
    assert in_file == (refusal and f"summand 1: {refusal}")
    if type(p_g) is int and p_g < 1:
        return  # the tables need p_g >= 1, which the constructor does not
    assert _refusal(lambda: basic_class_table(p_g, m, n)) == refusal
    assert _refusal(lambda: recognizable_set(p_g, m, n)) == refusal


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"summands": [{"type": "k3"}, '
            '{"type": "elliptic", "p_g": 3, "m": 1, "n": 1, "p_g": 2}]}',
            "summand 1: repeated key 'p_g'",
        ),
        ('{"summands": [{"type": "k3", "type": "s4"}]}', "summand 0: repeated key 'type'"),
        (
            '{"summands": [{"type": "elliptic", "p_g": 3, "m": 1, "n": 1}], '
            '"summands": [{"type": "k3"}]}',
            "repeated key 'summands'",
        ),
        ('{"name": "a", "summands": [{"type": "k3"}], "name": "a"}', "repeated key 'name'"),
    ],
    ids=["in-summand", "type", "summands", "name"],
)
def test_a_repeated_key_is_refused(text, message):
    with pytest.raises(ManifoldSemanticError) as exc:
        parse_manifold(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("name, notes", [(3, None), (None, ["n"]), (b"k3", "n")])
def test_manifold_doc_rejects_metadata_that_is_not_a_string(name, notes):
    with pytest.raises(InvalidParameters, match="must be a string or None"):
        ManifoldDoc((Summand(K3),), name, notes)


@pytest.mark.parametrize("field_name", ["name", "notes"])
@pytest.mark.parametrize("value", [3, None, ["n"]])
def test_a_file_refuses_metadata_that_is_not_a_string(field_name, value):
    raw = {"summands": [{"type": "k3"}], field_name: value}
    with pytest.raises(ManifoldSemanticError, match=f"^'{field_name}' must be a string$"):
        parse_manifold(json.dumps(raw))


@pytest.mark.parametrize(
    "text",
    [
        "[]",  # not an object
        '{"sums": []}',  # unknown top-level key
        '{"summands": []}',  # empty
        '{"summands": {}}',  # not a list
        '{"summands": [{"type": "k3"}], "name": 3}',  # name not a string
        '{"summands": [42]}',  # summand not an object
        '{"summands": [{"type": "torus"}]}',  # unknown type
        '{"summands": [{"type": ["k3"]}]}',  # unhashable type
        '{"summands": [{"type": "k3", "extra": 1}]}',  # unknown key
        '{"summands": [{"type": "elliptic", "p_g": 3}]}',  # missing keys
        '{"summands": [{"type": "symplectic", "b_plus": true}]}',  # bool
        '{"summands": [{"type": "symplectic", "b_plus": 7.0}]}',  # float
        '{"summands": [{"type": "symplectic", "b_plus": 4}]}',  # even b+
        '{"summands": [{"type": "kaehler", "b_plus": 3, "odd_basic": 0}]}',
        '{"summands": [{"type": "kaehler", "b_plus": 3, "odd_basic": [0.5]}]}',
        '{"summands": [{"type": "negative_definite", "rank": 2, "c": [3]}]}',
        '{"summands": [{"type": "negative_definite", "rank": 1, "c": [2]}]}',
        '{"summands": [{"type": "negative_definite", "rank": 1, "c": 3}]}',
    ],
)
def test_rejected_documents(text):
    with pytest.raises(ManifoldSemanticError):
        parse_manifold(text)


@pytest.mark.parametrize(
    "summand, message",
    [
        (
            {"type": "negative_definite", "rank": -1, "c": "x"},
            "rank must be >= 0, got -1",
        ),
        ({"type": "negative_definite", "rank": 1, "c": None}, "c must be a list of integers"),
        ({"type": "kaehler", "b_plus": 2, "odd_basic": 5}, "odd_basic must be a list"),
        ({"type": "kaehler", "b_plus": 3, "odd_basic": None}, "odd_basic must be a list"),
        ({"type": "k3", "p_g": 1}, "unknown key 'p_g' on a 'k3' summand"),
        ({"type": "elliptic", "p_g": 1, "m": 1}, "missing key 'n' on a 'elliptic' summand"),
        ({"type": "negative_definite"}, "missing key 'rank' on a 'negative_definite' summand"),
        ({"type": "s4", "rank": 0}, "unknown key 'rank' on a 's4' summand"),
        (
            {"type": "elliptic", "p_g": 1, "m": 1, "n": 1, "c": [1]},
            "unknown key 'c' on a 'elliptic' summand",
        ),
        (
            {"type": "negative_definite", "rank": 2, "c": [3]},
            "1 coordinates given for a rank-2 block",
        ),
        (
            {"type": 3},
            "unknown summand type 3; expected one of: "
            "elliptic, k3, kaehler, negative_definite, s4, symplectic",
        ),
        ({"type": "s4", "zeta": 1, "alpha": 2}, "unknown key 'zeta' on a 's4' summand"),
        ({"type": "elliptic", "p_g": 3}, "missing key 'm' on a 'elliptic' summand"),
        ({"type": "elliptic", "n": 1, "extra": 0}, "unknown key 'extra' on a 'elliptic' summand"),
    ],
    ids=[
        "rank-before-c",
        "c-null",
        "odd_basic-before-b_plus",
        "odd_basic-null",
        "key-on-k3",
        "missing-n",
        "missing-rank",
        "rank-on-s4",
        "c-on-elliptic",
        "too-few-coordinates",
        "type-not-a-string",
        "first-unknown-key-in-the-file",
        "first-missing-key-in-field-order",
        "unknown-before-missing",
    ],
)
def test_a_summand_is_refused_with_its_message(summand, message):
    raw = {"summands": [{"type": "k3"}, summand]}
    with pytest.raises(ManifoldSemanticError) as exc:
        parse_manifold(json.dumps(raw))
    assert exc.value.block_index == 1
    assert str(exc.value) == f"summand 1: {message}"


def test_fieldless_summands_are_shared_values():
    text = '{"summands": [{"type": "k3"}, {"type": "s4"}, {"type": "k3"}, {"type": "s4"}]}'
    k3, s4, k3_again, s4_again = parse_manifold(text).summands
    assert k3 is k3_again is parse_manifold(text).summands[0]
    assert s4 is s4_again
    for shared, fresh in ((k3, Summand(K3)), (s4, Summand(HomotopySphereLike()))):
        assert shared == fresh and hash(shared) == hash(fresh)
        with pytest.raises(FrozenInstanceError):
            shared.block = fresh.block


# the intern table: a summand object equal to a held one, in the Python sense
# (True == 1.0 == 1), is refused as it would be with nothing held
_WIDE = 2**MAX_INPUT_BITS


@pytest.mark.parametrize(
    "valid, near_miss, message",
    [
        (
            '{"type": "elliptic", "p_g": 1, "m": 1, "n": 1}',
            '{"type": "elliptic", "p_g": true, "m": 1, "n": 1}',
            "p_g must be an integer, got True",
        ),
        (
            '{"type": "elliptic", "p_g": 1, "m": 1, "n": 1}',
            '{"type": "elliptic", "p_g": 1.0, "m": 1, "n": 1}',
            "p_g must be an integer, got 1.0",
        ),
        (
            '{"type": "kaehler", "b_plus": 3, "odd_basic": [1]}',
            '{"type": "kaehler", "b_plus": 3, "odd_basic": [true]}',
            "odd_basic entry must be an integer, got True",
        ),
        (
            '{"type": "kaehler", "b_plus": 3, "odd_basic": [1]}',
            '{"type": "kaehler", "b_plus": 3, "odd_basic": [[1]]}',
            "odd_basic entry must be an integer, got [1]",
        ),
        (
            '{"type": "kaehler", "b_plus": 3, "odd_basic": [5]}',
            '{"type": "kaehler", "b_plus": 3, "odd_basic": 5}',
            "odd_basic must be a list",
        ),
        (
            '{"type": "negative_definite", "rank": 1, "c": [1]}',
            '{"type": "negative_definite", "rank": 1, "c": [true]}',
            "coordinate must be an integer, got True",
        ),
        (
            f'{{"type": "elliptic", "p_g": {_WIDE - 1}, "m": 1, "n": 1}}',
            f'{{"type": "elliptic", "p_g": {_WIDE}, "m": 1, "n": 1}}',
            f"p_g has more than {MAX_INPUT_BITS} bits",
        ),
        ('{"type": "k3"}', '{"type": "k3", "type": "k3"}', "repeated key 'type'"),
        (
            # each value of the repeated key alone gives a held summand
            '{"type": "elliptic", "p_g": 1, "m": 1, "n": 1}, '
            '{"type": "elliptic", "p_g": 3, "m": 1, "n": 1}',
            '{"type": "elliptic", "p_g": 1, "p_g": 3, "m": 1, "n": 1}',
            "repeated key 'p_g'",
        ),
        (
            '{"type": "elliptic", "p_g": 1, "m": 1, "n": 1}',
            '{"type": "elliptic", "p_g": {"a": 1}, "m": 1, "n": 1}',
            "p_g must be an integer, got {'a': 1}",
        ),
        (
            '{"type": "kaehler", "b_plus": 3, "odd_basic": [1]}',
            '{"type": "kaehler", "b_plus": 3, "odd_basic": [{"a": 1}]}',
            "odd_basic entry must be an integer, got {'a': 1}",
        ),
    ],
    ids=["bool", "float", "bool-in-list", "nested-list", "int-for-list", "bool-coordinate",
         "too-wide", "repeated-type", "repeated-held-values", "object-for-int", "object-in-list"],
)
def test_a_near_miss_of_a_held_summand_is_refused_as_before(valid, near_miss, message):
    text = f'{{"summands": [{valid}]}}'
    warm = parse_manifold(text).summands
    # held, but for the 6,999-bit twin of "too-wide": its key weighs 112
    # words, past an entry's 16, so it is parsed afresh each time
    held = [_weight(raw) <= _EACH for raw in json.loads(text)["summands"]]
    assert [a is b for a, b in zip(parse_manifold(text).summands, warm)] == held
    with pytest.raises(ManifoldSemanticError) as exc:
        parse_manifold(f'{{"summands": [{valid}, {near_miss}]}}')
    assert exc.value.block_index == len(warm)
    assert str(exc.value) == f"summand {len(warm)}: {message}"


def _elliptic(p_g: int) -> dict:
    return {"type": "elliptic", "p_g": p_g, "m": 1, "n": 1}


#: the most words a held key weighs: the table's words over its summands
_EACH = 16


def _held_key(raw: dict) -> tuple:
    """A summand object's key in the intern table, by hand: its pairs in file order."""
    return tuple((key, tuple(v) if type(v) is list else v) for key, v in raw.items())


def _weight(raw: dict) -> int:
    """A summand object's weight in words, by hand: a word for each int and
    each 64 bits of its width, the widths of a list's ints summed."""
    words = 0
    for value in raw.values():
        if type(value) is int:
            words += 1 + value.bit_length() // 64
        elif type(value) is list:
            words += len(value) + sum(x.bit_length() for x in value) // 64
    return words


@pytest.mark.parametrize(
    "raw",
    [
        _elliptic(3),
        {"type": "symplectic", "b_plus": 7},
        {"type": "kaehler", "b_plus": 3, "odd_basic": [2, 0]},
        {"type": "negative_definite", "rank": 2, "c": [3, -1]},
    ],
    ids=["elliptic", "symplectic", "kaehler", "negative-definite"],
)
def test_a_held_summand_in_any_key_order_is_the_same_summand(no_summand_held, raw):
    # an equal summand, written as one text; each key order is held as its own entry
    first = parse_manifold(json.dumps({"summands": [raw]}))
    written = serialize_manifold(first)
    orders = [{key: raw[key] for key in keys} for keys in itertools.permutations(raw)]
    for reordered in orders:
        text = json.dumps({"summands": [reordered]})
        (summand,) = parse_manifold(text).summands
        assert summand == first.summands[0]
        assert parse_manifold(text).summands[0] is summand
        assert no_summand_held[_held_key(reordered)] is summand
        assert serialize_manifold(ManifoldDoc([summand])) == written
    assert [*no_summand_held] == [*map(_held_key, orders)]


def test_a_summand_in_two_key_orders_is_two_equal_held_summands(no_summand_held):
    reordered = {"n": 1, "m": 1, "type": "elliptic", "p_g": 3}
    doc = parse_manifold(json.dumps({"summands": [_elliptic(3), reordered]}))
    first, second = doc.summands
    assert first == second and first is not second
    assert [*no_summand_held.values()] == [first, second]
    assert first._entry == second._entry
    assert serialize_manifold(doc) == _reference_text(doc)
    assert first._text == second._text


def test_a_sum_of_parsed_summands_shares_their_digest_entries(no_summand_held):
    text = json.dumps({"summands": [
        _elliptic(3), {"type": "k3"}, {"type": "s4"}, {"type": "kaehler", "b_plus": 3},
        _elliptic(3), {"type": "negative_definite", "rank": 1}, {"type": "k3"},
    ]})
    first, second = parse_manifold(text), parse_manifold(text)
    for doc in (first, second):
        csum = doc.to_connected_sum()
        assert len(csum._digest) == 5
        for s, entry in zip(csum._ac, csum._digest):
            assert entry is s._entry == (s.block, s.block.b_plus, sw_parity(s.block))
    # one tuple for each distinct summand, whichever sum holds it
    assert first.to_connected_sum()._digest[0] is second.to_connected_sum()._digest[3]


def test_a_held_summand_is_the_same_object_in_every_file(no_summand_held):
    text = json.dumps({"summands": [_elliptic(3), {"type": "s4"}, _elliptic(3)]})
    first, second = parse_manifold(text), parse_manifold(text)
    assert all(a is b for a, b in zip(first.summands, second.summands))
    assert first.summands[0] is first.summands[2]
    assert len(no_summand_held) == 2
    # a written file sorts its keys: every file read from it shares them
    written = serialize_manifold(first)
    again = parse_manifold(written)
    assert again == first and again.summands[0] is again.summands[2]
    assert again.summands[0] is not first.summands[0]  # the file's key order differs
    assert again.summands[1] is first.summands[1]  # {"type": "s4"} in either
    assert all(a is b for a, b in zip(parse_manifold(written).summands, again.summands))
    assert len(no_summand_held) == 3


def _check_accounts(held) -> None:
    """The table's bounds hold, and so does its count of words: each key
    weighs at least its ints (a word each, and one more for each 64 bits of
    each) and at most an entry's words, and a text written on a held summand
    is short for its weight."""
    assert manifold_io._HELD_WORDS // manifold_io._HELD_SUMMANDS == _EACH
    assert len(held) <= manifold_io._HELD_SUMMANDS
    for key, summand in held.items():
        words = manifold_io._words(key)
        ints = [v for _, v in key if type(v) is int]
        ints += [x for _, v in key if type(v) is tuple for x in v]
        assert sum(1 + x.bit_length() // 64 for x in ints) <= words <= _EACH
        text = getattr(summand, "_text", None)
        assert text is None or len(text) <= 128 + 32 * words
    assert sum(map(manifold_io._words, held)) <= manifold_io._HELD_WORDS


def test_the_table_holds_no_more_summands_than_its_bound(no_summand_held):
    bound = manifold_io._HELD_SUMMANDS
    docs = [[_elliptic(p_g) for p_g in range(start, start + 300)] for start in range(0, 2 * bound, 300)]
    for summands in docs:
        doc = parse_manifold(json.dumps({"summands": summands}))
        assert doc.summands == tuple(Summand(EllipticSurface(s["p_g"], 1, 1)) for s in summands)
        assert serialize_manifold(doc) == _reference_text(doc)
        _check_accounts(no_summand_held)
    assert len(no_summand_held) == bound  # the newest, the oldest dropped first
    assert _held_key(docs[-1][-1]) in no_summand_held
    assert _held_key(_elliptic(0)) not in no_summand_held


@pytest.mark.deep
def test_threads_parsing_through_a_full_table_each_get_their_documents(no_summand_held):
    # 4 threads, each parsing 40 files of 500 distinct summands: every
    # insertion into the full table drops its oldest entry, often at once
    threads, files, each = 4, 40, 500
    texts = [
        [
            json.dumps({"summands": [_elliptic(1 + ((t * files + f) * each + i)) for i in range(each)]})
            for f in range(files)
        ]
        for t in range(threads)
    ]
    alone = [[parse_manifold(text) for text in mine] for mine in texts]
    no_summand_held.clear()
    parse_manifold(json.dumps({"summands": [_elliptic(10**6 + p_g) for p_g in range(1024)]}))
    assert len(no_summand_held) == manifold_io._HELD_SUMMANDS  # full before the threads start
    start = threading.Barrier(threads)
    parsed = [[] for _ in range(threads)]
    raised = []

    def parse_all(mine, out):
        start.wait()
        try:
            out.extend(map(parse_manifold, mine))
        except BaseException as exc:  # any escape fails the test below
            raised.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=parse_all, args=args) for args in zip(texts, parsed)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    assert raised == []
    assert parsed == alone
    assert len(no_summand_held) <= manifold_io._HELD_SUMMANDS


@pytest.mark.parametrize(
    "labels, words",
    [
        # a list weighs 1 word an int and 1 for each 64 bits of them all; b_plus 1 word
        ([1] * 15, 16),  # an entry's words: 15, and 1
        ([2**896 + 1], 16),  # 897 bits: 1 + 14, and 1
        ([_WIDE - 1], 111),  # 7,000 bits: 1 + 109, and 1
        ([1] * 400, 407),  # a label repeated weighs as often as the file writes it: 400 + 6, and 1
        ([_WIDE - 1] * 4, 442),  # 4 + 437, and 1
    ],
    ids=["at-entry", "wide-at-entry", "wide", "repeated", "repeated-wide"],
)
def test_the_table_holds_no_more_words_than_its_bound(no_summand_held, labels, words):
    # a key of an entry's words is held, a heavier one never: the table's
    # words reach their bound only when it holds its most summands, each of
    # an entry's words
    bound = manifold_io._HELD_SUMMANDS
    count = bound + 100 if words <= _EACH else 200
    held = [{"type": "kaehler", "b_plus": 2 * i + 1, "odd_basic": labels} for i in range(count)]
    assert {_weight(raw) for raw in held} == {words}
    for start in range(0, count, 300):
        doc = parse_manifold(json.dumps({"summands": held[start:start + 300]}))
        assert doc.summands[0] == Summand(KaehlerGeneric(2 * start + 1, tuple(labels)))
        assert serialize_manifold(doc) == _reference_text(doc)
        _check_accounts(no_summand_held)
    weights = [*map(manifold_io._words, no_summand_held)]
    if words <= _EACH:
        assert weights == [words] * bound and sum(weights) == manifold_io._HELD_WORDS
        assert [*no_summand_held][0] == _held_key(held[count - bound])  # the oldest dropped
    else:
        assert weights == []


@pytest.mark.parametrize(
    "labels",
    [
        [1] * 16,  # one word past an entry's: 16, and b_plus 1
        [2**960 + 1],  # 961 bits: 1 + 15, and 1
        [1] * 17,  # a list longer than an entry's words is refused before it is weighed
        list(range(-2500, 2501)),
        [1] * 513,
        [_WIDE - 1 - 2 * i for i in range(5)],
        [_WIDE - 1] * 4096,
    ],
    ids=["one-past", "wide-one-past", "longer", "many", "repeated", "wide", "repeated-wide"],
)
def test_a_summand_past_the_words_of_an_entry_is_parsed_and_not_held(no_summand_held, labels):
    raw = {"type": "kaehler", "b_plus": 3, "odd_basic": labels}
    assert _weight(raw) > _EACH
    text = json.dumps({"summands": [raw]})
    doc = parse_manifold(text)
    assert doc.summands == (Summand(KaehlerGeneric(3, tuple(labels))),)
    assert serialize_manifold(doc) == _reference_text(doc)
    assert no_summand_held == {}
    assert parse_manifold(text).summands[0] is not doc.summands[0]


def _capped_summand(rng: random.Random) -> dict:
    """A summand object whose key weighs at most an entry's words; about one
    in two hundred is refused (m and n share a factor)."""
    kind = rng.randrange(20)
    if kind == 0:
        return {"type": rng.choice(["k3", "s4"])}
    if kind < 5:  # p_g weighs up to 14 words
        m, n = rng.choice([(1, 1), (1, 2), (2, 3), (3, 5)] * 6 + [(2, 4)])
        return {"type": "elliptic", "p_g": rng.getrandbits(rng.choice([8, 64, 895])), "m": m, "n": n}
    if kind < 9:  # up to 16 words
        return {"type": "symplectic", "b_plus": 2 * rng.getrandbits(rng.choice([8, 64, 1022])) + 1}
    if kind < 12:
        rank = rng.randrange(15)
        raw = {"type": "negative_definite", "rank": rank}
        if rank and rng.random() < 0.8:
            raw["c"] = [rng.randrange(-99, 100, 2) for _ in range(rank)]
        return raw
    raw = {"type": "kaehler", "b_plus": rng.randrange(1, 16, 2)}
    width, most = rng.choice([(3, 15), (3, 15), (64, 7), (500, 1)])  # up to 15, 14 and 8 words
    labels = [rng.getrandbits(width) - 4 for _ in range(rng.randint(0, most))]
    if labels or rng.random() < 0.5:
        raw["odd_basic"] = labels
    return raw


def _weighed_insert(held: OrderedDict, words_held: int, raw: dict) -> int:
    """``raw`` parsed into the intern table as it was weighed before each key
    was capped: at most 1,024 summands and 2^14 words, no key over 512 words,
    the oldest dropped first until a new key fits.  Returns the words held."""
    key, words = _held_key(raw), _weight(raw)
    if key in held or words > 512:
        return words_held
    while len(held) >= 1024 or words_held + words > 2**14:
        words_held -= held.popitem(last=False)[1]
    held[key] = words
    return words_held + words


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_capped_table_holds_what_the_weighed_one_held(rng):
    # streams of summand objects of at most an entry's words, a fifth of them
    # repeats; about a fifth hold more distinct objects than the table does
    rng = random.Random(rng.getrandbits(64))  # drawn by hypothesis, then fast
    size = rng.randint(1, 1_000) if rng.random() < 0.7 else rng.randint(1_300, 2_000)
    pool = [_capped_summand(rng) for _ in range(size)]
    assert max(map(_weight, pool)) <= _EACH
    stream = [pool[rng.randrange(i + 1)] if rng.random() < 0.2 else raw for i, raw in enumerate(pool)]
    weighed, words_held = OrderedDict(), 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manifold_io, "_HELD", OrderedDict())
        while stream:
            cut = rng.randint(1, 400)  # summands a file
            summands, stream = stream[:cut], stream[cut:]
            try:
                parse_manifold(json.dumps({"summands": summands}))
            except ManifoldSemanticError as exc:  # each before the refused one is parsed
                refused = exc.block_index
                summands, stream = summands[:refused], summands[refused + 1:] + stream
            for raw in summands:
                words_held = _weighed_insert(weighed, words_held, raw)
            assert [*manifold_io._HELD] == [*weighed]
        held = manifold_io._HELD
    assert len(held) <= manifold_io._HELD_SUMMANDS == 1024
    assert max(map(manifold_io._words, held), default=0) <= _EACH


def test_a_held_text_is_written_once_by_the_first_file_written(no_summand_held):
    text = json.dumps({"summands": [_elliptic(3), {"type": "k3"}]})
    first = parse_manifold(text)
    held = [*no_summand_held.values()]
    assert held == [*first.summands]
    assert [getattr(s, "_text", None) for s in held] == [None, None]  # parsing writes none
    written = serialize_manifold(first)
    assert written == _reference_text(first)
    texts = [s._text for s in held]
    assert serialize_manifold(parse_manifold(text)) == written
    assert all(a is b for a, b in zip(held, no_summand_held.values()))
    assert all(a is b._text for a, b in zip(texts, no_summand_held.values()))


def test_a_summand_text_is_written_once_whoever_built_the_document(no_summand_held, monkeypatch):
    written = []

    def counted(value, *args):
        written.append(value["type"])
        return json_text(value, *args)

    monkeypatch.setattr(_json_text, "json_text", counted)
    e3, k3 = Summand(EllipticSurface(3, 1, 1)), Summand(K3)
    by_hand = ManifoldDoc([e3, k3, e3], name="by hand")
    first = serialize_manifold(by_hand)
    assert serialize_manifold(by_hand) == first == _reference_text(by_hand)
    assert written == ["elliptic", "elliptic"]  # one text each for e3 and k3, the first write
    # a parsed summand and a hand-built document holding it share one text
    parsed = parse_manifold(json.dumps({"summands": [_elliptic(5), {"type": "s4"}]}))
    shared = ManifoldDoc([Summand(SymplecticGeneric(7)), parsed.summands[0]])
    assert serialize_manifold(shared) == _reference_text(shared)
    text = parsed.summands[0]._text
    assert serialize_manifold(parsed) == _reference_text(parsed)
    assert shared.summands[1]._text is text is parsed.summands[0]._text
    assert written == ["elliptic", "elliptic", "symplectic", "elliptic", "s4"]
    serialize_manifold(shared), serialize_manifold(parsed), serialize_manifold(by_hand)
    assert len(written) == 5


def test_a_kaehler_label_past_the_input_width_is_refused():
    edge = -(2**MAX_INPUT_BITS - 1)
    doc = ManifoldDoc([Summand(KaehlerGeneric(3, (edge,)))])
    assert parse_manifold(serialize_manifold(doc)) == doc
    too_wide = f"odd_basic entry has more than {MAX_INPUT_BITS} bits"
    with pytest.raises(InvalidParameters, match=f"^{too_wide}$"):
        serialize_manifold(ManifoldDoc([Summand(KaehlerGeneric(3, (10**5000,)))]))
    # a label that a file can still spell, but past the input width
    raw = {"summands": [{"type": "kaehler", "b_plus": 3, "odd_basic": [2**MAX_INPUT_BITS]}]}
    with pytest.raises(ManifoldSemanticError, match=f"^summand 0: {too_wide}$"):
        parse_manifold(json.dumps(raw))


def test_samples_all_load():
    sample_files = sorted(SAMPLES.glob("*.json"))
    assert len(sample_files) >= 6
    for path in sample_files:
        doc = load_manifold(str(path))
        assert isinstance(doc, ManifoldDoc)
        invariant(doc.to_connected_sum())
        assert parse_manifold(serialize_manifold(doc)) == doc


#: the README's format table: each kind's "type" and the keys it writes, in
#: any order (K3 is written as elliptic, a Kaehler block's odd_basic always)
_FORMAT_TABLE = {
    EllipticSurface: ("elliptic", ("p_g", "m", "n")),
    SymplecticGeneric: ("symplectic", ("b_plus",)),
    KaehlerGeneric: ("kaehler", ("b_plus", "odd_basic")),
    NegativeDefinite: ("negative_definite", ("rank",)),
    HomotopySphereLike: ("s4", ()),
}


def _reference_summand(summand: Summand) -> dict:
    tag, keys = _FORMAT_TABLE[type(summand.block)]
    raw = {"type": tag, **{key: getattr(summand.block, key) for key in keys}}
    if summand.spin_c is not None:
        raw["c"] = list(summand.spin_c.c_coords)
    return raw


def _reference_text(doc: ManifoldDoc) -> str:
    """The canonical text as the standard library writes it, from the format
    table alone."""
    raw: dict = {"summands": [_reference_summand(s) for s in doc.summands]}
    if doc.name is not None:
        raw["name"] = doc.name
    if doc.notes is not None:
        raw["notes"] = doc.notes
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


_odd = st.integers(-(10**6), 10**6).map(lambda x: 2 * x + 1)
# integers up to the 7,000-bit input limit, written by int.__repr__ like json.dumps
_wide = st.integers(2**6990, 2**7000 - 1)
_wide_odd = st.integers(2**6990, 2**6999 - 1).map(lambda x: 2 * x + 1)
_coprime = st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(
    lambda mn: gcd(*mn) == 1
).map(sorted)


@st.composite
def _negative_definite(draw):
    rank = draw(st.integers(0, 5))
    raw = {"type": "negative_definite", "rank": rank}
    if draw(st.booleans()):
        raw["c"] = draw(st.lists(_odd, min_size=rank, max_size=rank))
    return raw


def _kaehler(b_plus, odd_basic):
    raw = {"type": "kaehler", "b_plus": b_plus}
    if odd_basic is not None:
        raw["odd_basic"] = odd_basic
    return raw


_summand_json = st.one_of(
    st.just({"type": "k3"}),
    st.just({"type": "s4"}),
    st.builds(
        lambda p_g, mn: {"type": "elliptic", "p_g": p_g, "m": mn[0], "n": mn[1]},
        st.integers(0, 10**30) | _wide,
        _coprime,
    ),
    st.builds(lambda b: {"type": "symplectic", "b_plus": b}, _odd.map(abs) | _wide_odd),
    st.builds(
        _kaehler,
        _odd.map(abs) | _wide_odd,
        st.none()
        | st.lists(st.integers(-(10**20), 10**20) | _wide | _wide.map(int.__neg__), max_size=4),
    ),
    _negative_definite(),
)


@st.composite
def _document_json(draw):
    raw = {"summands": draw(st.lists(_summand_json, min_size=1, max_size=6))}
    for key in ("name", "notes"):
        if draw(st.booleans()):
            raw[key] = draw(st.text())
    return raw


# the first st.text() draw in a fresh checkout builds hypothesis's unicode
# table (about 2 s), which the generation-speed health check would count
_text_settings = settings(suppress_health_check=[HealthCheck.too_slow])


@_text_settings
@given(_document_json(), st.booleans())
def test_serialize_is_the_stdlib_indent_2_text(raw, ascii_input):
    doc = parse_manifold(json.dumps(raw, ensure_ascii=ascii_input))
    text = serialize_manifold(doc)
    assert text == _reference_text(doc)
    assert parse_manifold(text) == doc
    # a copy built by hand holds no entry of the table: each text is written anew
    assert serialize_manifold(ManifoldDoc(doc.summands, doc.name, doc.notes)) == _reference_text(doc)


# every type json_text writes for the command line; lone surrogates drawn on
# purpose (st.text skips them)
_any_text = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"]))
_writable = st.recursive(
    st.integers()
    | st.integers(2**64, 2**256)
    | st.integers(-(2**256), -(2**64))
    | st.booleans()
    | _any_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_any_text, inner, max_size=4),
    max_leaves=20,
)


@_text_settings
@given(_writable)
def test_json_text_is_the_stdlib_indent_2_text(value):
    text = json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True)
    assert json_text(value) == text


@pytest.mark.parametrize(
    "name",
    ['say "hi"', "back\\slash", "nul\x00tab\tnewline\n", "caf\u00e9", "\U0001f600", "\ud800", ""],
)
def test_serialize_escapes_names_like_the_stdlib(name):
    doc = ManifoldDoc(parse_manifold(FULL_DOC).summands, name, name)
    assert serialize_manifold(doc) == _reference_text(doc)


_NOT_IN_A_FILE = "a file holds no class key and no spin-c data but c"


@pytest.mark.parametrize(
    "summands, message",
    [
        (["x"], "not a summand: 'x'"),
        ((), "a connected sum needs at least one summand"),
        # data a file cannot hold, which the writer would drop: a class key,
        # and c^2 = -9 without coordinates (a gamma factor the re-read sum lacks)
        ([Summand(EllipticSurface(3, 1, 1), class_key=0)], _NOT_IN_A_FILE),
        ([Summand(K3), Summand(NegativeDefinite(1), SpinC(-9))], _NOT_IN_A_FILE),
    ],
    ids=["not-a-summand", "empty", "class-key", "spin-c-without-coordinates"],
)
def test_manifold_doc_checks_its_summands(summands, message):
    with pytest.raises(InvalidParameters, match=f"^{message}$"):
        ManifoldDoc(summands)


# hostile input: every JSON value, and summand objects one mistake away from valid
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.integers()
    | st.integers(10**3999, 10**4000)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
_bad_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.integers(-(10**4000), 10**4000),
    st.sampled_from([10**3999 + 1, -(10**3999) - 1, 0, -1, 2]),
    st.lists(st.integers(-5, 5) | st.floats() | st.booleans(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def _near_valid_summand(draw):
    raw = dict(draw(_summand_json))
    keys = sorted(raw)
    for key in draw(st.lists(st.sampled_from(keys), max_size=len(keys))):
        raw[key] = draw(_bad_scalars)
    extra = st.sampled_from(["c", "odd_basic", "p_g", "rank", "extra"])
    for key in draw(st.lists(extra, max_size=2)):
        raw[key] = draw(_bad_scalars)
    return raw


def _parses_or_refuses(text: str) -> None:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # parsing never warns
            doc = parse_manifold(text)
    except (ManifoldSyntaxError, ManifoldSemanticError):
        return
    assert isinstance(doc, ManifoldDoc)


@_text_settings
@given(_json_values | st.text())
def test_parse_arbitrary_json_raises_only_manifold_errors(value):
    _parses_or_refuses(value if isinstance(value, str) else json.dumps(value))
    _parses_or_refuses(json.dumps({"summands": [value]}))
    _parses_or_refuses(json.dumps({"summands": [{"type": "k3"}], "name": value}))


@_text_settings
@given(st.lists(_near_valid_summand(), min_size=1, max_size=3))
def test_parse_near_valid_summands_raises_only_manifold_errors(summands):
    _parses_or_refuses(json.dumps({"summands": summands}))


def _equal_value(value):
    """A value equal to ``value`` in Python (so hashed alike) but of another
    type: a float or a bool for an int, such items for a list's first ones
    (and a bool for an int too wide for a float, which nothing equals)."""
    if type(value) is list:
        if not value:
            return st.just(value)
        return st.integers(1, len(value)).flatmap(
            lambda k: st.tuples(*map(_equal_value, value[:k])).map(lambda head: [*head, *value[k:]])
        )
    if type(value) is int and abs(value) < 2**53:
        return st.sampled_from([float(value), *([bool(value)] if value in (0, 1) else [])])
    return st.just(True)


#: a JSON object in place of a value, or of a list's item: the decoder reads
#: it as the tuple of its pairs, and a refusal shows it as a dict
_json_object = st.dictionaries(st.sampled_from(["a", "type", "p_g"]), st.integers(-2, 2), max_size=2)


def _object_for(value):
    """``value`` swapped for a JSON object, or a list's first item for one."""
    if type(value) is list and value:
        return _json_object.map(lambda obj: [obj, *value[1:]])
    return _json_object


@st.composite
def _near_miss(draw):
    """A valid summand object, and one near it: some of its values swapped for
    an equal value of another type, a bad scalar or a JSON object, or a key
    repeated, with its value or another."""
    valid = draw(_summand_json)
    raw = dict(valid)
    keys = sorted(key for key in raw if key != "type")
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys))) if keys else ():
        value = raw[key]
        raw[key] = draw(_equal_value(value) | _equal_value(value) | _bad_scalars | _object_for(value))
    text = json.dumps(raw)
    if not keys or draw(st.booleans()):
        key = draw(st.sampled_from(sorted(raw)))
        # repeated with its value (the pairs then give a key shorter than them) or another
        value = draw(st.just(raw[key]) | _summand_json.map(lambda other: other.get(key, 0)))
        text = f'{text[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}'
    return json.dumps(valid), text


def _outcome(text: str):
    """The document a text parses to, or the refusal's class, text and index."""
    try:
        return parse_manifold(text)
    except (ManifoldSyntaxError, ManifoldSemanticError) as exc:
        return type(exc), str(exc), getattr(exc, "block_index", None)


class _NothingHeld(OrderedDict):
    """An intern table that never returns what it holds, so that every
    summand of a file is parsed afresh, even one that an earlier one equals."""

    def get(self, key, default=None):
        return default


@_text_settings
@given(st.lists(_near_miss(), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_a_warm_table_parses_as_an_empty_one(pairs, rng):
    valid = [v for v, _ in pairs]
    entries = [*valid, *(t for _, t in pairs)]
    rng.shuffle(entries)
    text = '{"summands": [%s]}' % ", ".join(entries)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(manifold_io, "_HELD", _NothingHeld())
        cold = _outcome(text)
        patch.setattr(manifold_io, "_HELD", OrderedDict())
        _outcome('{"summands": [%s]}' % ", ".join(valid))  # every valid summand held
        warm = _outcome(text)
    assert warm == cold
    if isinstance(cold, ManifoldDoc):
        assert serialize_manifold(warm) == serialize_manifold(cold) == _reference_text(cold)
