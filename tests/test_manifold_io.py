"""Strict manifold-description parsing and canonical serialization."""

from pathlib import Path

import pytest

from swstem.blocks import EllipticSurface, KaehlerGeneric, NegativeDefinite
from swstem.errors import ManifoldSemanticError, ManifoldSyntaxError
from swstem.invariants import invariant
from swstem.manifold_io import (
    ManifoldDoc,
    load_manifold,
    parse_manifold,
    serialize_manifold,
)

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


def test_semantic_error_carries_block_index():
    with pytest.raises(ManifoldSemanticError) as exc:
        parse_manifold(
            '{"summands":[{"type":"k3"},'
            '{"type":"elliptic","p_g":3,"m":2,"n":4}]}'
        )
    assert exc.value.block_index == 1
    assert str(exc.value).startswith("summand 1: ")


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


def test_samples_all_load():
    sample_files = sorted(SAMPLES.glob("*.json"))
    assert len(sample_files) >= 6
    for path in sample_files:
        doc = load_manifold(str(path))
        assert isinstance(doc, ManifoldDoc)
        invariant(doc.to_connected_sum())
        assert parse_manifold(serialize_manifold(doc)) == doc
