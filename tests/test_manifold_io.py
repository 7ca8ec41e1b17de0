"""Strict manifold-description parsing and canonical serialization."""

import json
import warnings
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from swstem.blocks import K3, EllipticSurface, KaehlerGeneric, NegativeDefinite
from swstem.errors import InvalidParameters, ManifoldSemanticError, ManifoldSyntaxError
from swstem.invariants import Summand, invariant
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
    "p_g, m, n, message",
    [
        (3, 3, 2, "multiplicities must satisfy m <= n, got (3, 2)"),
        # every other check comes first, with its message unchanged
        (3, 3.0, 2, "m must be an integer, got 3.0"),
        (3, 3, "2", "n must be an integer, got '2'"),
        (3, True, 2, "m must be an integer, got True"),
        (-1, 3, 2, "p_g must be >= 0, got -1"),
        (3, 3, 0, "fiber multiplicities must be >= 1"),
        (3, 4, 2, "multiplicities must be coprime, got (2, 4)"),
    ],
)
def test_a_file_refuses_m_greater_than_n(p_g, m, n, message):
    raw = {"summands": [{"type": "k3"}, {"type": "elliptic", "p_g": p_g, "m": m, "n": n}]}
    with pytest.raises(ManifoldSemanticError) as exc:
        parse_manifold(json.dumps(raw))
    assert exc.value.block_index == 1
    assert str(exc.value) == f"summand 1: {message}"


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


def test_samples_all_load():
    sample_files = sorted(SAMPLES.glob("*.json"))
    assert len(sample_files) >= 6
    for path in sample_files:
        doc = load_manifold(str(path))
        assert isinstance(doc, ManifoldDoc)
        invariant(doc.to_connected_sum())
        assert parse_manifold(serialize_manifold(doc)) == doc


def _reference_text(doc: ManifoldDoc) -> str:
    """The canonical text as the standard library writes it."""
    raw: dict = {
        "summands": [
            s.block.to_json(None if s.spin_c is None else s.spin_c.c_coords)
            for s in doc.summands
        ]
    }
    if doc.name is not None:
        raw["name"] = doc.name
    if doc.notes is not None:
        raw["notes"] = doc.notes
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


_odd = st.integers(-(10**6), 10**6).map(lambda x: 2 * x + 1)
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
        st.integers(0, 10**30),
        _coprime,
    ),
    st.builds(lambda b: {"type": "symplectic", "b_plus": b}, _odd.map(abs)),
    st.builds(
        _kaehler,
        _odd.map(abs),
        st.none() | st.lists(st.integers(-(10**20), 10**20), max_size=4),
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


@pytest.mark.parametrize(
    "name",
    ['say "hi"', "back\\slash", "nul\x00tab\tnewline\n", "caf\u00e9", "\U0001f600", "\ud800", ""],
)
def test_serialize_escapes_names_like_the_stdlib(name):
    doc = ManifoldDoc(parse_manifold(FULL_DOC).summands, name, name)
    assert serialize_manifold(doc) == _reference_text(doc)


def test_serialize_an_empty_sum_like_the_stdlib():
    doc = ManifoldDoc(())
    assert serialize_manifold(doc) == _reference_text(doc)


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
