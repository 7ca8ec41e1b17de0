"""Engine traces as rule records: the engine records rule steps and formats
no text, every declared rule is reached and states its fact, and results
compare exactly as their verdicts and rendered text do."""

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from swstem import invariants
from swstem.blocks import (
    CANONICAL,
    K3,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
    max_multiple,
)
from swstem.errors import PreconditionNotMet
from swstem.invariants import (
    RULES,
    Rule,
    SplitQuery,
    Summand,
    Trace,
    blowup,
    connected_sum,
    invariant,
    nonvanishing_criteria,
    split_verdict,
)
from swstem.lattice import SpinC
from test_engine_goldens import CORPUS, render
from test_goldens import CASES, run

KINDS = (EllipticSurface, SymplecticGeneric, KaehlerGeneric, NegativeDefinite, HomotopySphereLike)
#: every kind, with class keys and c: outside the criteria's regime
MIXED = connected_sum(
    K3,
    Summand(EllipticSurface(3, 1, 1), class_key=0),
    SymplecticGeneric(5),
    Summand(KaehlerGeneric(3, (0,)), class_key=0),
    Summand(NegativeDefinite(1), SpinC.from_coords((3,))),
    NegativeDefinite(0),
    HomotopySphereLike(),
)
#: every kind, almost complex ones with class eta each: eta^3, which split_verdict reads
ETA3 = connected_sum(
    K3,
    Summand(SymplecticGeneric(3), class_key=CANONICAL),
    KaehlerGeneric(3, (0,)),
    NegativeDefinite(2),
    HomotopySphereLike(),
)


def _counting(monkeypatch) -> tuple[list, list]:
    """Count every block label read and every rule rendered, from now on."""
    reads, renders = [], []
    for kind in KINDS:
        get = kind.label.fget
        label = property(lambda self, get=get: reads.append(1) or get(self))
        monkeypatch.setattr(kind, "label", label)
    render_rule = Rule.render
    counted = lambda self, data: renders.append(self.id) or render_rule(self, data)  # noqa: E731
    monkeypatch.setattr(Rule, "render", counted)
    return reads, renders


def test_the_engine_reads_no_label_and_renders_no_text(monkeypatch):
    reads, renders = _counting(monkeypatch)
    inv, eta3 = invariant(MIXED), invariant(ETA3)
    results = [
        inv,
        eta3,
        nonvanishing_criteria(MIXED),
        nonvanishing_criteria(ETA3),
        blowup(inv, NegativeDefinite(2), SpinC.from_coords((3, 3))).invariant,
        blowup(eta3, NegativeDefinite(1)).invariant,
        split_verdict(ETA3, SplitQuery(4, 3)),
        split_verdict(ETA3, SplitQuery(2, 0)),
    ]
    assert (reads, renders) == ([], [])
    for result in results:
        before = len(renders)
        lines = tuple(result.trace)
        assert tuple(result.trace) == lines and result.trace[-1] == lines[-1]
        assert len(renders) - before == len(lines)  # once each, on the first read
    assert reads


def test_every_rule_is_rendered_by_a_golden_case(monkeypatch):
    _, renders = _counting(monkeypatch)
    for csum in CORPUS.values():
        render(csum)
    for _, _, _, argv in CASES:
        if argv[0] == "split-check":
            run(argv)
    assert sorted(set(RULES) - set(renders)) == []


def test_every_rule_states_its_fact():
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert rule.fact.strip() and rule.text.strip()


def test_every_f_string_in_the_engine_is_an_error_message():
    tree = ast.parse(Path(invariants.__file__).read_text(encoding="utf-8"))
    raises = [stmt for stmt in ast.walk(tree) if isinstance(stmt, ast.Raise)]
    raised = {id(node) for stmt in raises for node in ast.walk(stmt)}
    strings = [node for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)]
    assert [node.lineno for node in strings if id(node) not in raised] == []


def test_a_trace_reads_as_the_tuple_of_its_lines():
    trace = invariant(connected_sum(K3, K3)).trace
    lines = tuple(trace)
    assert type(trace) is Trace and len(trace) == len(lines) == 6
    assert trace == lines and lines == trace and hash(trace) == hash(lines)
    assert repr(trace) == repr(lines) and trace[1:] == lines[1:] and list(trace) == list(lines)
    assert trace + ("x",) == lines + ("x",) and ("x",) + trace == ("x",) + lines
    joined = trace + invariant(connected_sum(K3)).trace
    assert type(joined) is Trace and joined == lines + tuple(invariant(connected_sum(K3)).trace)
    assert trace != lines[1:] and trace != list(lines)


# The property: two results compare and hash equal exactly when their
# verdicts and rendered text are equal.  Slots of the two sums are mostly
# equal or twins under one label: Kaehler blocks of one b+ with different
# odd classes, and K3 against E(1; 1, 1).

_LABELS = st.lists(st.integers(-4, 4), max_size=3)

_BLOCKS = st.one_of(
    st.builds(EllipticSurface, st.integers(1, 4), st.just(1), st.integers(1, 3)),
    st.builds(SymplecticGeneric, st.sampled_from((1, 3, 5, 7))),
    st.builds(KaehlerGeneric, st.sampled_from((1, 3, 5)), _LABELS),
    st.builds(NegativeDefinite, st.integers(0, 3)),
    st.just(HomotopySphereLike()),
)


def _summand(block, keyed: bool, choice: int) -> Summand:
    """The block alone, or with a class key or c picked by ``choice``."""
    if not keyed or block.neutral:
        return Summand(block)
    if isinstance(block, NegativeDefinite):
        return Summand(block, SpinC.from_coords((2 * choice + 1,) + (1,) * (block.rank - 1)))
    if isinstance(block, EllipticSurface):
        return Summand(block, class_key=max_multiple(block.p_g, block.m, block.n) - 2 * choice)
    return Summand(block, class_key=choice - 2 if isinstance(block, KaehlerGeneric) else CANONICAL)


@st.composite
def _slot(draw) -> tuple[Summand, Summand]:
    """One summand of each sum, at the same place."""
    twin = draw(st.sampled_from(("same", "same", "kaehler", "k3", "other")))
    if twin == "kaehler":
        b_plus = draw(st.sampled_from((1, 3, 5)))
        first, second = draw(st.lists(_LABELS.map(frozenset), min_size=2, max_size=2, unique=True))
        blocks = KaehlerGeneric(b_plus, first), KaehlerGeneric(b_plus, second)
    elif twin == "k3":
        blocks = K3, EllipticSurface(1, 1, 1)
    elif twin == "same":
        blocks = (draw(_BLOCKS),) * 2
    else:
        blocks = draw(_BLOCKS), draw(_BLOCKS)
    keyed, choice = draw(st.booleans()), draw(st.integers(0, 4))
    return _summand(blocks[0], keyed, choice), _summand(blocks[1], keyed, choice)


def _agree(x, y, answer: str) -> None:
    equal = x == y  # before either trace is read
    same = getattr(x, answer) == getattr(y, answer) and tuple(x.trace) == tuple(y.trace)
    assert equal is same and (x != y) is not same
    if same:
        assert hash(x) == hash(y)


@pytest.mark.deep
@given(
    st.lists(_slot(), min_size=1, max_size=6),
    st.sampled_from(((2, 0), (2, 1), (4, 1), (4, 3))),
)
def test_results_are_equal_exactly_when_verdict_and_text_are(slots, query):
    a, b = (connected_sum(*side) for side in zip(*slots))
    _agree(nonvanishing_criteria(a), nonvanishing_criteria(b), "verdict")
    try:
        split_a, split_b = (split_verdict(csum, SplitQuery(*query)) for csum in (a, b))
    except PreconditionNotMet:
        return
    _agree(split_a, split_b, "kind")


# The property: invariant applies the summand-count theorem exactly to two or
# more almost complex summands, and answers a lone one by one lone rule alone.

_COUNT_FACT = RULES["five-or-more"].fact
_LONE_RULES = {RULES[rule_id] for rule_id in ("lone-sw", "lone-odd-sw", "lone-sw-undetermined")}

_SUMS = st.lists(
    st.builds(_summand, _BLOCKS, st.booleans(), st.integers(0, 4)), min_size=1, max_size=6
).map(lambda summands: connected_sum(*summands))


def _examples(values):
    """Hypothesis's ``example`` for each of ``values``."""

    def decorate(test):
        for value in values:
            test = example(value)(test)
        return test

    return decorate


@pytest.mark.deep
@_examples(CORPUS.values())  # every golden sum, besides the drawn ones
@given(_SUMS)
def test_the_count_rules_apply_from_two_summands_and_a_lone_one_takes_one_lone_rule(csum):
    almost_complex = sum(s.block.almost_complex for s in csum.summands)
    rules = [step[0] for step in invariant(csum).trace.steps]
    assert any(rule.fact == _COUNT_FACT for rule in rules) is (almost_complex >= 2)
    assert sum(rule in _LONE_RULES for rule in rules) == (almost_complex == 1)
