"""A state machine over the caches that share objects: the held tables
(``_listing._TABLES``), the odd-SW sets (``_listing._recognizable``) with their
listing (``_listing._LISTED``), the window of shared key ints
(``_listing._window``), the last residue masks (``_listing._MASKS``), and the
intern table of parsed summands
(``manifold_io._HELD``) with the texts written on its summands.

Each rule asks the library as a caller would, in whatever order hypothesis
draws, and checks the answer against an oracle that shares no code with it:
the closed-form table (``table_oracle``), the odd count
2^popcount(p_g - 1) m n, and the standard library's manifold text
(``_reference_text``).  After every step the caches are checked against a
model of what they hold.  The intern table runs at small bounds, so that a
pool of fourteen summand objects evicts; every cache and bound is restored
after each example, as the ``emptied`` and ``no_summand_held`` fixtures do.
"""

import importlib
import json
import operator
import random
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from swstem import _json_text, _listing, manifold_io
from swstem.blocks import (
    K3,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
    basic_class_table,
    odd_class_sets,
    recognizable_set,
)
from swstem.errors import ManifoldSemanticError, NotAnEllipticPattern
from swstem.invariants import Summand
from swstem.lattice import SpinC
from swstem.manifold_io import ManifoldDoc, parse_manifold, serialize_manifold
from swstem.recognize import Pattern, recognize
from test_blocks import coprime_grid, emptied, table_oracle  # noqa: F401 (a fixture)
from test_manifold_io import _held_key, _reference_text

pytestmark = pytest.mark.deep

# the package exports the function ``recognize`` under the module's name
RECOGNIZE = importlib.import_module("swstem.recognize")

#: small coprime triples; keys reach past 256, where CPython shares no int
TRIPLES = [t for t in coprime_grid(9, 9) if t[0] * t[1] * t[2] <= 400]

#: the intern table's bounds while the machine runs: (summands, words); a
#: summand is held when its key weighs at most their quotient, 20 words
BOUNDS = (6, 120)
EACH = BOUNDS[1] // BOUNDS[0]

#: (summand object, its words by hand, or None where it is refused, and the
#: summand it parses to, or None where it is refused)
POOL = [
    ({"type": "k3"}, 0, lambda: Summand(K3)),
    ({"type": "s4"}, 0, lambda: Summand(HomotopySphereLike())),
    ({"type": "elliptic", "p_g": 3, "m": 1, "n": 1}, 3, lambda: Summand(EllipticSurface(3, 1, 1))),
    ({"type": "elliptic", "p_g": 2, "m": 2, "n": 3}, 3, lambda: Summand(EllipticSurface(2, 2, 3))),
    # E(3) with its keys in another order: an equal summand, held as its own entry
    ({"n": 1, "m": 1, "type": "elliptic", "p_g": 3}, 3, lambda: Summand(EllipticSurface(3, 1, 1))),
    ({"type": "symplectic", "b_plus": 7}, 1, lambda: Summand(SymplecticGeneric(7))),
    ({"type": "kaehler", "b_plus": 3, "odd_basic": [3, 1]}, 3,
     lambda: Summand(KaehlerGeneric(3, (1, 3)))),
    # a label repeated weighs as often as it is written, and is written once:
    # at an entry's words, and one word past them
    ({"type": "kaehler", "b_plus": 7, "odd_basic": [1] * 19}, EACH,
     lambda: Summand(KaehlerGeneric(7, (1,)))),
    ({"type": "kaehler", "b_plus": 13, "odd_basic": [1] * 20}, EACH + 1,
     lambda: Summand(KaehlerGeneric(13, (1,)))),
    ({"type": "kaehler", "b_plus": 3, "odd_basic": [2**100 + 1]}, 3,
     lambda: Summand(KaehlerGeneric(3, (2**100 + 1,)))),
    # past the words of an entry: a list longer than them, and one int wider
    ({"type": "kaehler", "b_plus": 11, "odd_basic": [1] * 25}, 26,
     lambda: Summand(KaehlerGeneric(11, (1,)))),
    ({"type": "kaehler", "b_plus": 3, "odd_basic": [2**1300 + 1]}, 22,
     lambda: Summand(KaehlerGeneric(3, (2**1300 + 1,)))),
    ({"type": "negative_definite", "rank": 2, "c": [1, -3]}, 3,
     lambda: Summand(NegativeDefinite(2), SpinC.from_coords([1, -3]))),
    ({"type": "negative_definite", "rank": 1}, 1, lambda: Summand(NegativeDefinite(1))),
    ({"type": "elliptic", "p_g": 2, "m": 2, "n": 2}, None, None),  # m and n share a factor
]
BUILT = [i for i, (_, _, build) in enumerate(POOL) if build is not None]


def _pool_key(i: int) -> tuple:
    return _held_key(POOL[i][0])


def _odd_oracle(p_g: int, m: int, n: int) -> tuple[int, ...]:
    return tuple(sorted(k for k, v in table_oracle(p_g, m, n).items() if v % 2))


def _odd_count(p_g: int, m: int, n: int) -> int:
    return 2 ** bin(p_g - 1).count("1") * m * n


def _masks_oracle(m: int, n: int) -> tuple[bytes, bytes]:
    """The masks of the positions i = mn - 1 - t of a residue block whose
    s = b*n + c*m (b < m, c < n, s = t mod mn) wraps past mn, and of the rest."""
    mn = m * n
    wrapped = {s % mn: s >= mn for s in (b * n + c * m for b in range(m) for c in range(n))}
    high = bytes(wrapped[mn - 1 - i] for i in range(mn))
    return high, bytes(1 - x for x in high)


def _all_odd(p_g: int) -> bool:
    return p_g & (p_g - 1) == 0  # row p_g - 1 is all odd (Lucas)


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.saved = (_listing._TABLES, manifold_io._HELD, _json_text.json_text,
                      manifold_io._HELD_SUMMANDS, manifold_io._HELD_WORDS)
        _listing._TABLES = {}
        _listing._recognizable.cache_clear()
        _listing._LISTED.clear()
        manifold_io._HELD = OrderedDict()
        manifold_io._HELD_SUMMANDS, manifold_io._HELD_WORDS = BOUNDS
        self.texts_written = 0
        write = self.saved[2]

        def counted(value, *args):
            # a summand's text is the one dict written; its lists recurse through here too
            self.texts_written += type(value) is dict
            return write(value, *args)

        _json_text.json_text = counted
        self.tables = {}  # triple -> the table first returned since a reset
        self.sets = {}  # triple -> the odd-SW set first returned, or None if not yet read
        self.held = OrderedDict()  # pool index -> its words, oldest first
        self.docs = []  # documents parsed or built, the newest few

    def teardown(self):
        (_listing._TABLES, manifold_io._HELD, _json_text.json_text,
         manifold_io._HELD_SUMMANDS, manifold_io._HELD_WORDS) = self.saved
        # the sets built may hold keys of tables dropped, and the listing holds the sets
        _listing._recognizable.cache_clear()
        _listing._LISTED.clear()

    # -- the odd-SW sets and tables

    def _check_set(self, triple, odd):
        assert odd == _odd_oracle(*triple)
        assert len(odd) == _odd_count(*triple)
        if self.sets.get(triple) is not None:
            assert odd is self.sets[triple]  # a hit returns the tuple the cache holds
        self.sets[triple] = odd

    @rule(triple=st.sampled_from(TRIPLES))
    def table(self, triple):
        built = triple not in _listing._TABLES
        table = basic_class_table(*triple)
        if built:  # a table built leaves its own masks held
            assert _listing._MASKS[:2] == triple[1:]
        oracle = table_oracle(*triple)
        assert table.keys == tuple(sorted(oracle))
        assert table.values == tuple(oracle[k] for k in table.keys)
        assert self.tables.setdefault(triple, table) is table
        if _all_odd(triple[0]):
            self.sets.setdefault(triple, None)  # built with the table, not yet read

    @rule(triple=st.sampled_from(TRIPLES))
    def odd_set(self, triple):
        self._check_set(triple, recognizable_set(*triple))

    @rule(triple=st.sampled_from(TRIPLES))
    def odd_classes(self, triple):
        self._check_set(triple, EllipticSurface(*triple).odd_classes())

    @rule(triples=st.lists(st.sampled_from(TRIPLES), min_size=1, max_size=3),
          neutral=st.booleans())
    def listed_sets(self, triples, neutral):
        kaehler = KaehlerGeneric(3, (5, -1))
        listed = [*(EllipticSurface(*t) for t in triples), kaehler]
        if neutral:
            listed += [HomotopySphereLike(), NegativeDefinite(0)]
        *sets, labels = odd_class_sets(listed)
        assert labels == (-1, 5)
        for triple, odd in zip(triples, sets):
            self._check_set(triple, odd)

    @rule(triple=st.sampled_from(TRIPLES), copied=st.booleans())
    def recognized(self, triple, copied):
        odd = recognizable_set(*triple)
        self._check_set(triple, odd)
        pattern = Pattern(list(odd) if copied else odd)
        asked = []  # every set recognize builds, its count path's candidate too

        def listed(*candidate):
            asked.append(candidate)
            return recognizable_set(*candidate)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RECOGNIZE, "recognizable_set", listed)
            try:
                result = recognize(pattern)
            except NotAnEllipticPattern:
                assert triple[0] % 2 == 0  # every odd-genus set is recognized
                result = None
        for candidate in asked:  # small triples: each asked for is built
            self.sets.setdefault(candidate, None)
        if result is None:
            return
        if triple[0] % 2:
            assert result.validated and result.triple == triple
        elif result.validated:  # read as the odd-genus surface with the same set
            assert result.p_g % 2 and _odd_oracle(*result.triple) == odd

    @rule(triple=st.sampled_from(TRIPLES))
    def residue_masks(self, triple):
        _, m, n = triple
        masks = _listing._residue_masks(m, n)
        assert _listing._MASKS == (m, n, masks) and _listing._MASKS[2] is masks
        again = _listing._residue_masks(m, n)  # a hit: the objects held
        assert again is masks and all(map(operator.is_, again, masks))

    @invariant()
    def the_masks_held_are_one_pairs(self):
        m, n, masks = _listing._MASKS
        if masks is None:
            return  # nothing built since the module was loaded
        wraps, high, low = masks
        assert type(wraps) is tuple and type(high) is type(low) is bytes  # immutable
        assert (high, low) == _masks_oracle(m, n) and len(wraps) == m - 1
        h = bytearray(m * n)
        for span, count in wraps:
            assert len(range(m * n)[span]) == count
            h[span] = b"\x01" * count
        assert bytes(h[::-1]) == high

    @rule()
    def emptied(self):
        """The reset of the ``emptied`` fixture."""
        _listing._TABLES.clear()
        _listing._recognizable.cache_clear()
        _listing._LISTED.clear()
        self.tables.clear()
        self.sets.clear()

    @invariant()
    def caches_hold_what_was_built(self):
        assert _listing._TABLES == self.tables
        assert all(_listing._TABLES[t] is table for t, table in self.tables.items())
        assert _listing._recognizable.cache_info().currsize == len(self.sets)
        before = _listing._recognizable.cache_info()
        held = {t: _listing._recognizable(*t) for t in self.sets}
        assert _listing._recognizable.cache_info().misses == before.misses
        for triple, odd in held.items():
            assert self.sets[triple] is None or self.sets[triple] is odd
        # every listed set is one the cache holds, listed by its id
        assert {id(odd): odd for odd in held.values()} == _listing._LISTED
        assert all(_listing._LISTED[id(odd)] is odd for odd in held.values())
        for triple, table in self.tables.items():
            if _all_odd(triple[0]):
                assert table.keys is held[triple]
        window = _listing._window
        reach = len(window) // 2
        for keys in (*held.values(), *(table.keys for table in self.tables.values())):
            for key in keys:
                assert -_listing._SHARED <= key <= _listing._SHARED
                assert key is window[key + reach]

    # -- manifold files

    @rule(indices=st.lists(st.sampled_from(range(len(POOL))), min_size=1, max_size=5),
          name=st.none() | st.just("a sum"))
    def parsed(self, indices, name):
        raw = {"summands": [POOL[i][0] for i in indices]}
        if name is not None:
            raw["name"] = name
        try:
            doc = parse_manifold(json.dumps(raw))
        except ManifoldSemanticError as exc:
            refused = indices.index(len(POOL) - 1)
            assert exc.block_index == refused
            indices = indices[:refused]  # every summand before it was parsed
            doc = None
        for i in indices:  # held first to last; the oldest dropped first
            words = POOL[i][1]
            if i in self.held or words is None or words > EACH:
                continue
            if len(self.held) == BOUNDS[0]:
                self.held.popitem(last=False)
            self.held[i] = words
        if doc is None:
            return
        assert doc.summands == tuple(POOL[i][2]() for i in indices)
        assert doc.name == name
        # a file may evict a summand it held before it repeats it: read the last
        for i, summand in dict(zip(indices, doc.summands)).items():
            if i in self.held:
                assert summand is manifold_io._HELD[_pool_key(i)]
        self._write(doc)

    @rule(indices=st.lists(st.sampled_from(BUILT), min_size=1, max_size=5),
          shared=st.booleans(), data=st.data())
    def built_by_hand(self, indices, shared, data):
        summands = [POOL[i][2]() for i in indices]
        if shared and self.docs:  # a summand of a document already read or built
            doc = data.draw(st.sampled_from(self.docs))
            summands.append(data.draw(st.sampled_from(doc.summands)))
        summands.append(summands[0])  # the same object twice
        self._write(ManifoldDoc(summands))

    @rule(data=st.data())
    def written_again(self, data):
        if self.docs:
            self._write(data.draw(st.sampled_from(self.docs)))

    def _write(self, doc):
        """Writes ``doc`` twice: each summand without a text writes one, once."""
        unwritten = {id(s) for s in doc.summands if not hasattr(s, "_text")}
        before = self.texts_written
        text = serialize_manifold(doc)
        assert self.texts_written - before == len(unwritten)
        assert text == _reference_text(doc) == serialize_manifold(doc)
        assert self.texts_written - before == len(unwritten)
        held, manifold_io._HELD = manifold_io._HELD, OrderedDict()
        try:  # a round trip that leaves the machine's table as it was
            assert parse_manifold(text) == doc
        finally:
            manifold_io._HELD = held
        self.docs = [*self.docs[-7:], doc]

    @rule()
    def no_summand_held(self):
        """The reset of the ``no_summand_held`` fixture."""
        manifold_io._HELD = OrderedDict()
        self.held.clear()

    @invariant()
    def the_intern_table_holds_what_was_parsed(self):
        table = manifold_io._HELD
        assert [*table] == [*map(_pool_key, self.held)]
        assert [*table.values()] == [POOL[i][2]() for i in self.held]
        weights = [*map(manifold_io._words, table)]
        assert weights == [*self.held.values()] and max(weights, default=0) <= EACH
        assert len(table) <= BOUNDS[0] and sum(weights) <= BOUNDS[1]
        for summand in (*table.values(), *(s for doc in self.docs for s in doc.summands)):
            text = getattr(summand, "_text", None)
            if text is not None:
                one = ManifoldDoc([summand])
                assert serialize_manifold(one) == _reference_text(one)


CacheMachine.TestCase.settings = settings(stateful_step_count=20, deadline=None)
TestCaches = CacheMachine.TestCase


def _answer(what, arg):
    """What the library answers to one op of the shared pool below."""
    if what == "table":
        table = basic_class_table(*arg)
        return table.keys, table.values
    if what == "set":
        return recognizable_set(*arg)
    if what == "recognize":
        return recognize(Pattern(recognizable_set(*arg)))
    if what == "parse":
        return parse_manifold(arg)
    return serialize_manifold(parse_manifold(arg))  # "write"


def test_threads_over_a_shared_pool_each_get_the_answers_of_one(emptied, no_summand_held, monkeypatch):
    # 4 threads run one pool, each in its own order, from empty caches and a
    # one-int window: they miss the same tables and sets at once, grow the
    # window at once, and parse and write overlapping files of 1,650 distinct
    # summands through the 1,024-summand intern table
    texts = [
        json.dumps({"summands": [{"type": "elliptic", "p_g": p_g, "m": 1, "n": 1}
                                 for p_g in range(start, start + 300)]})
        for start in range(1, 1500, 150)
    ]
    pool = [
        *((what, t) for t in TRIPLES for what in ("table", "set")),
        *(("recognize", t) for t in TRIPLES if t[0] % 2),
        *(("parse", text) for text in texts),
        *(("write", text) for text in texts),
    ]

    def fresh():
        emptied()
        no_summand_held.clear()
        monkeypatch.setattr(_listing, "_window", (0,))
        monkeypatch.setattr(_listing, "_MASKS", (0, 0, None))

    fresh()
    alone = [_answer(*op) for op in pool]
    fresh()
    threads = 4
    orders = [random.Random(seed).sample(range(len(pool)), len(pool)) for seed in range(threads)]
    answers = [{} for _ in range(threads)]
    start = threading.Barrier(threads)
    raised = []

    def run(order, out):
        start.wait()
        try:
            for i in order:
                out[i] = _answer(*pool[i])
        except BaseException as exc:  # any escape fails the test below
            raised.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=args) for args in zip(orders, answers)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert raised == []
    for out in answers:
        assert [out[i] for i in range(len(pool))] == alone
    assert len(manifold_io._HELD) <= manifold_io._HELD_SUMMANDS
