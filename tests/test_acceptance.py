"""Acceptance gate: nine criteria, one pass/fail line each.

Every criterion pins exact expected values (integers throughout, no
tolerances) and a wall-clock budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion report lines.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from swstem.blocks import (
    K3,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
    basic_class_table,
    max_multiple,
    odd_binomial,
    recognizable_set,
)
from swstem.invariants import (
    SplitKind,
    SplitQuery,
    blowup,
    connected_sum,
    invariant,
    nonvanishing_criteria,
    split_verdict,
)
from swstem.lattice import SpinC, dirac_index
from swstem.recognize import Pattern, recognize, recognize_oracle
from swstem.stems import (
    StemKind,
    TriState,
    hopf_power,
    integer_class,
    smash,
    unknown,
    zero,
)
from conftest import child_env

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


@contextmanager
def criterion(number, title, budget_s=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"criterion {number} took {elapsed:.3f}s, budget {budget_s:g}s"
            )
        ok = True
        note = f"{elapsed * 1000:.1f} ms"
        if budget_s is not None:
            note += f", budget {budget_s:g} s"
        print(f"[acceptance] criterion {number} ({title}): PASS ({note})")
    finally:
        if not ok:
            print(f"[acceptance] criterion {number} ({title}): FAIL")


def grid_224():
    """Odd p_g <= 15 with coprime 1 <= m <= n <= 9: 224 triples."""
    out = []
    for p_g in range(1, 16, 2):
        for m in range(1, 10):
            for n in range(m, 10):
                if math.gcd(m, n) == 1:
                    out.append((p_g, m, n))
    assert len(out) == 224
    return out


def test_criterion_1_k3_basic_set():
    with criterion(1, "K3 basic set", budget_s=0.001):
        assert basic_class_table(1, 1, 1).as_dict() == {0: 1}
        assert recognizable_set(1, 1, 1) == (0,)


def test_criterion_2_recognition_round_trip():
    with criterion(2, "recognition round trip and oracle agreement", budget_s=10.0):
        for p_g, m, n in grid_224():
            pattern = Pattern(recognizable_set(p_g, m, n))
            result = recognize(pattern)
            assert result.triple == (p_g, m, n), pattern
            assert result.validated, pattern
            assert recognize_oracle(pattern, (15, 9)) == ((p_g, m, n),), pattern


def test_criterion_3_basic_class_structure():
    with criterion(3, "basic-class structure on the grid", budget_s=10.0):
        for p_g, m, n in grid_224():
            table = basic_class_table(p_g, m, n)
            entries = table.as_dict()
            # entry count == number of (a, b, c) triples: the key map is injective
            assert len(entries) == p_g * m * n
            top = (p_g - 1) * m * n + (m - 1) * n + (n - 1) * m
            assert table.keys[-1] == top == max_multiple(p_g, m, n)
            assert entries[top] % 2 == 1
            for key, value in entries.items():
                assert entries[-key] == value
            keys = {
                (p_g - 1 - 2 * a) * m * n + (m - 2 * b - 1) * n + (n - 2 * c - 1) * m
                for a in range(p_g)
                for b in range(m)
                for c in range(n)
            }
            assert len(keys) == p_g * m * n


def _truth_table_expected(kinds):
    n = len(kinds)
    if n >= 5:
        return TriState.NO
    if any(b_plus % 4 != 3 or not odd for b_plus, odd in kinds):
        return TriState.NO
    if n <= 3:
        return TriState.YES
    total = sum(b_plus for b_plus, _ in kinds)
    return TriState.YES if total % 8 == 4 else TriState.NO


def test_criterion_4_nonvanishing_truth_table():
    with criterion(4, "nonvanishing truth table", budget_s=5.0):
        kinds = [
            (b_plus, odd) for b_plus in (3, 5, 7, 11) for odd in (True, False)
        ]
        blocks = {
            (b_plus, odd): KaehlerGeneric(b_plus, (0,) if odd else ())
            for b_plus, odd in kinds
        }
        cases = 0
        for size in (2, 3, 4, 5):
            for combo in itertools.combinations_with_replacement(kinds, size):
                csum = connected_sum(*(blocks[k] for k in combo))
                got = nonvanishing_criteria(csum).verdict
                assert got is _truth_table_expected(combo), combo
                cases += 1
        assert cases == 1278
        # four K3 surfaces: total b+ = 12 = 4 (mod 8)
        assert nonvanishing_criteria(connected_sum(*[K3] * 4)).verdict is TriState.YES


def test_criterion_5_stem_algebra():
    with criterion(5, "truncated stem algebra laws", budget_s=1.0):
        eta = hopf_power(1)
        assert smash(eta, eta) == hopf_power(2)
        assert smash(hopf_power(2), eta) == hopf_power(3)
        assert smash(hopf_power(2), hopf_power(2)) == zero(4)
        assert smash(integer_class(2), eta) == zero(1)

        els = [integer_class(v) for v in range(-10, 11)]
        els += [hopf_power(j) for j in (1, 2, 3)]
        els += [zero(d) for d in range(-2, 5)]
        els += [unknown(d) for d in range(0, 5)]
        one = integer_class(1)
        for x in els:
            assert smash(one, x) == x == smash(x, one)
        for x, y in itertools.product(els, repeat=2):
            assert smash(x, y) == smash(y, x)
        # negative stems force determined factors to zero, so associativity
        # holds on the determined fragment and on non-negative degrees
        determined = [e for e in els if e.kind is not StemKind.UNKNOWN]
        for x, y, z in itertools.product(determined, repeat=3):
            assert smash(smash(x, y), z) == smash(x, smash(y, z))
        nonnegative = [e for e in els if e.degree >= 0]
        for x, y, z in itertools.product(nonnegative, repeat=3):
            assert smash(smash(x, y), z) == smash(x, smash(y, z))


def test_criterion_6_splitting_obstructions():
    with criterion(6, "splitting obstructions", budget_s=2.0):
        b_values = (3, 7, 11, 15)
        residue_one = SplitQuery(4, 1)
        residue_three = SplitQuery(4, 3)
        for pair in itertools.combinations_with_replacement(b_values, 2):
            csum = connected_sum(*(SymplecticGeneric(b) for b in pair))
            assert split_verdict(csum, residue_one).kind is SplitKind.IMPOSSIBLE, pair
            assert (
                split_verdict(csum, residue_three).kind is not SplitKind.IMPOSSIBLE
            ), pair
        for triple in itertools.combinations_with_replacement(b_values, 3):
            csum = connected_sum(*(SymplecticGeneric(b) for b in triple))
            assert (
                split_verdict(csum, residue_one).kind
                is SplitKind.FORCES_NEGATIVE_DEFINITE_COMPLEMENT
            ), triple
            assert (
                split_verdict(csum, residue_three).kind is not SplitKind.IMPOSSIBLE
            ), triple


def test_criterion_7_blowup():
    with criterion(7, "blowup bookkeeping and index sign", budget_s=2.0):
        bases = [
            connected_sum(K3),
            connected_sum(K3, K3),
            connected_sum(K3, K3, K3),
            connected_sum(SymplecticGeneric(7), K3),
            connected_sum(*[K3] * 4),
        ]
        for csum in bases:
            inv = invariant(csum)
            k = inv.stem_degree - 1
            assert k >= 0
            for rank in (1, 4, 9):
                # unit coordinates: c^2 = -rank, d = 0
                result = blowup(inv, NegativeDefinite(rank))
                assert result.invariant == inv
                assert result.sw_preserved is TriState.YES

        rng = random.Random(0xE1157)
        for _ in range(1000):
            rank = rng.randint(1, 10)
            coords = tuple(2 * rng.randint(-10, 10) + 1 for _ in range(rank))
            spin_c = SpinC.from_coords(coords)
            assert dirac_index(spin_c.c_square, -rank) <= 0


def test_criterion_8_parity_oracle():
    with criterion(8, "binomial parity and detection oracle", budget_s=1.0):
        for n in range(31):
            for k in range(n + 1):
                assert odd_binomial(n, k) == (math.comb(n, k) % 2 == 1)
        from swstem.stems import sq2_detects_hopf

        for d in range(1, 101):
            assert sq2_detects_hopf(d) == (d % 2 == 0)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "swstem", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=child_env(),
    )
    assert proc.returncode == 0, (args, proc.stderr)
    return proc.stdout


def test_criterion_9_cli_end_to_end():
    with criterion(9, "command line end to end"):
        assert _run("basic-classes", "--pg", "1", "--m", "1", "--n", "1") == "0: 1\n"
        assert _run("recognizable", "--pg", "1", "--m", "2", "--n", "3") == (
            "-7,-3,-1,1,3,7\n"
        )
        assert _run("recognize", "--classes", "-2,2") == "p_g=3 m=1 n=1 (validated)\n"
        assert _run("invariant", str(SAMPLES / "k3x2.json")) == (
            "stem degree 2, class η², nonvanishing: YES\n"
        )
        assert _run("nonvanishing", str(SAMPLES / "k3x4.json")) == (
            "nonvanishing: YES\n"
        )
        assert _run("blowup", str(SAMPLES / "k3.json"), "--rank", "1") == (
            "stem degree 1, class η, nonvanishing: YES\n"
            "gamma power: 0\n"
            "sw preserved: YES\n"
        )
        assert _run(
            "split-check",
            str(SAMPLES / "symplectic_pair.json"),
            "--modulus",
            "4",
            "--residue",
            "1",
        ) == "verdict: impossible\n"
        assert _run(
            "distinguish", str(SAMPLES / "k3.json"), str(SAMPLES / "k3.json")
        ) == "verdict: same_summands\n"
        assert _run("fingerprint", str(SAMPLES / "e311_k3.json")) == "-2,2\n0\n"

        for args in (
            ("invariant", str(SAMPLES / "k3x2.json"), "--json", "--trace"),
            ("recognize", "--classes", "-2,2", "--json"),
        ):
            first = _run(*args)
            second = _run(*args)
            assert first == second
            json.loads(first)
