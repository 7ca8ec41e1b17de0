"""Reference timing, normalisation and the tail rule shared by the harness.

The machine this benchmark runs on changes speed by up to 2x within seconds,
so raw wall-clock times do not repeat.  Every time is therefore taken next to
a reference measured under the same conditions and reported in reference
units::

    t_ref = t_wall * R_nominal / R_measured

In-process work is normalised against ``reference_loop`` (stdlib only, a
few ms), run before and after each chunk of operations.  Subprocess work is
normalised against bare starts of the same interpreter in the same
environment (``python -c pass``), run right before and right after each
call; a call during which the bare starts disagree is timed again
(``steadiest``).  The nominal
constants below are pinned once; changing them rescales every reported
time, so they only change together with a new baseline.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time

#: nominal duration of a bare interpreter start (``python -c pass``), in seconds
REF_START_NOMINAL_S = 0.075

#: a CLI call is timed again (at most STEADY_ATTEMPTS times in all) while the
#: bare starts on its two sides differ by more than this share: the machine's
#: speed changed during the call, so the reference does not describe it
STEADY_TOLERANCE = 0.2
STEADY_ATTEMPTS = 3

#: candidate percentiles for the tail, ascending
PERCENTILES = (50, 90, 99, 99.9, 99.99)
#: the tail is the highest candidate percentile with at least this many
#: samples strictly beyond its rank
MIN_BEYOND = 10


class _Rec:
    __slots__ = ("key", "value", "label")

    def __init__(self, key, value, label):
        self.key, self.value, self.label = key, value, label


def _loop() -> None:
    """Interpreter-bound: small dict, tuple keys, int and str work, a sort."""
    table: dict = {}
    for i in range(800):
        key = (i * 7919) % 1021
        pair = (key, i & 7)
        table[pair] = table.get(pair, 0) + len(str(key)) + i
    sorted(table.items())[::5]


def _objects() -> None:
    """Allocation-bound: short-lived objects, f-strings, a JSON round trip."""
    recs = {}
    for i in range(300):
        rec = _Rec((i * 7919) % 1021, i, str(i))
        recs[(rec.key, i & 3)] = rec
    rows = [{"k": r.key, "v": r.value, "s": f"x{r.label}"} for r in recs.values()]
    sorted(json.loads(json.dumps(rows)), key=lambda d: (d["k"], d["v"]))


@functools.cache
def _pairs() -> tuple:
    rng = random.Random(5)
    return tuple(sorted((rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6)) for _ in range(6000)))


def _dicts() -> None:
    """Memory-bound: a 6000-entry dict built from scattered pair tuples."""
    dict(_pairs())


#: reference components and their nominal durations in seconds; pinned once
REFERENCES = {"loop": (_loop, 0.0012), "objects": (_objects, 0.0013), "dicts": (_dicts, 0.0011)}

#: the components each in-process workload is normalised against, chosen by
#: measurement: which mix tracks that workload's speed best on a busy machine
#: (see bench/README.md)
WORKLOAD_REFERENCES = {
    "sums": ("loop", "objects"),
    "verdicts": ("loop", "dicts"),
    "tables": ("loop", "objects"),
}


def reference_loop(parts=("loop",)) -> float:
    """Run the named reference components once; return their combined
    duration in seconds, the geometric mean of the parts' wall times scaled
    so that at nominal speed it equals ``reference_nominal(parts)``."""
    _pairs()  # built once, outside any measurement
    slowness = 1.0
    for name in parts:
        body, nominal = REFERENCES[name]
        t0 = time.perf_counter()
        body()
        slowness *= (time.perf_counter() - t0) / nominal
    return reference_nominal(parts) * slowness ** (1 / len(parts))


def reference_nominal(parts=("loop",)) -> float:
    """Nominal combined duration of the named components, in seconds."""
    product = 1.0
    for name in parts:
        product *= REFERENCES[name][1]
    return product ** (1 / len(parts))


def normalise(t_wall: float, r_measured: float, r_nominal: float) -> float:
    """Convert a wall time to reference units."""
    if r_measured <= 0:
        raise ValueError(f"reference duration must be positive, got {r_measured}")
    return t_wall * r_nominal / r_measured


def run_chunked(n_ops: int, chunk: int, do_op, ref):
    """Run ops 0..n_ops-1 in chunks with a reference before and after each.

    The sequence is ref, chunk 0, ref, chunk 1, ..., ref, so chunk i sits
    between refs[i] and refs[i + 1].  ``do_op(i)`` returns the op's wall
    time and ``ref()`` a reference duration.  Returns (op_times, refs).
    """
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    times: list[float] = []
    refs = [ref()]
    for start in range(0, n_ops, chunk):
        for i in range(start, min(start + chunk, n_ops)):
            times.append(do_op(i))
        refs.append(ref())
    return times, refs


def steadiest(do, ref, before: float, attempts: int = STEADY_ATTEMPTS,
              tolerance: float = STEADY_TOLERANCE):
    """Run ``do()`` followed by ``ref()``, again while the references on its
    two sides differ by more than ``tolerance`` (at most ``attempts`` times).

    ``before`` is the reference taken just before the first attempt; each
    attempt's reference after is the next attempt's reference before.  The
    choice looks only at the references, never at ``do()``'s own time, so a
    slow operation stays slow.  Returns (result, before, after, refs) for the
    attempt whose references agree best, where refs are the references taken
    here, in order.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    best, refs = None, []
    for _ in range(attempts):
        result = do()
        after = ref()
        refs.append(after)
        gap = abs(after / before - 1)
        if best is None or gap < best[0]:
            best = (gap, result, before, after)
        if gap <= tolerance:
            break
        before = after
    return best[1], best[2], best[3], refs


def chunk_factors(refs: list[float], r_nominal: float) -> list[float]:
    """Per-chunk factor R_nominal / R_measured, where R_measured is the mean
    of the references on either side of the chunk."""
    return [
        normalise(1.0, (refs[i] + refs[i + 1]) / 2, r_nominal)
        for i in range(len(refs) - 1)
    ]


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest candidate
    percentile that leaves at least MIN_BEYOND samples beyond its rank.

    With fewer than MIN_BEYOND + 1 samples no percentile qualifies and the
    maximum is returned with percentile 100.
    """
    data = sorted(values)
    n = len(data)
    best = None
    for p in PERCENTILES:
        beyond = n - max(1, math.ceil(p / 100 * n))
        if beyond >= MIN_BEYOND:
            best = (nearest_rank(data, p), p, beyond)
    if best is None:
        return data[-1], 100.0, 0
    return best
