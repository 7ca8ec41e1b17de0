"""Spans around the library's public functions, recorded from the harness.

The traced run wraps the public functions named in SPANNED and the methods
named in METHODS (dataclass ``__init__``s and the table lookup), so that
time spent in them is charged to the module that defines them.  Each wrapper is installed in
every loaded ``swstem`` module that binds the original object, so calls made
between library modules (``from .blocks import ...``) are seen too.  A span is
(name, start, end, parent, op): spans stay in memory and are written out when
the run ends.  Only calls made inside an operation are recorded; the
harness's correctness checks run outside operations and are not traced.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

#: (module, function) pairs recorded as spans
SPANNED = (
    ("cli", "main"),
    ("manifold_io", "parse_manifold"),
    ("manifold_io", "serialize_manifold"),
    ("invariants", "invariant"),
    ("invariants", "nonvanishing_criteria"),
    ("invariants", "blowup"),
    ("stems", "smash"),
    ("stems", "smash_all"),
    ("lattice", "dirac_index"),
    ("blocks", "basic_class_table"),
    ("blocks", "sw_value"),
    ("blocks", "sw_parity"),
    ("blocks", "recognizable_set"),
    ("recognize", "recognize"),
    ("recognize", "recognize_oracle"),
)
#: (module, class, method) triples recorded as spans
METHODS = (
    ("stems", "StemElement", "__init__"),
    ("lattice", "SpinC", "__init__"),
    ("recognize", "Pattern", "__init__"),
    ("blocks", "BasicClassTable", "value"),
)
#: layers in the order they are reported; "harness" is time outside any span
LAYERS = ("cli", "manifold_io", "invariants", "stems", "lattice", "blocks", "recognize", "harness")


class Tracer:
    """In-memory span recorder; ``op`` is the current operation id, or -1."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap SPANNED and METHODS in the already imported swstem modules."""
        modules = [m for k, m in sys.modules.items() if k == "swstem" or k.startswith("swstem.")]
        for mod_name, attr in SPANNED:
            original = getattr(sys.modules[f"swstem.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for mod_name, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"swstem.{mod_name}"], cls_name)
            setattr(cls, method, self.wrap(f"{mod_name}.{cls_name}.{method}", getattr(cls, method)))


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so children never overlap each other and the
    part of a span's interval its children cover is the sum of their
    durations.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def check_accounting(spans, op_intervals: dict[int, tuple[float, float]], eps: float = 1e-6) -> list[str]:
    """Problems that would make per-layer self times double count.

    Every child must lie inside its parent and belong to the same operation,
    and every top-level span must lie inside its operation's interval.  When
    this holds, self times plus the harness's time add up to the total
    operation time exactly.
    """
    problems = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = spans[parent]
            if p_op != op or start < p_start - eps or end > p_end + eps or parent >= i:
                problems.append(f"span {i} {name} escapes its parent {p_name}")
        else:
            lo, hi = op_intervals[op]
            if start < lo - eps or end > hi + eps:
                problems.append(f"span {i} {name} escapes operation {op}")
        if len(problems) >= 5:
            break
    return problems


def aggregate(spans, op_intervals: dict[int, tuple[float, float]], op_factor) -> dict:
    """Per-function calls and self time, per-layer self time and the
    harness remainder, in reference milliseconds.

    ``op_factor(op)`` converts that operation's wall time to reference units.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_ms: Counter = Counter()
    layer_ms: Counter = Counter()
    top_level: Counter = Counter()
    for (name, start, end, parent, op), own in zip(spans, selfs):
        ms = own * op_factor(op) * 1000
        calls[name] += 1
        self_ms[name] += ms
        layer_ms[name.split(".", 1)[0]] += ms
        if parent < 0:
            top_level[op] += end - start
    total_ms = 0.0
    for op, (lo, hi) in op_intervals.items():
        factor = op_factor(op) * 1000
        total_ms += (hi - lo) * factor
        layer_ms["harness"] += (hi - lo - top_level[op]) * factor
    return {"calls": calls, "self_ms": self_ms, "layer_ms": layer_ms, "total_ms": total_ms}
