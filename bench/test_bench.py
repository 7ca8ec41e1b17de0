"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s bench -p "test_*.py"

They cover the seeded inputs, the tail rule, the normalisation arithmetic,
the chunk/reference interleaving, span accounting, the harness's
independent oracles (against the library), and the refusal to run without
a library.  They import the library from ``src/``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import common  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


class InputsTest(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_different(self):
        for workload in inputs.WORKLOADS:
            count = 60 if workload == "cli" else 300
            one = inputs.digest(inputs.generate(workload, 1, count))
            again = inputs.digest(inputs.generate(workload, 1, count))
            other = inputs.digest(inputs.generate(workload, 2, count))
            self.assertEqual(one, again, workload)
            self.assertNotEqual(one, other, workload)

    def test_epochs_partition_the_run(self):
        count = inputs.EPOCH_OPS["tables"] * 2 + 7
        whole = list(inputs.generate("tables", 3, count))
        parts = [
            op
            for epoch in range(inputs.n_epochs("tables", count))
            for op in inputs.epoch_ops("tables", 3, count, epoch)
        ]
        self.assertEqual(whole, parts)
        self.assertEqual(inputs.epoch_size("tables", count, 2), 7)

    def test_verdicts_warm_up_covers_every_table_of_the_first_epoch(self):
        self.assertEqual(inputs.warm_up_ops("verdicts", 0), [])
        self.assertEqual(inputs.warm_up_ops("tables", 1), [])
        first = inputs.epoch_ops("verdicts", 6, 3 * inputs.EPOCH_OPS["verdicts"], 0)
        built = {t for op in first for t in op["triples"]}
        warmed = {t for op in inputs.warm_up_ops("verdicts", 1) for t in op["triples"]}
        self.assertEqual(warmed, built)
        self.assertEqual(warmed, set(inputs.VERDICT_TRIPLES))

    def test_repeat_shares(self):
        verdicts = inputs.properties("verdicts", inputs.generate("verdicts", 4, 2000))
        tables = inputs.properties("tables", inputs.generate("tables", 4, 2000))
        self.assertAlmostEqual(verdicts["input.repeat_share"], 0.75, delta=0.01)
        self.assertAlmostEqual(tables["input.repeat_share"], 0.5, delta=0.05)

    def test_cli_runs_whole_cycles_of_the_mix(self):
        count = inputs.n_ops("cli", 15)
        self.assertEqual(count % len(inputs.CLI_SLOTS), 0)
        slots = sorted(op["slot"] for op in inputs.generate("cli", 5, count))
        cycles = count // len(inputs.CLI_SLOTS)
        self.assertEqual(slots, sorted(kind for kind, _ in inputs.CLI_SLOTS * cycles))


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(common.tail(list(range(1, 1001))), (990, 99, 10))

    def test_falls_back_when_too_few_beyond(self):
        # p99 of 999 samples leaves only 9 beyond, so p90 is reported
        self.assertEqual(common.tail(list(range(1, 1000))), (900, 90, 99))

    def test_order_does_not_matter(self):
        values = [float((i * 37) % 500) for i in range(500)]
        self.assertEqual(common.tail(values), common.tail(sorted(values)))

    def test_too_few_samples(self):
        self.assertEqual(common.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))


class NormalisationTest(unittest.TestCase):
    def test_normalise(self):
        # a machine running at half speed doubles both the reference and
        # the work; the reference-unit time is unchanged
        self.assertEqual(common.normalise(2.0, 1.0, 0.5), 1.0)
        self.assertEqual(common.normalise(2.0, 0.5, 0.5), 2.0)
        with self.assertRaises(ValueError):
            common.normalise(1.0, 0.0, 0.5)

    def test_chunk_factors_use_the_mean_of_both_neighbours(self):
        self.assertEqual(common.chunk_factors([1.0, 3.0, 1.0], 2.0), [1.0, 1.0])
        self.assertEqual(common.chunk_factors([1.0, 1.0], 2.0), [2.0])

    def test_steadiest_repeats_while_the_references_disagree(self):
        refs = iter([2.0, 1.5, 1.6, 9.0])
        runs = iter(["a", "b", "c", "d"])
        # 1.0 -> 2.0 and 2.0 -> 1.5 are unsteady; 1.5 -> 1.6 is within 20%
        got = common.steadiest(lambda: next(runs), lambda: next(refs), 1.0)
        self.assertEqual(got, ("c", 1.5, 1.6, [2.0, 1.5, 1.6]))

    def test_steadiest_keeps_the_best_attempt_when_none_is_steady(self):
        refs = iter([3.0, 4.0, 2.0])
        runs = iter(["a", "b", "c"])
        got = common.steadiest(lambda: next(runs), lambda: next(refs), 1.0)
        # gaps 2.0, 0.33, 0.5: the second attempt is kept
        self.assertEqual(got, ("b", 3.0, 4.0, [3.0, 4.0, 2.0]))

    def test_steadiest_stops_at_a_steady_first_attempt(self):
        got = common.steadiest(lambda: "a", lambda: 1.1, 1.0)
        self.assertEqual(got, ("a", 1.0, 1.1, [1.1]))

    def test_reference_nominal_is_the_geometric_mean(self):
        parts = ("loop", "dicts")
        want = math.sqrt(common.REFERENCES["loop"][1] * common.REFERENCES["dicts"][1])
        self.assertAlmostEqual(common.reference_nominal(parts), want)
        self.assertGreater(common.reference_loop(parts), 0)

    def test_interleaving(self):
        events = []

        def ref():
            events.append("R")
            return 1.0

        def op(i):
            events.append(i)
            return 0.5

        times, refs = common.run_chunked(5, 2, op, ref)
        self.assertEqual(events, ["R", 0, 1, "R", 2, 3, "R", 4, "R"])
        self.assertEqual(times, [0.5] * 5)
        self.assertEqual(len(refs), 4)


class TracingTest(unittest.TestCase):
    SPANS = [
        ("blocks.a", 1.0, 9.0, -1, 0),
        ("stems.b", 2.0, 5.0, 0, 0),
        ("stems.c", 3.0, 4.0, 1, 0),
        ("blocks.a", 11.0, 12.0, -1, 1),
    ]
    OPS = {0: (0.0, 10.0), 1: (10.5, 12.5)}

    def test_self_times(self):
        self.assertEqual(tracing.self_times(self.SPANS), [5.0, 2.0, 1.0, 1.0])

    def test_self_times_and_harness_add_up_to_operation_time(self):
        agg = tracing.aggregate(self.SPANS, self.OPS, lambda op: 1.0)
        self.assertEqual(tracing.check_accounting(self.SPANS, self.OPS), [])
        self.assertEqual(agg["total_ms"], 12000.0)
        self.assertEqual(agg["layer_ms"]["blocks"], 6000.0)
        self.assertEqual(agg["layer_ms"]["stems"], 3000.0)
        self.assertEqual(agg["layer_ms"]["harness"], 3000.0)
        self.assertEqual(sum(agg["layer_ms"].values()), agg["total_ms"])
        self.assertEqual(agg["calls"]["blocks.a"], 2)

    def test_escaping_spans_are_reported(self):
        bad = list(self.SPANS)
        bad[2] = ("stems.c", 3.0, 6.0, 1, 0)  # outlives its parent
        self.assertTrue(tracing.check_accounting(bad, self.OPS))
        self.assertTrue(tracing.check_accounting(self.SPANS, {0: (0.0, 8.0), 1: self.OPS[1]}))

    def test_wrapper_records_nesting_only_inside_operations(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("m.inner", lambda x: x + 1)
        outer = tracer.wrap("m.outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual(tracer.spans, [])
        tracer.op = 7
        self.assertEqual(outer(1), 4)
        (name0, s0, e0, p0, op0), (name1, s1, e1, p1, op1) = tracer.spans
        self.assertEqual((name0, p0, op0, name1, p1, op1), ("m.outer", -1, 7, "m.inner", 0, 7))
        self.assertTrue(s0 <= s1 <= e1 <= e0)


class OracleTest(unittest.TestCase):
    """The harness's checks agree with the library on small inputs."""

    def test_table_value_matches_the_library(self):
        from swstem.blocks import basic_class_table, max_multiple

        for p_g, m, n in [(1, 1, 1), (3, 1, 1), (4, 2, 3), (5, 3, 7), (2, 5, 6)]:
            table = dict(basic_class_table(p_g, m, n).entries)
            top = max_multiple(p_g, m, n)
            for x in range(-top - 3, top + 4):
                self.assertEqual(checks.table_value(p_g, m, n, x), table.get(x, 0), (p_g, m, n, x))

    def test_table_and_odd_counts(self):
        from swstem.blocks import basic_class_table, recognizable_set

        for p_g, m, n in [(1, 1, 1), (5, 2, 3), (7, 4, 5)]:
            self.assertIsNone(checks.check_table(p_g, m, n, basic_class_table(p_g, m, n).entries))
            self.assertEqual(len(recognizable_set(p_g, m, n)), checks.odd_count(p_g, m, n))
            self.assertEqual(list(recognizable_set(p_g, m, n)), inputs._odd_set(p_g, m, n))
        self.assertIsNotNone(checks.check_table(1, 1, 1, ((0, 2),)))

    def test_stem_degree(self):
        summands = [{"type": "k3"}, {"type": "negative_definite", "rank": 1, "c": [3]}, {"type": "s4"}]
        self.assertEqual(checks.stem_degree(summands), (1, 3, -1))


class RunTest(unittest.TestCase):
    def test_refuses_without_a_library(self):
        scratch = ROOT / ".bench_out" / "test-no-library"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(BENCH, scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "sums", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_short_run_prints_a_checked_result(self):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "9", "--seconds", "0.05", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["metrics"]["recognize.recognize.calls"]["value"], result["attempted"] // 2)


if __name__ == "__main__":
    unittest.main()
