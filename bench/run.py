"""swstem benchmark: one run of one workload.

    python3 bench/run.py --workload {cli,sums,verdicts,tables} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics: set-up several
times, then one untraced run.  ``--trace 1`` measures the per-layer metrics:
one untraced and one traced run, plus fresh imports of ``swstem.cli``.  Every
operation's output is checked.  Human-readable lines go first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (machine,
seed, raw reference durations) is written under ``.bench_out/``.  Exit code 0
means the run completed, whether or not every check passed; without a
library to measure, or when a worker fails, the exit code is 1 and no result
is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import common
import inputs
from tracing import LAYERS
from worker import OUT, ROOT, bare_start, cli_env

#: set-up samples per --trace 0 run; the median is reported
SETUP_SAMPLES = 7
#: fresh `import swstem.cli` samples per --trace 1 run
IMPORT_SAMPLES = 7
#: the whole run must end within this many seconds
DEADLINE_S = 170

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/ref-s",
    "latency_p50_ms": "ref-ms",
    "latency_tail_ms": "ref-ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: per-layer span metrics: (span name, whether self time is reported too)
SPAN_METRICS = (
    ("manifold_io.parse_manifold", True),
    ("manifold_io.serialize_manifold", True),
    ("invariants.invariant", True),
    ("invariants.nonvanishing_criteria", True),
    ("invariants.blowup", True),
    ("stems.smash", True),
    ("stems.smash_all", True),
    ("lattice.dirac_index", False),
    ("blocks.basic_class_table", True),
    ("blocks.sw_value", True),
    ("blocks.sw_parity", True),
    ("blocks.recognizable_set", True),
    ("blocks.BasicClassTable.value", True),
    ("recognize.recognize", True),
    ("recognize.recognize_oracle", True),
)
INIT_METRICS = ("stems.StemElement", "lattice.SpinC", "recognize.Pattern")


class RunFailed(Exception):
    """A worker failed or the run overran its deadline."""


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env = cli_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = inputs.n_ops(workload, seconds)
        self.n_epochs = inputs.n_epochs(workload, self.count)
        self.bare_starts: list[float] = []

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed(f"run exceeded {DEADLINE_S} s")
        return left

    def bare(self) -> float:
        t = bare_start(self.env)
        self.bare_starts.append(t)
        return t

    def worker(self, epoch: int = 0, traced: bool = False, setup_only: bool = False):
        """Spawn one worker; return (set-up time in ref-s, result or None)."""
        cmd = [
            sys.executable, str(ROOT / "bench" / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--seconds", str(self.seconds), "--epoch", str(epoch),
        ]
        cmd += ["--traced"] * traced + ["--setup-only"] * setup_only
        bare = self.bare()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, _ = proc.communicate(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if first.strip() != "READY" or proc.returncode != 0:
            raise RunFailed(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
        setup_ref = common.normalise(setup, bare, common.REF_START_NOMINAL_S)
        return setup_ref, (None if setup_only else json.loads(out.splitlines()[-1]))

    def run(self, traced: bool = False, setups: list[float] | None = None) -> dict:
        """All epochs of one pass, merged."""
        parts = []
        for epoch in range(self.n_epochs):
            setup, result = self.worker(epoch, traced)
            if setups is not None and epoch == 0:
                setups.append(setup)
            parts.append(result)
        merged = {
            "latencies": [x for p in parts for x in p["latencies"]],
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "reasons": [r for p in parts for r in p["reasons"]][:5],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
            "ref_loop_s": [x for p in parts for x in p["ref_loop_s"]],
            "bare_start_s": [x for p in parts for x in p.get("bare_start_s", [])],
        }
        for key in ("sub_p50", "hostile_failed", "hostile_reasons"):
            if key in parts[0]:
                merged[key] = parts[0][key]
        if traced:
            merged["trace"] = _merge_traces([p["trace"] for p in parts])
        return merged

    def ops(self):
        """The run's inputs, generated again from the seed."""
        return inputs.generate(self.workload, self.seed, self.count)

    def import_ms(self) -> float:
        """Median fresh `import swstem.cli`, normalised against a bare start."""
        code = "import time; t = time.perf_counter(); import swstem.cli; print(time.perf_counter() - t)"
        samples = []
        for _ in range(IMPORT_SAMPLES):
            bare = self.bare()
            out = subprocess.run(
                [sys.executable, "-c", code], env=self.env, capture_output=True,
                text=True, check=True, timeout=self._remaining(),
            ).stdout
            samples.append(common.normalise(float(out), bare, common.REF_START_NOMINAL_S) * 1000)
        return statistics.median(samples)


def _merge_traces(traces: list[dict]) -> dict:
    merged = {"problems": [], "calls": {}, "self_ms": {}, "layer_ms": {}, "total_ms": 0.0, "spans_files": []}
    for t in traces:
        merged["problems"] += t["problems"]
        for key in ("calls", "self_ms", "layer_ms"):
            for name, value in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["total_ms"] += t["total_ms"]
        merged["spans_files"].append(t["spans_file"])
    return merged


def throughput(latencies: list[float]) -> float:
    """Operations per reference second of operation time."""
    return len(latencies) / sum(latencies)


def end_to_end(runner: Runner) -> tuple[dict, dict, list[str]]:
    setups: list[float] = []
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(runner.worker(setup_only=True)[0])
    result = runner.run(setups=setups)
    lat = result["latencies"]
    tail, pct, beyond = common.tail(lat)
    values = {
        "throughput_ops_s": throughput(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_tail_ms": tail * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": 1 - result["failed"] / result["attempted"],
    }
    notes = [
        f"latency_tail_ms is p{pct:g} of n={len(lat)} ({beyond} samples beyond)",
        f"error_rate {result['failed'] / result['attempted']:.6f} ({result['failed']} of {result['attempted']} failed)",
        f"setup samples (s, normalised to bare starts): {', '.join(f'{s:.4f}' for s in setups)}",
    ] + _hostile_notes(result)
    if runner.workload == "cli":
        again = len(result["bare_start_s"]) - len(lat) - 1
        notes.append(f"CLI calls timed again because the bare starts around them disagreed: {again}")
    return values, result, notes


def _hostile_notes(result: dict) -> list[str]:
    if "hostile_reasons" not in result:
        return []
    return [
        f"hostile inputs (untimed, known defects): {result['hostile_failed']} of "
        f"{len(inputs.HOSTILE)} failed: " + "; ".join(result["hostile_reasons"])
    ]


def per_layer(runner: Runner) -> tuple[dict, dict, list[str]]:
    plain = runner.run()
    traced = runner.run(traced=True)
    trace = traced["trace"]
    total = trace["total_ms"]
    accounted = sum(trace["layer_ms"].values())
    if abs(accounted - total) > 1e-6 * total:
        trace["problems"].append(f"layer self times sum to {accounted} ms, operations took {total} ms")
    values = {"cli.import_ms": runner.import_ms()}
    for sub in inputs.SUBCOMMANDS:
        # 0 where the workload makes no call of that subcommand
        values[f"cli.{sub}.p50_ms"] = plain.get("sub_p50", {}).get(sub, 0.0) * 1000
    values["cli.hostile_failed"] = plain.get("hostile_failed", 0)
    for name, with_self in SPAN_METRICS:
        values[f"{name}.calls"] = trace["calls"].get(name, 0)
        if with_self:
            values[f"{name}.self_ms"] = trace["self_ms"].get(name, 0.0)
    for name in INIT_METRICS:
        values[f"{name}.inits"] = trace["calls"].get(f"{name}.__init__", 0)
    for layer in LAYERS:
        values[f"{layer}.self_share"] = trace["layer_ms"].get(layer, 0.0) / total
    values.update(inputs.properties(runner.workload, runner.ops()))
    refs = plain["ref_loop_s"] + traced["ref_loop_s"]
    values["ref.loop_ms"] = statistics.median(refs) * 1000
    starts = runner.bare_starts + plain["bare_start_s"] + traced["bare_start_s"]
    values["ref.interpreter_start_ms"] = statistics.median(starts) * 1000
    values["trace.overhead_ratio"] = throughput(plain["latencies"]) / throughput(traced["latencies"])
    merged = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "reasons": (plain["reasons"] + traced["reasons"])[:5],
        "ref_loop_s": refs,
        "bare_start_s": plain["bare_start_s"] + traced["bare_start_s"],
        "trace_problems": trace["problems"],
    }
    notes = [f"spans written to {', '.join(trace['spans_files'])}"] + _hostile_notes(plain)
    return values, merged, notes


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith("ref."):
        return "ms"  # raw reference durations, not normalised
    if name in ("input.summands_mean", "input.table_entries_mean"):
        return "count"
    if name.endswith("_ms"):
        return "ref-ms"
    if name.endswith((".calls", ".inits", "hostile_failed")):
        return "count"
    return "ratio"


def _commit() -> str:
    """HEAD of the checkout when it is a git repository, else "unknown"."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="swstem benchmark: one run of one workload")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "swstem" / "__init__.py").is_file():
        print(f"error: no library to measure at {ROOT / 'src' / 'swstem'}", file=sys.stderr)
        return 1

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            values, result, notes = per_layer(runner)
        else:
            values, result, notes = end_to_end(runner)
    except (RunFailed, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = result.get("trace_problems", [])
    correct = result["failed"] == 0 and not problems
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "input_digest": inputs.digest(runner.ops()),
        "ref_nominal_s": {
            "loop": common.reference_nominal(common.WORKLOAD_REFERENCES.get(args.workload, ("loop",))),
            "interpreter_start": common.REF_START_NOMINAL_S,
        },
        "ref_loop_s": result["ref_loop_s"],
        "interpreter_start_s": runner.bare_starts + result["bare_start_s"],
        "metrics": values,
        "failures": result["reasons"],
        "trace_problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  ops {runner.count}  input.digest {record['input_digest']}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {_unit(name)}")
    for note in notes:
        print(f"  {note}")
    for reason in result["reasons"] + problems:
        print(f"  FAILED: {reason}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
