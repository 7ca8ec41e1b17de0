"""One run (or one epoch of a run) of one workload in a fresh interpreter.

    python bench/worker.py --workload W --seed N --seconds S [--epoch E] [--traced] [--setup-only]

Started by ``run.py``.  Imports the library (from ``src/`` via PYTHONPATH),
prints ``READY`` (the end of set-up), runs its slice of the fixed, seeded
sequence of operations in one closed-loop client, checks every output and prints one
JSON line with the raw results for ``run.py``.  Each operation is timed on
its own; in-process operations run in chunks between reference loops, CLI
calls each sit between two bare interpreter starts (and are timed again
while those disagree).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import common
import inputs
from tracing import Tracer, aggregate, check_accounting

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
#: operations per chunk between two references (about 5-7 ms of work): short
#: chunks keep a change of machine speed from mis-scaling many operations
CHUNK = {"sums": 6, "verdicts": 4, "tables": 6}
LIBRARY_MODULES = ("blocks", "cli", "invariants", "lattice", "manifold_io", "recognize", "stems")
#: reasons kept for the report
MAX_REASONS = 5


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


# ------------------------------------------------------------ in-process ops

def _run_sums(sw, op):
    mio, inv_mod = sw.manifold_io, sw.invariants
    doc = mio.parse_manifold(op["text"])
    csum = doc.to_connected_sum()
    inv = inv_mod.invariant(csum)
    inv_mod.nonvanishing_criteria(csum)
    rank, coords = op["blowup"]["rank"], op["blowup"]["c"]
    blown = inv_mod.blowup(inv, sw.blocks.NegativeDefinite(rank), sw.lattice.SpinC.from_coords(coords))
    text = mio.serialize_manifold(doc)
    return doc, inv, blown, text


def _check_sums(sw, op, out):
    doc, inv, blown, text = out
    if sw.manifold_io.parse_manifold(text) != doc:
        return "parse(serialize(doc)) != doc"
    bad = checks.check_stem("invariant", inv, op["summands"])
    if bad:
        return bad
    rank, coords = op["blowup"]["rank"], op["blowup"]["c"]
    extra = (rank - sum(c * c for c in coords)) // 8
    return checks.check_stem("blowup", blown.invariant, op["summands"], extra)


def _run_verdicts(sw, op):
    inv_mod, blocks = sw.invariants, sw.blocks
    doc = sw.manifold_io.parse_manifold(op["text"])
    csum = inv_mod.ConnectedSum(
        tuple(inv_mod.Summand(s.block, class_key=k) for s, k in zip(doc.summands, op["keys"]))
    )
    inv = inv_mod.invariant(csum)
    crit = inv_mod.nonvanishing_criteria(csum)
    values, parities = [], []
    for s, key, top in zip(doc.summands, op["keys"], op["tops"]):
        values.append(blocks.sw_value(s.block, top if key is None else key))
        parities.append(blocks.sw_parity(s.block, key))
    return inv, crit, values, parities


def _check_verdicts(sw, op, out):
    inv, crit, values, parities = out
    all_hold = True
    for (p_g, m, n), key, top, value, parity in zip(op["triples"], op["keys"], op["tops"], values, parities):
        want = checks.table_value(p_g, m, n, top if key is None else key)
        if value != want:
            return f"sw_value E({p_g};{m},{n}) at {key}: {value}, expected {want}"
        if key is None and value != 1:
            return f"E({p_g};{m},{n}): value {value} at the top multiple"
        if parity.value != want % 2:
            return f"sw_parity E({p_g};{m},{n}) at {key}: {parity}, expected {want % 2}"
        all_hold &= p_g % 2 == 1 and want % 2 == 1
    summands = [{"type": "elliptic", "p_g": p, "m": m, "n": n} for p, m, n in op["triples"]]
    bad = checks.check_stem("invariant", inv, summands)
    if bad:
        return bad
    # 1-3 almost complex summands: nonzero iff each has b+ = 3 (mod 4) and odd SW
    want_verdict = "YES" if all_hold else "NO"
    if str(crit.verdict) != want_verdict:
        return f"nonvanishing {crit.verdict}, expected {want_verdict}"
    return None


def _run_tables(sw, op):
    blocks, rec = sw.blocks, sw.recognize
    p_g, m, n = op["triple"]
    table = blocks.basic_class_table(p_g, m, n)
    odd = blocks.recognizable_set(p_g, m, n)
    pattern = rec.Pattern(odd)
    result = rec.recognize(pattern)
    oracle = rec.recognize_oracle(pattern, inputs.ORACLE_BOUNDS) if op["oracle"] else None
    return table, odd, result, oracle


def _check_tables(sw, op, out):
    table, odd, result, oracle = out
    triple = tuple(op["triple"])
    bad = checks.check_table(*triple, table.entries)
    if bad:
        return bad
    if len(odd) != checks.odd_count(*triple):
        return f"E{triple}: {len(odd)} odd multiples, expected {checks.odd_count(*triple)}"
    if result.triple != triple or not result.validated:
        return f"recognize gave {result.triple} (validated={result.validated}), expected {triple}"
    if oracle is not None and oracle != (triple,):
        return f"recognize_oracle gave {oracle}, expected ({triple},)"
    return None


IN_PROCESS = {
    "sums": (_run_sums, _check_sums),
    "verdicts": (_run_verdicts, _check_verdicts),
    "tables": (_run_tables, _check_tables),
}


def run_in_process(workload, tag, ops, count, sw, tracer):
    """Run count ops from the iterator ops in chunks between references.

    Each op's input is made just before it runs, outside its timing, so the
    harness holds no pre-generated inputs that would slow the collector.
    """
    run_op, check_op = IN_PROCESS[workload]
    chunk = CHUNK[workload]
    reasons: list[str] = []
    intervals: dict[int, tuple[float, float]] = {}
    clock = time.perf_counter

    def do_op(i):
        op = next(ops)
        if tracer:
            tracer.op = i
        start = clock()
        out = run_op(sw, op)
        end = clock()
        if tracer:
            tracer.op = -1
            intervals[i] = (start, end)
        bad = check_op(sw, op, out)
        if bad:
            reasons.append(f"op {i}: {bad}")
        return end - start

    parts = common.WORKLOAD_REFERENCES[workload]
    raw, refs = common.run_chunked(count, chunk, do_op, lambda: common.reference_loop(parts))
    factors = common.chunk_factors(refs, common.reference_nominal(parts))
    result = {
        "latencies": [t * factors[i // chunk] for i, t in enumerate(raw)],
        "failed": len(reasons),
        "reasons": reasons[:MAX_REASONS],
        "ref_loop_s": refs,
        "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF),
    }
    if tracer:
        result["trace"] = _trace_report(tracer, intervals, lambda op: factors[op // chunk], workload, tag)
    return result


def _trace_report(tracer, intervals, op_factor, workload, tag):
    problems = check_accounting(tracer.spans, intervals)
    agg = aggregate(tracer.spans, intervals, op_factor)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{tag}.jsonl"
    with open(path, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return {
        "problems": problems,
        "calls": dict(agg["calls"]),
        "self_ms": dict(agg["self_ms"]),
        "layer_ms": dict(agg["layer_ms"]),
        "total_ms": agg["total_ms"],
        "spans_file": str(path.relative_to(ROOT)),
    }


# ------------------------------------------------------------ cli

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def bare_start(env) -> float:
    """Wall time of ``python -c pass`` in the given environment."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


def _materialise(calls, workdir: Path):
    """Write each call's files and resolve the argv placeholders."""
    for i, call in enumerate(calls):
        names = {"dir": str(workdir)}
        for tag, doc in call.get("files", {}).items():
            path = workdir / f"call{i}-{tag}.json"
            path.write_text(json.dumps(doc))
            names[tag] = str(path)
        if "raw" in call:
            path = workdir / f"hostile-{call['raw']}.json"
            path.write_bytes(inputs.hostile_bytes(call["raw"]))
            names["a"] = str(path)
        call["args"] = [a.format(**names) for a in call["argv"]]


def _library_answer(sw, args) -> str:
    """What ``swstem.cli.main(args)`` prints, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        sw.cli.main(list(args))
    return out.getvalue()


def _check_call(call, proc, expected_stdout) -> str | None:
    if proc.returncode != call["expect"]:
        return f"{call['slot']}: exit {proc.returncode}, expected {call['expect']}"
    if "Traceback" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        return f"{call['slot']}: traceback ({last[:80]})"
    if sum("error:" in line for line in proc.stderr.splitlines()) > 1:
        return f"{call['slot']}: more than one error line"
    if call["expect"] == 0 and proc.stdout != expected_stdout:
        return f"{call['slot']}: stdout differs from the library's answer"
    return None


def _spawn_call(args, env, traced_to):
    if traced_to is None:
        cmd = [sys.executable, "-m", "swstem", *args]
    else:
        cmd = [sys.executable, str(BENCH / "cli_boot.py"), str(traced_to), *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, errors="replace", timeout=60)
    end = time.perf_counter()
    return proc, start, end


def run_cli(seed, calls, sw, traced):
    env = cli_env()
    workdir = OUT / f"cli-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    hostile = inputs.gen_hostile()
    try:
        _materialise(calls + hostile, workdir)
        latencies, factors, bares, procs = [], [], [bare_start(env)], []
        intervals, tracer = {}, Tracer()
        spans = itertools.count()
        for i, call in enumerate(calls):

            def attempt(call=call):
                span_path = workdir / f"spans{next(spans)}.json" if traced else None
                return span_path, *_spawn_call(call["args"], env, span_path)

            (span_path, proc, start, end), before, after, refs = common.steadiest(
                attempt, lambda: bare_start(env), bares[-1])
            bares += refs
            # a call's reference is the mean of the bare starts just before and after it
            factor = common.normalise(1.0, (before + after) / 2, common.REF_START_NOMINAL_S)
            latencies.append((end - start) * factor)
            factors.append(factor)
            procs.append(proc)
            if traced:
                intervals[i] = (start, end)
                _load_child_spans(tracer, span_path, i)
        ref_loops = [common.reference_loop() for _ in range(5)]
        peak = _rss_mb(resource.RUSAGE_CHILDREN)
        reasons = []
        for call, proc in zip(calls, procs):
            expected = _library_answer(sw, call["args"]) if call["expect"] == 0 else ""
            bad = _check_call(call, proc, expected)
            if bad:
                reasons.append(bad)
        hostile_reasons = []
        for call in hostile:
            proc, _, _ = _spawn_call(call["args"], env, None)
            bad = _check_call(call, proc, "")
            if bad:
                hostile_reasons.append(bad)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    by_sub: dict[str, list[float]] = {}
    for call, lat in zip(calls, latencies):
        by_sub.setdefault(call["args"][0], []).append(lat)
    result = {
        "latencies": latencies,
        "failed": len(reasons),
        "reasons": reasons[:MAX_REASONS],
        "hostile_failed": len(hostile_reasons),
        "hostile_reasons": hostile_reasons,
        "sub_p50": {s: statistics.median(v) for s, v in by_sub.items() if s in inputs.SUBCOMMANDS},
        "bare_start_s": bares,
        "ref_loop_s": ref_loops,
        "peak_rss_mb": peak,
    }
    if traced:
        result["trace"] = _trace_report(tracer, intervals, factors.__getitem__, "cli", seed)
    return result


def _load_child_spans(tracer: Tracer, path: Path, op: int) -> None:
    """Add the spans a traced child wrote, as operation op."""
    data = json.loads(path.read_text())
    offset = len(tracer.spans)
    tracer.spans += [
        (name, start, end, parent + offset if parent >= 0 else -1, op)
        for name, start, end, parent, _ in data["spans"]
    ]


# ------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--epoch", type=int, default=0, help="which epoch of the run's ops")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import swstem.cli  # noqa: F401  (loads every library module)

    # the package re-exports functions under module names (swstem.recognize)
    sw = SimpleNamespace(**{name: sys.modules[f"swstem.{name}"] for name in LIBRARY_MODULES})
    count = inputs.n_ops(args.workload, args.seconds)
    ops = inputs.epoch_ops(args.workload, args.seed, count, args.epoch)
    size = inputs.epoch_size(args.workload, count, args.epoch)
    if args.workload == "cli":
        ops = list(ops)
    for op in inputs.warm_up_ops(args.workload, args.epoch):
        IN_PROCESS[args.workload][0](sw, op)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.workload == "cli":
        result = run_cli(args.seed, ops, sw, args.traced)
    else:
        tracer = None
        if args.traced:
            tracer = Tracer()
            tracer.install()
        result = run_in_process(args.workload, f"{args.seed}-e{args.epoch}", ops, size, sw, tracer)
    result["attempted"] = size
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
