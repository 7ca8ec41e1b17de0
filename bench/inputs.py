"""Seeded, deterministic inputs for the four workloads (stdlib only).

Each generator turns (seed, number of operations) into an iterator of
JSON-able operations, made lazily so that the harness holds no pre-generated
inputs; the program under test only ever sees these generated inputs.  The
same seed gives the same sequence, and ``digest`` fingerprints it.

Work per run is held steady across seeds on purpose: the seed chooses
documents, triples within fixed size buckets, class keys and order, while the
cost structure (table sizes and shapes, the share of repeats, the mix of CLI
call kinds) is fixed.  Otherwise a seed that happened to draw larger tables
would read as a slower program.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import islice
from math import gcd, log

WORKLOADS = ("cli", "sums", "verdicts", "tables")

#: operations per second of --seconds, set once on the reference machine; the
#: op count of a run is fixed by --seconds through these rates and never by
#: the clock, so the tail rank falls on the same input in every run
OPS_PER_REF_S = {"cli": 10.0, "sums": 600.0, "verdicts": 700.0, "tables": 600.0}

#: operations per fresh interpreter; workloads not listed run in one
EPOCH_OPS = {"tables": 700, "verdicts": 1400}

#: recognize_oracle bounds; the defaults are never used (they exhaust memory)
ORACLE_BOUNDS = (15, 9)


def rng_for(workload: str, seed: int) -> random.Random:
    # str seeds hash with sha512 in random.seed, independent of PYTHONHASHSEED
    return random.Random(f"swstem-bench:{workload}:{seed}")


def n_ops(workload: str, seconds: float) -> int:
    n = max(1, round(seconds * OPS_PER_REF_S[workload]))
    if workload == "cli":
        # whole cycles of the call mix, so every run has the same mix
        return max(1, round(n / len(CLI_SLOTS))) * len(CLI_SLOTS)
    return max(n, 40)


def warm_up_ops(workload: str, epoch: int) -> list[dict]:
    """Untimed ops that bring a later epoch's fresh interpreter to the cache
    state the earlier epochs left: for ``verdicts``, every table built once
    (the first epoch builds them all in its own timed operations)."""
    if workload != "verdicts" or epoch == 0:
        return []
    return [
        {
            "text": json.dumps({"name": "warm-up", "summands": [{"type": "elliptic", "p_g": p, "m": m, "n": n}]}),
            "triples": ((p, m, n),),
            "tops": [max_multiple(p, m, n)],
            "keys": [None],
            "repeat": False,
        }
        for p, m, n in VERDICT_TRIPLES
    ]


def digest(ops) -> str:
    """Fingerprint of the generated inputs."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()[:16]


def max_multiple(p_g: int, m: int, n: int) -> int:
    return (p_g - 1) * m * n + (m - 1) * n + (n - 1) * m


# ---------------------------------------------------------------- triples

def _ladder(lo: float, hi: float, rungs: int) -> list[float]:
    return [lo * (hi / lo) ** (i / (rungs - 1)) for i in range(rungs)]


def _triple_near(rng: random.Random, target: float, p_g: int) -> tuple[int, int, int]:
    """A coprime triple (p_g, m <= n) with p_g*m*n close to target.

    The caller fixes p_g: the cost of a lookup depends on it (through the
    number of odd binomials) as well as on the table size, so only m and n
    are left to the seed.
    """
    mn = target / p_g
    while True:
        m = rng.randint(1, max(1, int(mn ** 0.5)))
        n = max(m, round(mn / m))
        if gcd(m, n) == 1:
            return (p_g, m, n)


def _small_triples() -> list[tuple[int, int, int]]:
    """Odd-genus triples inside ORACLE_BOUNDS."""
    pg_max, n_max = ORACLE_BOUNDS
    return [
        (p_g, m, n)
        for p_g in range(1, pg_max + 1, 2)
        for m in range(1, n_max + 1)
        for n in range(m, n_max + 1)
        if gcd(m, n) == 1
    ]


def _new_positions(rng: random.Random, count: int, n_new: int) -> set[int]:
    """Op indices that see a new input; op 0 always does."""
    return {0} | set(rng.sample(range(1, count), max(0, min(n_new, count) - 1)))


# ---------------------------------------------------------------- sums

_CHEAP_ELLIPTIC = [
    (p_g, m, n)
    for p_g in range(1, 31)
    for m in range(1, 31)
    for n in range(m, 31)
    if gcd(m, n) == 1 and p_g * m * n <= 30
]


def _cheap_summand(rng: random.Random) -> dict:
    kind = rng.choice(("k3", "elliptic", "elliptic", "symplectic", "kaehler", "s4"))
    if kind == "elliptic":
        p_g, m, n = rng.choice(_CHEAP_ELLIPTIC)
        return {"type": "elliptic", "p_g": p_g, "m": m, "n": n}
    if kind == "symplectic":
        return {"type": "symplectic", "b_plus": rng.randrange(1, 16, 2)}
    if kind == "kaehler":
        labels = sorted({rng.randint(-6, 6) for _ in range(rng.randint(0, 3))})
        return {"type": "kaehler", "b_plus": rng.randrange(1, 16, 2), "odd_basic": labels}
    return {"type": kind}


def _negdef(rng: random.Random, max_rank: int) -> dict:
    rank = rng.randint(1, max_rank)
    coords = [3 if rng.random() < 1 / 6 else rng.choice((1, -1)) for _ in range(rank)]
    return {"type": "negative_definite", "rank": rank, "c": coords}


#: distinct cheap summands per sums run; ops draw from them
SUMS_POOL = 400


def gen_sums(seed: int, count: int):
    """Wide sums of 8-32 cheap blocks; a third carry negative definite parts.

    ``summands`` holds the block parameters, so the harness can recompute
    b+ and d without reading the program's output.
    """
    rng = rng_for("sums", seed)
    pool = [_cheap_summand(rng) for _ in range(SUMS_POOL)]
    negdef = [_negdef(rng, 4) for _ in range(SUMS_POOL // 8)]
    frags = {id(s): json.dumps(s) for s in pool + negdef}
    for i in range(count):
        summands = rng.choices(pool, k=rng.randint(8, 32))
        if rng.random() < 1 / 3:
            for _ in range(rng.randint(1, 2)):
                summands.insert(rng.randrange(len(summands) + 1), rng.choice(negdef))
        rank = rng.randint(1, 2)
        blow = {"rank": rank, "c": [rng.choice((1, 1, 3)) for _ in range(rank)]}
        text = '{"name": "sum %d", "summands": [%s]}' % (i, ", ".join(frags[id(s)] for s in summands))
        yield {"text": text, "summands": summands, "blowup": blow}


# ---------------------------------------------------------------- verdicts

def _ladder_triple(target: float, p_g: int, m: int) -> tuple[int, int, int]:
    """(p_g, m, n) with n >= m coprime to m and p_g*m*n close to target."""
    n = max(m, round(target / (p_g * m)))
    while gcd(m, n) != 1:
        n += 1
    return (p_g, m, n)


#: one triple per rung of a log-spaced ladder from 10^2 to 10^4 entries, with
#: p_g and m spread over the rungs
#: times each verdicts document is used in a run
VERDICT_VISITS = 4

VERDICT_TRIPLES = [
    _ladder_triple(target, 1 + 13 * r % 40, 1 + 5 * r % 7)
    for r, target in enumerate(_ladder(100, 10_000, 24))
]


def _verdict_docs(rng: random.Random):
    """Endless seeded stream of documents (tuples of triples).

    The first documents are the triples alone, in seeded order, so each new
    table is built by an operation of its own.  After that come rounds of a
    fixed set of compositions (every triple alone, in two pairs and in three
    threes), each round in seeded order: every seed gets the same mix of
    document sizes.
    """
    t, n = VERDICT_TRIPLES, len(VERDICT_TRIPLES)
    yield from ((x,) for x in rng.sample(t, n))
    rounds = (
        [(t[i],) for i in range(n)]
        + [(t[i], t[(i + 7) % n]) for i in range(n)]
        + [(t[i], t[(i + 5) % n], t[(i + 11) % n]) for i in range(n)]
    )
    while True:
        for doc in rng.sample(rounds, len(rounds)):
            yield tuple(rng.sample(doc, len(doc)))


def gen_verdicts(seed: int, count: int):
    """Narrow sums of 1-3 elliptic summands with 10^2..10^4 table entries.

    The triples are VERDICT_TRIPLES, one per rung of a size ladder, fixed
    for every seed: a lookup's cost depends on the table's shape (p_g, and m
    through the memory order of the entries) as well as on its size, so
    seeded triples would make the work differ between seeds.  The seed
    chooses the order, the pairings within each document and the class
    keys.  Every document appears VERDICT_VISITS times in seeded order, so
    three quarters of the operations revisit a document and every document
    weighs the same; documents differ at least in their name.
    """
    rng = rng_for("verdicts", seed)
    stream = _verdict_docs(rng)
    docs: dict[int, tuple[tuple[int, int, int], ...]] = {}
    texts: dict[int, str] = {}
    visits = [j for j in range(-(-count // VERDICT_VISITS)) for _ in range(VERDICT_VISITS)]
    rng.shuffle(visits)
    for doc_id in visits[:count]:
        repeat = doc_id in docs
        if not repeat:
            docs[doc_id] = next(stream)
            summands = [{"type": "elliptic", "p_g": p, "m": m, "n": n} for p, m, n in docs[doc_id]]
            texts[doc_id] = json.dumps({"name": f"verdict doc {len(docs) - 1}", "summands": summands})
        triples = docs[doc_id]
        tops = [max_multiple(*t) for t in triples]
        keys = [None if rng.random() < 1 / 3 else top - 2 * rng.randint(0, top) for top in tops]
        yield {"text": texts[doc_id], "triples": triples, "tops": tops, "keys": keys, "repeat": repeat}


# ---------------------------------------------------------------- tables

#: table sizes of new triples cycle through this many log-spaced buckets
TABLE_BUCKETS = 12
TABLE_SIZES = (300, 9000)
#: every ORACLE_EVERY-th operation also runs recognize_oracle
ORACLE_EVERY = 10


def _table_candidates() -> list[list[tuple[int, int, int]]]:
    """Odd-genus triples with table sizes in TABLE_SIZES, by size bucket."""
    lo, hi = TABLE_SIZES
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in range(TABLE_BUCKETS)]
    for p_g in range(1, 16, 2):
        for m in range(1, 91):
            for n in range(m, 91):
                size = p_g * m * n
                if lo <= size < hi and gcd(m, n) == 1:
                    k = int(TABLE_BUCKETS * log(size / lo) / log(hi / lo))
                    buckets[k].append((p_g, m, n))
    return buckets


def gen_tables(seed: int, count: int):
    """Listing and recognition of odd-genus triples, about half repeats.

    The ops come in epochs of EPOCH_OPS["tables"], each run in a fresh
    interpreter (the library caches every table for the life of the
    process, so one long process would grow by ~80 MB per second of work).
    Within an epoch, new triples cycle through fixed log-spaced size
    buckets, so every epoch builds the same spread of table sizes; the seed
    picks the triple within each bucket.  Every ORACLE_EVERY-th operation
    instead takes a small triple and also runs the oracle at ORACLE_BOUNDS.
    """
    rng = rng_for("tables", seed)
    candidates = _table_candidates()
    small = _small_triples()
    for first in range(0, count, EPOCH_OPS["tables"]):
        size = min(EPOCH_OPS["tables"], count - first)
        buckets = [rng.sample(b, len(b)) for b in candidates]
        new_at = _new_positions(rng, size, size // 2)
        used: list[tuple[int, int, int]] = []
        seen: set = set()
        for i in range(size):
            oracle = i % ORACLE_EVERY == ORACLE_EVERY // 2
            if oracle:
                triple = rng.choice(small)
            elif i in new_at or not used:
                triple = buckets[len(used) % TABLE_BUCKETS].pop()
                used.append(triple)
            else:
                triple = rng.choice(used)
            yield {"triple": triple, "oracle": oracle, "repeat": triple in seen}
            seen.add(triple)


# ---------------------------------------------------------------- cli

#: one cycle of the CLI call mix: (slot kind, form); the seed draws each
#: slot's inputs and the order within the cycle
CLI_SLOTS = (
    ("basic-classes", "text"),
    ("basic-classes", "text"),
    ("basic-classes-1k", "json"),
    ("recognizable", "text"),
    ("recognizable", "json"),
    ("recognize", "text"),
    ("recognize", "json"),
    ("recognize-bounds", "text"),
    ("invariant", "text"),
    ("invariant", "json"),
    ("invariant", "trace"),
    ("invariant", "json-trace"),
    ("nonvanishing", "text"),
    ("nonvanishing", "json"),
    ("nonvanishing", "trace"),
    ("blowup", "text"),
    ("blowup", "json"),
    ("blowup", "trace"),
    ("split-check", "text"),
    ("split-check", "json"),
    ("split-check", "trace"),
    ("distinguish", "text"),
    ("distinguish", "json"),
    ("fingerprint", "text"),
    ("fingerprint", "json"),
    ("error-domain-pg0", "text"),
    ("error-domain-unknown-key", "text"),
    ("error-domain-missing-file", "text"),
    ("error-usage-missing-flag", "text"),
    ("error-usage-unknown-command", "text"),
)

#: subcommands, in the order their p50 is reported
SUBCOMMANDS = (
    "basic-classes",
    "recognizable",
    "recognize",
    "invariant",
    "nonvanishing",
    "blowup",
    "split-check",
    "distinguish",
    "fingerprint",
)

#: hostile inputs from the ROADMAP; each must end in exit 1 with one
#: ``error:`` line.  They run once per cli run, outside the timed mix.
HOSTILE = ("non-utf8", "huge-int", "deep-nesting")


def _form_flags(form: str) -> list[str]:
    return {"text": [], "json": ["--json"], "trace": ["--trace"], "json-trace": ["--json", "--trace"]}[form]


def _small_doc(rng: random.Random) -> list[dict]:
    return [_cheap_summand(rng) for _ in range(rng.randint(2, 6))]


def _eta_doc(rng: random.Random) -> list[dict]:
    """2 or 3 summands with b+ = 3 (mod 4) and odd SW: total class eta^2/eta^3."""
    out = []
    for _ in range(rng.randint(2, 3)):
        kind = rng.choice(("k3", "elliptic", "symplectic"))
        if kind == "elliptic":
            out.append({"type": "elliptic", "p_g": rng.choice((1, 3, 5)), "m": 1, "n": rng.choice((1, 2, 3))})
        elif kind == "symplectic":
            out.append({"type": "symplectic", "b_plus": rng.choice((3, 7, 11))})
        else:
            out.append({"type": "k3"})
    return out


def _elliptic_doc(rng: random.Random) -> list[dict]:
    out = []
    for _ in range(rng.randint(1, 3)):
        p_g, m, n = rng.choice(_CHEAP_ELLIPTIC)
        out.append({"type": "elliptic", "p_g": p_g | 1, "m": m, "n": n})
    return out


def _fingerprint_doc(rng: random.Random) -> list[dict]:
    out = _elliptic_doc(rng)
    if rng.random() < 0.5:
        out.append({"type": "kaehler", "b_plus": 3, "odd_basic": [rng.randint(-4, 4)]})
    if rng.random() < 0.5:
        out.append({"type": "s4"})
    return out


def _cli_call(rng: random.Random, kind: str, form: str, index: int) -> dict:
    """argv (with FILE placeholders), files to write and the expected exit."""
    flags = _form_flags(form)
    files: dict[str, object] = {}
    expect = 0
    if kind in ("basic-classes", "recognizable"):
        p_g, m, n = rng.choice(_CHEAP_ELLIPTIC + [(5, 3, 4), (7, 2, 5)])
        argv = [kind, "--pg", str(p_g), "--m", str(m), "--n", str(n)]
    elif kind == "basic-classes-1k":
        p_g, m, n = _triple_near(rng, 1000, rng.randint(1, 40))
        argv = ["basic-classes", "--pg", str(p_g), "--m", str(m), "--n", str(n)]
    elif kind in ("recognize", "recognize-bounds"):
        triple = rng.choice(_small_triples())
        argv = ["recognize", "--classes", ",".join(map(str, _odd_set(*triple)))]
        if kind == "recognize-bounds":
            argv += ["--bounds", ",".join(map(str, ORACLE_BOUNDS))]
    elif kind in ("invariant", "nonvanishing", "fingerprint"):
        doc = _fingerprint_doc(rng) if kind == "fingerprint" else _small_doc(rng)
        files["a"] = {"summands": doc}
        argv = [kind, "{a}"]
    elif kind == "blowup":
        files["a"] = {"summands": _small_doc(rng)}
        rank = rng.randint(1, 3)
        argv = ["blowup", "{a}", "--rank", str(rank)]
        if rng.random() < 0.5:
            argv += ["--c", ",".join(str(rng.choice((1, 3, -1))) for _ in range(rank))]
    elif kind == "split-check":
        files["a"] = {"summands": _eta_doc(rng)}
        modulus = rng.choice((2, 4))
        argv = ["split-check", "{a}", "--modulus", str(modulus), "--residue", str(rng.randrange(modulus))]
    elif kind == "distinguish":
        doc_a = _elliptic_doc(rng)
        doc_b = list(reversed(doc_a)) if rng.random() < 0.5 else _elliptic_doc(rng)
        files["a"], files["b"] = {"summands": doc_a}, {"summands": doc_b}
        argv = ["distinguish", "{a}", "{b}"]
    elif kind == "error-domain-pg0":
        argv, expect = ["basic-classes", "--pg", "0", "--m", "1", "--n", str(rng.randint(1, 9))], 1
    elif kind == "error-domain-unknown-key":
        doc = _small_doc(rng)
        doc[rng.randrange(len(doc))]["colour"] = "blue"
        files["a"] = {"summands": doc}
        argv, expect = [rng.choice(("invariant", "nonvanishing", "fingerprint")), "{a}"], 1
    elif kind == "error-domain-missing-file":
        argv, expect = ["invariant", f"{{dir}}/missing-{index}.json"], 1
    elif kind == "error-usage-missing-flag":
        argv, expect = ["basic-classes", "--pg", str(rng.randint(1, 9)), "--m", "1"], 2
    elif kind == "error-usage-unknown-command":
        argv, expect = [rng.choice(("classes", "invariants", "split"))], 2
    else:
        raise ValueError(kind)
    return {"slot": kind, "argv": argv + flags, "files": files, "expect": expect}


def _odd_set(p_g: int, m: int, n: int) -> list[int]:
    """Odd-SW multiples of E(p_g; m, n), by Lucas' theorem (harness copy)."""
    top = max_multiple(p_g, m, n)
    return sorted(
        top - 2 * (a * m * n + b * n + c * m)
        for a in range(p_g)
        if (a & (p_g - 1)) == a
        for b in range(m)
        for c in range(n)
    )


def gen_cli(seed: int, count: int):
    """Whole cycles of CLI_SLOTS, each cycle in its own seeded order."""
    rng = rng_for("cli", seed)
    for first in range(0, count, len(CLI_SLOTS)):
        cycle = rng.sample(CLI_SLOTS, len(CLI_SLOTS))
        for index, (kind, form) in enumerate(cycle[: count - first], first):
            yield _cli_call(rng, kind, form, index)


def gen_hostile() -> list[dict]:
    """The HOSTILE calls; fixed, they need no seed."""
    return [{"slot": kind, "argv": ["invariant", "{a}"], "raw": kind, "expect": 1} for kind in HOSTILE]


def hostile_bytes(kind: str) -> bytes:
    if kind == "non-utf8":
        return b'{"summands": [{"type": "k3", "name": "\xff\xfe"}]}'
    if kind == "huge-int":
        return b'{"summands": [{"type": "elliptic", "p_g": ' + b"7" * 5000 + b', "m": 1, "n": 1}]}'
    if kind == "deep-nesting":
        return b'{"summands": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    raise ValueError(kind)


GENERATORS = {"cli": gen_cli, "sums": gen_sums, "verdicts": gen_verdicts, "tables": gen_tables}


def generate(workload: str, seed: int, count: int):
    """The run's ops, lazily: each is made just before it is used."""
    return GENERATORS[workload](seed, count)


def n_epochs(workload: str, count: int) -> int:
    return -(-count // EPOCH_OPS.get(workload, count))


def epoch_size(workload: str, count: int, epoch: int) -> int:
    size = EPOCH_OPS.get(workload, count)
    return min(size, count - epoch * size)


def epoch_ops(workload: str, seed: int, count: int, epoch: int):
    """The ops of one epoch (the slice one fresh interpreter runs)."""
    start = epoch * EPOCH_OPS.get(workload, count)
    return islice(generate(workload, seed, count), start, start + epoch_size(workload, count, epoch))


def properties(workload: str, ops) -> dict[str, float]:
    """input.* metrics: properties of the inputs, not of the program."""
    summands: list[int] = []
    entries: list[int] = []
    repeats = count = 0
    seen: set = set()
    for op in ops:
        count += 1
        if workload == "sums":
            summands.append(len(op["summands"]))
            for block in op["summands"]:
                if block["type"] == "k3":
                    entries.append(1)
                elif block["type"] == "elliptic":
                    entries.append(block["p_g"] * block["m"] * block["n"])
            key = op["text"]
        elif workload == "verdicts":
            summands.append(len(op["triples"]))
            entries += [p * m * n for p, m, n in op["triples"]]
            key = op["text"]
        elif workload == "tables":
            p, m, n = op["triple"]
            entries.append(p * m * n)
            repeats += op["repeat"]
            continue
        else:
            docs = [v["summands"] for v in op["files"].values()]
            summands += [len(d) for d in docs]
            argv = op["argv"]
            if "--pg" in argv and "--n" in argv:
                p, m, n = (int(argv[argv.index(flag) + 1]) for flag in ("--pg", "--m", "--n"))
                entries.append(p * m * n)
            key = json.dumps([op["argv"], docs], sort_keys=True)
        repeats += key in seen
        seen.add(key)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return {
        "input.repeat_share": repeats / count,
        "input.summands_mean": mean(summands),
        "input.table_entries_mean": mean(entries),
    }
