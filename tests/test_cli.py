"""End-to-end command line tests: child processes of ``python -m swstem``, the
program ``swstem.__main__.run``, and ``cli.main`` called in process."""

import gc
import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from swstem import _listing, blocks, cli
from swstem.blocks import EllipticSurface
from swstem.errors import (
    MAX_INPUT_BITS,
    InvalidParameters,
    ManifoldSemanticError,
    ManifoldSyntaxError,
)
from swstem.invariants import connected_sum, odd_basic_fingerprint
from swstem.manifold_io import parse_manifold
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
# the program, whose table of subcommands the tests read
PROGRAM = importlib.import_module("swstem.__main__")
SAMPLES = ROOT / "samples"


def run_cli(*args, expect=0, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "swstem", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=timeout,
        env=child_env(),
    )
    assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc


def sample(name):
    return str(SAMPLES / name)


def test_basic_classes_k3():
    assert run_cli("basic-classes", "--pg", "1", "--m", "1", "--n", "1").stdout == "0: 1\n"


def test_basic_classes_e3():
    out = run_cli("basic-classes", "--pg", "3", "--m", "1", "--n", "1").stdout
    assert out == "-2: 1\n0: 2\n2: 1\n"


def test_basic_classes_json():
    out = run_cli("basic-classes", "--pg", "3", "--m", "1", "--n", "1", "--json").stdout
    assert json.loads(out) == {
        "entries": [[-2, 1], [0, 2], [2, 1]],
        "m": 1,
        "n": 1,
        "p_g": 3,
    }


def test_recognizable():
    out = run_cli("recognizable", "--pg", "1", "--m", "2", "--n", "3").stdout
    assert out == "-7,-3,-1,1,3,7\n"


def test_recognize_with_separate_value_token():
    # "-2,2" must survive argparse even as its own argv element
    out = run_cli("recognize", "--classes", "-2,2").stdout
    assert out == "p_g=3 m=1 n=1 (validated)\n"


def test_recognize_with_equals_form():
    out = run_cli("recognize", "--classes=-2,2").stdout
    assert out == "p_g=3 m=1 n=1 (validated)\n"


def test_recognize_rejects_a_huge_pair_by_its_count():
    # no triple has 2 multiples and the largest 10**23 + 1: refused, no set built
    k = 10**23 + 1
    proc = run_cli("recognize", f"--classes=-{k},{k}", expect=1, timeout=10)
    assert (proc.stdout, proc.stderr) == (
        "",
        "error: not the odd-SW set of an odd-genus elliptic surface: "
        f"no triple with m = 1 has 2 multiples and largest {k}\n",
    )


def test_recognize_oracle_bounds():
    out = run_cli("recognize", "--classes", "-2,2", "--bounds", "15,9").stdout
    assert out == "p_g=3 m=1 n=1\n"


def test_recognize_oracle_no_match():
    out = run_cli("recognize", "--classes", "-3,3", "--bounds", "9,5").stdout
    assert out.startswith("no match within bounds")


def test_invariant_two_k3s():
    out = run_cli("invariant", sample("k3x2.json")).stdout
    assert out == "stem degree 2, class η², nonvanishing: YES\n"


def test_invariant_trace():
    out = run_cli("invariant", sample("k3x2.json"), "--trace").stdout
    lines = out.splitlines()
    assert lines[0] == "stem degree 2, class η², nonvanishing: YES"
    assert len(lines) > 3
    assert all(line.startswith("  ") for line in lines[1:])


def test_nonvanishing_four_k3s():
    out = run_cli("nonvanishing", sample("k3x4.json")).stdout
    assert out == "nonvanishing: YES\n"


def test_nonvanishing_five_k3s(tmp_path):
    doc = {"summands": [{"type": "k3"}] * 5}
    path = tmp_path / "five.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = run_cli("nonvanishing", str(path)).stdout
    assert out == "nonvanishing: NO\n"


def test_blowup_invisible_unit_block():
    out = run_cli("blowup", sample("k3.json"), "--rank", "1").stdout
    assert out == (
        "stem degree 1, class η, nonvanishing: YES\n"
        "gamma power: 0\n"
        "sw preserved: YES\n"
    )


def test_blowup_deep_vector():
    out = run_cli("blowup", sample("k3.json"), "--rank", "1", "--c", "3").stdout
    assert out == (
        "stem degree -1, class 0, nonvanishing: UNKNOWN\n"
        "gamma power: 1\n"
        "sw preserved: UNKNOWN\n"
    )


def test_split_check_pair_impossible():
    out = run_cli(
        "split-check", sample("symplectic_pair.json"), "--modulus", "4", "--residue", "1"
    ).stdout
    assert out == "verdict: impossible\n"


def test_split_check_triple_forces_complement():
    out = run_cli(
        "split-check",
        sample("symplectic_triple.json"),
        "--modulus",
        "4",
        "--residue",
        "1",
    ).stdout
    assert out == "verdict: forces_negative_definite_complement\n"


def test_split_check_residue_three_unknown():
    out = run_cli(
        "split-check", sample("symplectic_pair.json"), "--modulus", "4", "--residue", "3"
    ).stdout
    assert out == "verdict: unknown\n"


def test_split_check_precondition_fails():
    proc = run_cli(
        "split-check", sample("k3.json"), "--modulus", "4", "--residue", "1", expect=1
    )
    assert proc.stderr.startswith("error:")


def test_distinguish():
    out = run_cli("distinguish", sample("k3.json"), sample("e311_k3.json")).stdout
    assert out == "verdict: different_summands\n"
    out = run_cli("distinguish", sample("k3.json"), sample("k3.json")).stdout
    assert out == "verdict: same_summands\n"
    out = run_cli(
        "distinguish", sample("k3.json"), sample("symplectic_pair.json")
    ).stdout
    assert out == "verdict: out_of_regime\n"


def test_distinguish_names_the_file_that_failed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"summands": [{"type": "k3"}], "x": 1}')
    good = sample("k3.json")
    for argv in ((good, str(bad)), (str(bad), good)):
        proc = run_cli("distinguish", *argv, expect=1)
        assert proc.stderr == f"error: {bad}: unknown top-level key 'x'\n"


def test_fingerprint():
    out = run_cli("fingerprint", sample("e311_k3.json")).stdout
    assert out == "-2,2\n0\n"


def test_fingerprint_undeclared_data_is_domain_error():
    proc = run_cli("fingerprint", sample("symplectic_pair.json"), expect=1)
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("invariant", "samples/k3x2.json", "--json"),
        ("invariant", "samples/k3x2.json", "--json", "--trace"),
        ("basic-classes", "--pg", "5", "--m", "2", "--n", "3", "--json"),
        ("recognize", "--classes", "-2,2", "--json"),
        ("split-check", "samples/symplectic_pair.json", "--modulus", "4", "--residue", "1", "--json"),
        ("fingerprint", "samples/e311_k3.json", "--json"),
        ("distinguish", "samples/k3.json", "samples/k3.json", "--json"),
        ("nonvanishing", "samples/k3x4.json", "--json", "--trace"),
        ("blowup", "samples/k3.json", "--rank", "1", "--json"),
        ("recognizable", "--pg", "3", "--m", "1", "--n", "1", "--json"),
    ],
)
def test_json_output_is_byte_stable(args):
    args = tuple(a if not a.startswith("samples/") else str(SAMPLES / a[8:]) for a in args)
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second
    json.loads(first)  # and it is valid JSON


def test_invariant_json_fields():
    out = run_cli("invariant", sample("k3x2.json"), "--json").stdout
    payload = json.loads(out)
    assert payload["stem_degree"] == 2
    assert payload["class"] == "η²"
    assert payload["equivariant_nonzero"] == "YES"
    assert payload["total_d"] == 4
    assert payload["total_b_plus"] == 6
    assert "trace" not in payload
    with_trace = json.loads(
        run_cli("invariant", sample("k3x2.json"), "--json", "--trace").stdout
    )
    assert with_trace["trace"]


def test_oracle_with_huge_bounds_returns_at_once():
    huge = "100000000000000000000001"
    proc = run_cli(
        "recognize", f"--classes=-{huge},{huge}", "--bounds", "100000000000000000000002,5",
        timeout=5,
    )
    assert proc.stdout.startswith("no match within bounds")


def test_import_loads_no_dataclasses_and_every_library_module():
    # the frozen records are built without dataclasses, whose import chain
    # (inspect, ast, dis, tokenize) cost about a third of every call's start
    listing = "import sys; print(' '.join(sys.modules))"
    bare = subprocess.run(
        [sys.executable, "-c", listing],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    # the program's names are forwarded on first read, each the program's own
    forwarded = (
        "first = swstem.cli.main; import swstem.__main__ as program; "
        "print(first is program.main is swstem.cli.main, "
        "all(getattr(swstem.cli, name) is getattr(program, name) for name in swstem.cli.__all__))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", f"import swstem.cli; {listing}; {forwarded}"],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    modules, read = loaded.stdout.splitlines()
    added = set(modules.split()) - set(bare.stdout.split())
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    library = (
        "_elliptic", "_listing", "blocks", "cli", "invariants", "lattice", "manifold_io",
        "recognize", "stems",
    )
    assert {f"swstem.{name}" for name in library} <= added
    # the library face compiles no program and no argparse
    assert not added & {"swstem.__main__", "argparse"}
    assert read == "True True"


#: the ``swstem.*`` modules every library call loads: the closed forms of E(p_g; m, n)
CLOSED = {"errors", "_record", "_elliptic"}
#: what a listing loads: the closed forms and the listing half, no block kind
LISTING = CLOSED | {"_listing"}
#: what a file command loads: the block kinds and the engine, no listing, no
#: split-check and no writer
ENGINE = CLOSED | {"blocks", "manifold_io", "invariants", "lattice", "stems"}
TRIPLE = ("--pg", "3", "--m", "2", "--n", "3")
SPLIT = ("split-check", sample("k3x2.json"), "--modulus", "2", "--residue", "1")

#: (argv, its exit code, the ``swstem.*`` modules ``python -m swstem argv`` loads)
LOADED = (
    (("basic-classes", *TRIPLE), 0, LISTING),
    (("basic-classes", *TRIPLE, "--json"), 0, LISTING | {"_json_text"}),
    (("recognizable", *TRIPLE), 0, LISTING),
    (("recognizable", *TRIPLE, "--json"), 0, LISTING | {"_json_text"}),
    (("recognize", "--classes=-7,-3,-1,1,3,7"), 0, LISTING | {"recognize"}),
    (
        ("recognize", "--classes=-7,-3,-1,1,3,7", "--bounds", "5,5", "--json"),
        0,
        LISTING | {"recognize", "_json_text"},
    ),
    (("invariant", sample("k3x2.json")), 0, ENGINE),
    (("invariant", sample("k3x2.json"), "--json"), 0, ENGINE | {"_json_text"}),
    (("nonvanishing", sample("k3x2.json"), "--json"), 0, ENGINE | {"_json_text"}),
    (("blowup", sample("k3.json"), "--rank", "1"), 0, ENGINE),
    (SPLIT, 0, ENGINE | {"_split"}),
    ((*SPLIT, "--json"), 0, ENGINE | {"_split", "_json_text"}),
    (("distinguish", sample("k3x2.json"), sample("k3x4.json")), 0, ENGINE),
    (("fingerprint", sample("e311_k3.json")), 0, ENGINE | {"_listing"}),
    (("invariant", "/no/such/file.json"), 1, ENGINE),
    (("bogus",), 2, {"errors"}),
    (("basic-classes", "--pg", "3"), 2, {"errors"}),
)


@pytest.mark.parametrize(
    "argv, code, modules", LOADED, ids=[" ".join(Path(t).name for t in a) for a, _, _ in LOADED]
)
def test_a_call_loads_only_the_modules_its_command_uses(argv, code, modules):
    # run_module with alter_sys runs the package as `python -m swstem` does:
    # its __main__ under that name, so it is no swstem module; swstem.cli is
    # never imported
    hook = (
        "import atexit, runpy, sys; "
        "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr)); "
        "runpy.run_module('swstem', run_name='__main__', alter_sys=True)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", hook, *argv], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == code
    loaded = proc.stderr.splitlines()[-1].split()
    assert "swstem" in loaded
    assert {name.removeprefix("swstem.") for name in loaded if name.startswith("swstem.")} == modules


def test_usage_errors_exit_two():
    run_cli("bogus", expect=2)
    run_cli("basic-classes", "--pg", "1", expect=2)  # missing --m/--n
    run_cli("recognize", "--classes", "one,two", expect=2)
    run_cli("recognize", "--classes", "-2,2", "--bounds", "15", expect=2)
    run_cli("invariant", expect=2)  # missing file


@pytest.mark.parametrize(
    "abbreviated, full",
    [
        (("recognize", "--class", "-2,2"), ("recognize", "--classes", "-2,2")),
        (("recognize", "--class=-2,2"), ("recognize", "--classes=-2,2")),
        (
            ("recognize", "--classes=-2,2", "--bound", "5,5"),
            ("recognize", "--classes=-2,2", "--bounds", "5,5"),
        ),
        (
            ("recognizable", "--p", "3", "--m", "1", "--n", "1"),
            ("recognizable", "--pg", "3", "--m", "1", "--n", "1"),
        ),
        (
            ("split-check", sample("k3x2.json"), "--mod", "2", "--residue", "1"),
            ("split-check", sample("k3x2.json"), "--modulus", "2", "--residue", "1"),
        ),
    ],
    ids=["class", "class=", "bound", "p", "mod"],
)
def test_a_flag_has_its_full_spelling_only(abbreviated, full):
    # argparse would read "--class" as "--classes" but leave its "-2,2" a flag
    stderr = run_cli(*abbreviated, expect=2).stderr
    assert stderr.startswith("usage: swstem") and "Traceback" not in stderr
    assert sum(": error: " in line for line in stderr.splitlines()) == 1
    assert run_cli(*full).stdout


@pytest.mark.parametrize(
    "argv, extras",
    [
        (("recognize", "--classes=-2,2", "--bound", "5,5"), "--bound 5,5"),
        (("basic-classes", "--pg", "3", "--m", "1", "--n", "1", "extra"), "extra"),
        (("fingerprint", sample("k3.json"), "--trace"), "--trace"),
    ],
    ids=["bound", "positional", "trace"],
)
def test_an_unknown_flag_is_reported_with_its_subcommands_usage(argv, extras):
    # the usage a missing argument of the same subcommand prints
    usage = run_cli(argv[0], expect=2).stderr.split(f"swstem {argv[0]}: error: ")[0]
    assert usage.startswith(f"usage: swstem {argv[0]} [-h] ")
    stderr = run_cli(*argv, expect=2).stderr
    assert stderr == f"{usage}swstem {argv[0]}: error: unrecognized arguments: {extras}\n"


def _parsed(parser, argv, capsys):
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    return (stop.value.code, *capsys.readouterr())


@pytest.mark.parametrize("name", sorted(PROGRAM._COMMANDS))
def test_a_parser_of_one_subcommand_reads_as_the_full_one(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    alone, full = cli.build_parser(name), cli.build_parser()
    # its help, and the usage error of a missing argument (every subcommand takes one)
    for argv in ([name, "-h"], [name]):
        assert _parsed(alone, argv, capsys) == _parsed(full, argv, capsys)
    assert _parsed(full, [name], capsys)[0] == 2
    other = min(PROGRAM._COMMANDS - {name})
    assert "invalid choice" in _parsed(alone, [other], capsys)[2]


def test_domain_errors_exit_one():
    run_cli("basic-classes", "--pg", "0", "--m", "1", "--n", "1", expect=1)
    run_cli("recognize", "--classes", "1,2", expect=1)
    run_cli("invariant", "/no/such/file.json", expect=1)
    run_cli("split-check", sample("k3.json"), "--modulus", "3", "--residue", "1", expect=1)


def unbuilt(*triple):
    """A stand-in for the listing builders: a refused listing never reaches it."""
    raise AssertionError(f"built a listing of {triple}")


@pytest.mark.parametrize(
    "argv",
    [
        ("basic-classes", "--pg", "1", "--m", "1", "--n", "2000001"),  # one entry over
        ("basic-classes", "--pg", str(10**40), "--m", "2", "--n", "3"),
        ("recognizable", "--pg", str(2**20), "--m", "2", "--n", "3"),  # 2^20 * 6 odd
        ("recognizable", "--pg", str(2**200), "--m", "1", "--n", "1"),
    ],
    ids=["table-just-over", "table-huge", "odd-set-over", "odd-set-huge"],
)
def test_listings_over_the_limit_are_refused_unbuilt(argv, monkeypatch, capsys):
    monkeypatch.setattr(_listing, "_table", unbuilt)
    monkeypatch.setattr(_listing, "_recognizable", unbuilt)
    assert cli.main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{err.splitlines()[0]}\n"
    assert err.startswith("error:") and f"more than {blocks.MAX_LISTING} entries" in err


#: the largest genus whose table at m = n = 1 fits the budget: 11,306 keys of
#: 14 bits and values below 2^11,305, 127,983,920 bits in all
_BUDGET_EDGE = 11_306


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_table_one_past_the_budget_is_refused_unbuilt(json_flag, monkeypatch, capsys):
    monkeypatch.setattr(_listing, "_table", unbuilt)
    argv = ["basic-classes", "--pg", str(_BUDGET_EDGE + 1), "--m", "1", "--n", "1", *json_flag]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: the table would list more than {blocks.MAX_LISTING_BITS} bits of keys and values\n"
    )


def test_a_table_at_the_budget_is_built(monkeypatch, capsys):
    built = []

    def stub(*triple):  # a table of the right length, one entry repeated
        built.append(triple)
        return blocks.BasicClassTable(*triple, (0,) * _BUDGET_EDGE, (1,) * _BUDGET_EDGE)

    monkeypatch.setattr(_listing, "_table", stub)
    argv = ["basic-classes", "--pg", str(_BUDGET_EDGE), "--m", "1", "--n", "1"]
    assert cli.main(argv) == 0
    assert built == [(_BUDGET_EDGE, 1, 1)]
    assert capsys.readouterr().out == "0: 1\n" * _BUDGET_EDGE


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize(
    "summands",
    [
        [{"type": "elliptic", "p_g": 2**30, "m": 1, "n": 1}],  # 2^30 odd classes
        [{"type": "elliptic", "p_g": 1, "m": 1, "n": 1_000_001}] * 2,  # together over
    ],
    ids=["one-huge", "two-halves"],
)
def test_fingerprints_over_the_limit_are_refused_unbuilt(
    tmp_path, summands, json_flag, monkeypatch, capsys
):
    monkeypatch.setattr(_listing, "_recognizable", unbuilt)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"summands": summands}))
    start = time.perf_counter()
    assert cli.main(["fingerprint", str(path), *json_flag]) == 1
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the odd-SW sets would list more than {blocks.MAX_LISTING} entries\n"


#: E(2^6999 + 1; 99, 100) has 19,800 odd multiples, far under MAX_LISTING,
#: but each about 7,013 bits wide: about 139 million bits of keys
_WIDE_KEYS = (2**6999 + 1, 99, 100)


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_an_odd_set_of_wide_keys_is_refused_unbuilt(json_flag, monkeypatch, capsys):
    monkeypatch.setattr(_listing, "_recognizable", unbuilt)
    p_g, m, n = _WIDE_KEYS
    argv = ["recognizable", "--pg", str(p_g), "--m", str(m), "--n", str(n), *json_flag]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: the odd-SW set would list more than {blocks.MAX_LISTING_BITS} bits of keys\n"
    )


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_a_fingerprint_of_wide_keys_is_refused_unbuilt(tmp_path, json_flag, monkeypatch, capsys):
    monkeypatch.setattr(_listing, "_recognizable", unbuilt)
    p_g, m, n = _WIDE_KEYS
    path = tmp_path / "wide-keys.json"
    path.write_text(json.dumps({"summands": [{"type": "elliptic", "p_g": p_g, "m": m, "n": n}]}))
    assert cli.main(["fingerprint", str(path), *json_flag]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: the odd-SW sets would list more than {blocks.MAX_LISTING_BITS} bits of keys\n"
    )


def test_the_entry_bound_with_64_bit_keys_is_admitted():
    _listing._admit(blocks.MAX_LISTING, 64 * blocks.MAX_LISTING, "the listing")
    with pytest.raises(InvalidParameters):
        _listing._admit(blocks.MAX_LISTING, 64 * blocks.MAX_LISTING + 1, "the listing")


def _fingerprint(*triples):
    return odd_basic_fingerprint(connected_sum(*(EllipticSurface(*t) for t in triples)))


#: listings past the budget: (command, its triples, the library call it makes)
_REFUSED_LISTINGS = {
    "table-wide-values": ("basic-classes", [(14_001, 11, 12)], blocks.basic_class_table),
    "table-long-row": ("basic-classes", [(20_001, 1, 1)], blocks.basic_class_table),
    "table-entries": ("basic-classes", [(1, 1, 2_000_001)], blocks.basic_class_table),
    "table-huge": ("basic-classes", [(10**40, 2, 3)], blocks.basic_class_table),
    "odd-set-entries": ("recognizable", [(2**20, 2, 3)], blocks.recognizable_set),
    "odd-set-huge": ("recognizable", [(2**200, 1, 1)], blocks.recognizable_set),
    "odd-set-bits": ("recognizable", [_WIDE_KEYS], blocks.recognizable_set),
    "fingerprint-one-huge": ("fingerprint", [(2**30, 1, 1)], _fingerprint),
    "fingerprint-two-halves": ("fingerprint", [(1, 1, 1_000_001)] * 2, _fingerprint),
    "fingerprint-wide-keys": ("fingerprint", [_WIDE_KEYS], _fingerprint),
}


@pytest.mark.parametrize("case", _REFUSED_LISTINGS)
def test_the_library_refuses_what_the_command_line_refuses(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_listing, "_table", unbuilt)
    monkeypatch.setattr(_listing, "_recognizable", unbuilt)
    command, triples, call = _REFUSED_LISTINGS[case]
    if command == "fingerprint":
        path = tmp_path / "sum.json"
        summands = [{"type": "elliptic", "p_g": p, "m": m, "n": n} for p, m, n in triples]
        path.write_text(json.dumps({"summands": summands}))
        argv, args = [command, str(path)], triples
    else:
        args = triples[0]
        argv = [command, *(f"--{flag}={value}" for flag, value in zip(("pg", "m", "n"), args))]
    start = time.perf_counter()
    with pytest.raises(InvalidParameters) as refused:
        call(*args)
    assert cli.main(argv) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {refused.value}\n")


def test_a_wide_odd_set_of_narrow_keys_is_admitted(capsys):
    # 2^3 * 89 * 90 = 64,080 odd multiples of at most 17 bits
    assert cli.main(["recognizable", "--pg", "15", "--m", "89", "--n", "90"]) == 0
    classes = capsys.readouterr().out.rstrip("\n").split(",")
    assert len(classes) == 64_080
    assert classes[-1] == str(14 * 89 * 90 + 88 * 90 + 89 * 89)


def test_a_large_json_listing_is_pinned_byte_for_byte(capsys):
    # 120,150 entries; the digest was taken before tables were stored as columns
    assert cli.main(["basic-classes", "--pg", "15", "--m", "89", "--n", "90", "--json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert len(out) == 4_386_562
    assert hashlib.sha256(out).hexdigest() == (
        "c52d89256a894553efee2ab9a7d28f618090e8cefb82dfdcf1def1cb410f349c"
    )


def test_fingerprint_of_neutral_summands_prints_nothing(tmp_path, capsys):
    path = tmp_path / "spheres.json"
    path.write_text(json.dumps({"summands": [{"type": "s4"}, {"type": "s4"}]}))
    assert cli.main(["fingerprint", str(path)]) == 0
    assert capsys.readouterr() == ("", "")


def _widest_files(tmp_path, b_plus):
    """Two files with four blocks of the given b+; one also holds a rank-3
    negative definite block with all three coordinates b+."""
    negdef = {"type": "negative_definite", "rank": 3, "c": [b_plus] * 3}
    paths = []
    for name, extra in (("ac", []), ("mixed", [negdef])):
        path = tmp_path / f"{name}.json"
        summands = [{"type": "symplectic", "b_plus": b_plus}] * 4 + extra
        path.write_text(json.dumps({"summands": summands}))
        paths.append(str(path))
    return paths


def test_the_widest_inputs_print_every_total(tmp_path, capsys):
    widest = 2**MAX_INPUT_BITS - 1  # odd, = 3 (mod 4): the criteria hold
    for path in _widest_files(tmp_path, widest):
        for argv in (
            ["invariant", path, "--json", "--trace"],
            ["nonvanishing", path, "--trace"],
            ["split-check", path, "--modulus", "4", "--residue", "3", "--trace"],
            ["blowup", path, "--rank", "2", "--c", f"{widest},{widest}", "--json", "--trace"],
        ):
            # the class is 0 (eta^4, or in a negative stem), which split-check refuses
            refused = argv[0] == "split-check"
            assert cli.main(argv) == refused, argv
            out, err = capsys.readouterr()
            assert bool(out) != refused, argv
            assert err == "" if not refused else err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["blowup", sample("k3.json"), "--rank", "1", "--c", str(2**MAX_INPUT_BITS + 1)],
            "coordinate has more than 7000 bits",
        ),
        (
            ["recognizable", "--pg", str(2**MAX_INPUT_BITS + 1), "--m", "2", "--n", "3"],
            "p_g has more than 7000 bits",
        ),
        (
            ["invariant", "{wide}", "--json"],
            "summand 0: b_plus has more than 7000 bits",
        ),
    ],
    ids=["coordinate", "genus", "b_plus"],
)
def test_integers_past_the_input_width_are_refused(argv, message, tmp_path, capsys):
    wide = tmp_path / "wide.json"
    summand = {"type": "symplectic", "b_plus": 2**MAX_INPUT_BITS + 1}
    wide.write_text(json.dumps({"summands": [summand]}))
    assert cli.main([arg.format(wide=wide) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_path_with_a_nul_character_is_an_os_error(capsys):
    assert cli.main(["invariant", "a\x00b"]) == 1
    assert capsys.readouterr() == ("", "error: 'a\\x00b': embedded null byte\n")


def test_negative_oracle_bounds_are_a_domain_error(capsys):
    # --bounds takes a value starting with "-" as --classes and --c do
    assert cli.main(["recognize", "--classes", "-2,2", "--bounds", "-1,5"]) == 1
    assert capsys.readouterr() == ("", "error: oracle bounds must be positive\n")


def test_listing_limit_admits_a_huge_genus_with_a_small_odd_set():
    out = run_cli("recognizable", "--pg", str(2**80 + 1), "--m", "1", "--n", "1").stdout
    assert out == f"{-(2**80)},{2**80}\n"


@pytest.mark.parametrize(
    "raw",
    [
        b'{"summands": [{"type": "k3", "name": "\xff\xfe"}]}',  # not UTF-8
        b'{"summands": [{"type": "elliptic", "p_g": ' + b"7" * 5000 + b', "m": 1, "n": 1}]}',
        b'{"summands": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # deep nesting
    ],
    ids=["non-utf8", "huge-int", "deep-nesting"],
)
def test_hostile_files_end_in_one_error_line(tmp_path, raw):
    path = tmp_path / "hostile.json"
    path.write_bytes(raw)
    proc = run_cli("invariant", str(path), expect=1)
    assert "Traceback" not in proc.stderr
    assert "set_int_max_str_digits" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert sum(line.startswith("error:") for line in proc.stderr.splitlines()) == 1


def _tour() -> list[tuple[list[str], str]]:
    """The README's command line tour: each ``$ swstem`` line's arguments and
    the lines shown under it, up to the next blank line."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    calls = []
    for entry in block.strip().split("\n\n"):
        command, *shown = entry.split("\n")
        argv = shlex.split(command.removeprefix("$ "), comments=True)
        assert argv[0] == "swstem", command
        calls.append((argv[1:], "".join(line + "\n" for line in shown)))
    return calls


TOUR = _tour()


def test_the_readme_tour_shows_every_subcommand():
    assert {argv[0] for argv, _ in TOUR} == PROGRAM._COMMANDS


@pytest.mark.parametrize("argv, shown", TOUR, ids=[f"{i}-{a[0]}" for i, (a, _) in enumerate(TOUR)])
def test_the_readme_tour_prints_what_it_shows(argv, shown):
    proc = subprocess.run(
        [sys.executable, "-m", "swstem", *argv],
        capture_output=True,
        text=True,
        encoding="utf-8",
        cwd=ROOT,  # the tour's sample paths are relative to the checkout
        env=child_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, shown, "")


#: a document holding a value where an int, a string or a list of ints
#: belongs; the refusal of an object there, "{}" standing for the object
#: shown as a dict; and whether a list nested just below the JSON decoder's
#: limit is named by its type, which a value echoed from a check deeper in
#: the stack than the decoder's own depth is
NESTED = {
    "type": (
        '{"summands": [{"type": %s}]}',
        "summand 0: unknown summand type {}; expected one of: "
        "elliptic, k3, kaehler, negative_definite, s4, symplectic",
        False,
    ),
    "name": ('{"name": %s, "summands": [{"type": "k3"}]}', "'name' must be a string", False),
    "b_plus": (
        '{"summands": [{"type": "symplectic", "b_plus": %s}]}',
        "summand 0: b_plus must be an integer, got {}",
        True,
    ),
    "rank": (
        '{"summands": [{"type": "negative_definite", "rank": %s}]}',
        "summand 0: rank must be an integer, got {}",
        True,
    ),
    "p_g": (
        '{"summands": [{"type": "elliptic", "p_g": %s, "m": 1, "n": 1}]}',
        "summand 0: p_g must be an integer, got {}",
        True,
    ),
    "m": (
        '{"summands": [{"type": "elliptic", "p_g": 1, "m": %s, "n": 1}]}',
        "summand 0: m must be an integer, got {}",
        True,
    ),
    "odd_basic": (
        '{"summands": [{"type": "kaehler", "b_plus": 3, "odd_basic": %s}]}',
        "summand 0: odd_basic must be a list",
        True,
    ),
    "odd_basic-item": (
        '{"summands": [{"type": "kaehler", "b_plus": 3, "odd_basic": [1, %s]}]}',
        "summand 0: odd_basic entry must be an integer, got {}",
        True,
    ),
    "c": (
        '{"summands": [{"type": "negative_definite", "rank": 1, "c": %s}]}',
        "summand 0: c must be a list of integers",
        True,
    ),
}


@pytest.mark.parametrize("document, refusal, named", NESTED.values(), ids=list(NESTED))
def test_a_deeply_nested_value_ends_in_one_error_line(tmp_path, capsys, document, refusal, named):
    # lists and objects, at every depth to past the JSON decoder's limit,
    # which moves with the Python version: a message echoes the value (an
    # object as a dict), or names it by its type where its repr would
    # overflow the stack, just below that limit
    path = tmp_path / "nested.json"
    for opener, core, closer in (("[", "true", "]"), ('{"a": ', "1", "}")):
        texts = [
            document % (opener * depth + core + closer * depth)
            for depth in range(1, sys.getrecursionlimit() + 50)
        ]
        shown, deepest = [], 0
        for depth, text in enumerate(texts, 1):
            with pytest.raises((ManifoldSyntaxError, ManifoldSemanticError)) as exc:
                parse_manifold(text)
            if str(exc.value).endswith("nested too deeply to show"):
                shown.append(depth)
            if type(exc.value) is ManifoldSemanticError:
                assert deepest == depth - 1, depth  # refused as JSON only past the limit
                deepest = depth
            if opener != "[" and depth <= 3:
                assert str(exc.value) == refusal.format("{'a': " * depth + "1" + "}" * depth)
        assert shown or not (named and opener == "["), opener
        # the command line, from below that window to past the decoder's limit
        for depth in range((shown or [deepest])[0] - 50, len(texts) + 1):
            path.write_text(texts[depth - 1])
            assert cli.main(["invariant", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, depth


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_file_with_m_greater_than_n_is_refused(tmp_path, flags):
    path = tmp_path / "swapped.json"
    path.write_text('{"summands": [{"type": "elliptic", "p_g": 3, "m": 3, "n": 2}]}')
    proc = run_cli("invariant", str(path), *flags, expect=1)
    assert proc.stdout == ""
    assert proc.stderr == "error: summand 0: multiplicities must satisfy m <= n, got (3, 2)\n"


def test_a_file_with_a_repeated_key_is_refused(tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text(
        '{"summands": [{"type": "k3"}, {"type": "elliptic", "p_g": 3, "m": 1, "n": 1, "p_g": 2}]}'
    )
    proc = run_cli("invariant", str(path), expect=1)
    assert proc.stdout == ""
    assert proc.stderr == "error: summand 1: repeated key 'p_g'\n"


def test_broken_pipe_ends_in_one_error_line():
    # a 543k-line table overflows the pipe, which closes after 10 bytes; the
    # child runs with stdout buffered and unbuffered, whatever the environment
    # running the tests sets
    argv = ["basic-classes", "--pg", "201", "--m", "51", "--n", "53"]
    buffered = child_env()
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        proc = subprocess.Popen(
            [sys.executable, "-m", "swstem", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.read(10)
        proc.stdout.close()
        stderr = proc.stderr.read().decode("utf-8")
        proc.stderr.close()
        stdout = "unbuffered" if "PYTHONUNBUFFERED" in env else "buffered"
        assert proc.wait() == 1, stdout
        assert "Traceback" not in stderr, stdout
        assert stderr.startswith("error:"), stdout
        assert sum(line.startswith("error:") for line in stderr.splitlines()) == 1, stdout


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_closed_pipe_ends_in_one_error_line_with_a_buffered_stdout(flags):
    # the answer fits stdout's buffer, so unflushed it would fail in the
    # interpreter's exit flush (exit 120, no error line); the child's stdout
    # is buffered whatever the environment running the tests sets
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "swstem", "invariant", sample("k3x2.json"), *flags],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_closed_stdout_takes_the_answer_to_nowhere(flags):
    # fd 1 closed before the child starts: Python gives it no sys.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "swstem", "invariant", sample("k3x2.json"), *flags],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(1),
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def _scripts_target():
    """The console script's module and function, from pyproject.toml (3.10 has
    no tomllib)."""
    text = (ROOT / "pyproject.toml").read_text()
    return re.search(r'^swstem = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()


#: one call each that exits 0, 1 and 2
ENTRY_CALLS = (
    ("invariant", sample("k3x2.json")),
    ("invariant", "/no/such/file.json"),
    ("invariant",),
)


@pytest.mark.parametrize("argv", ENTRY_CALLS, ids=["ok", "domain-error", "usage-error"])
def test_every_way_of_running_swstem_answers_alike(argv):
    module, function = _scripts_target()
    assert (module, function) == ("swstem.__main__", "run")
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    answers = [
        subprocess.run(
            [sys.executable, *entry, *argv], capture_output=True, text=True, env=child_env()
        )
        for entry in (["-m", "swstem"], ["-m", "swstem.cli"], ["-c", script])
    ]
    assert len({(p.stdout, p.stderr, p.returncode) for p in answers}) == 1
    assert answers[0].returncode == ENTRY_CALLS.index(argv)


def test_the_program_leaves_its_heap_frozen_at_exit():
    # run_module with alter_sys runs the package as `python -m swstem` does
    hook = (
        "import atexit, gc, runpy, sys; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr)); "
        "runpy.run_module('swstem', run_name='__main__', alter_sys=True)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", hook, *ENTRY_CALLS[0]],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "True\n")


@pytest.mark.parametrize("argv", ENTRY_CALLS, ids=["ok", "domain-error", "usage-error"])
def test_main_leaves_the_callers_collector_alone(argv, capsys):
    frozen = gc.get_freeze_count()
    try:
        cli.main(list(argv))
    except SystemExit:
        pass
    assert gc.get_freeze_count() == frozen
