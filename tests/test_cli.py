"""End-to-end command line tests driving the installed entry point."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from swstem import cli
from swstem.blocks import MAX_SHOWN_BITS, basic_class_table

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run_cli(*args, expect=0, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "swstem", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=timeout,
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
    # the candidate (10**23 + 2, 1, 1) is refused without building its set
    k = 10**23 + 1
    out = run_cli("recognize", f"--classes=-{k},{k}", timeout=10).stdout
    assert f"p_g={k + 1} m=1 n=1 (unvalidated)\n" in out


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
        [sys.executable, "-c", listing], capture_output=True, text=True, check=True
    )
    loaded = subprocess.run(
        [sys.executable, "-c", "import swstem.cli; " + listing],
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(loaded.stdout.split()) - set(bare.stdout.split())
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    library = ("blocks", "cli", "invariants", "lattice", "manifold_io", "recognize", "stems")
    assert {f"swstem.{name}" for name in library} <= added


def test_usage_errors_exit_two():
    run_cli("bogus", expect=2)
    run_cli("basic-classes", "--pg", "1", expect=2)  # missing --m/--n
    run_cli("recognize", "--classes", "one,two", expect=2)
    run_cli("recognize", "--classes", "-2,2", "--bounds", "15", expect=2)
    run_cli("invariant", expect=2)  # missing file


def test_domain_errors_exit_one():
    run_cli("basic-classes", "--pg", "0", "--m", "1", "--n", "1", expect=1)
    run_cli("recognize", "--classes", "1,2", expect=1)
    run_cli("invariant", "/no/such/file.json", expect=1)
    run_cli("split-check", sample("k3.json"), "--modulus", "3", "--residue", "1", expect=1)


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
    def unbuilt(*triple):
        raise AssertionError(f"built a listing of {triple}")

    monkeypatch.setattr(cli, "basic_class_table", unbuilt)
    monkeypatch.setattr(cli, "recognizable_set", unbuilt)
    assert cli.main(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{err.splitlines()[0]}\n"
    assert err.startswith("error:") and f"more than {cli.MAX_LISTING} entries" in err


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_tables_whose_values_str_refuses_are_refused_unbuilt(json_flag, monkeypatch, capsys):
    def unbuilt(*triple):
        raise AssertionError(f"built a listing of {triple}")

    monkeypatch.setattr(cli, "basic_class_table", unbuilt)
    argv = ["basic-classes", "--pg", str(MAX_SHOWN_BITS + 2), "--m", "1", "--n", "1", *json_flag]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{err.splitlines()[0]}\n"
    assert err.startswith("error:") and f"more than {MAX_SHOWN_BITS} bits" in err


def test_tables_at_the_value_bound_are_built(monkeypatch, capsys):
    built = []

    def stub(*triple):
        built.append(triple)
        return basic_class_table(1, 1, 1)

    monkeypatch.setattr(cli, "basic_class_table", stub)
    argv = ["basic-classes", "--pg", str(MAX_SHOWN_BITS + 1), "--m", "1", "--n", "1"]
    assert cli.main(argv) == 0
    assert built == [(MAX_SHOWN_BITS + 1, 1, 1)]
    assert capsys.readouterr().out == "0: 1\n"


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


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_a_file_with_m_greater_than_n_is_refused(tmp_path, flags):
    path = tmp_path / "swapped.json"
    path.write_text('{"summands": [{"type": "elliptic", "p_g": 3, "m": 3, "n": 2}]}')
    proc = run_cli("invariant", str(path), *flags, expect=1)
    assert proc.stdout == ""
    assert proc.stderr == "error: summand 0: multiplicities must satisfy m <= n, got (3, 2)\n"


def test_broken_pipe_ends_in_one_error_line():
    # a 543k-line table overflows the pipe, which closes after 10 bytes
    argv = ["basic-classes", "--pg", "201", "--m", "51", "--n", "53"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "swstem", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.read(10)
    proc.stdout.close()
    stderr = proc.stderr.read().decode("utf-8")
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in stderr
    assert stderr.startswith("error:")
    assert sum(line.startswith("error:") for line in stderr.splitlines()) == 1
