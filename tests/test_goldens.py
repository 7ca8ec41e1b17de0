"""Byte-exact CLI goldens over every sample file and a fixed list of flags.

Each case runs ``swstem.cli.main`` in this process and compares stdout with
``goldens/<sample>/<command>.<form>.out``.  A case that exits 1 also pins its
stderr in a ``.err`` file next to it.  The subcommands that read flags
rather than a sample, the errors of each command family and the usage errors
are pinned under ``goldens/_flags/``; a usage error (exit 2) pins only its
``usage:`` line and any ``invalid choice`` line, which fix the order of the
flags and of the subcommands.  Each sample's canonical text, as
``serialize_manifold`` writes it, is pinned in
``goldens/<sample>/serialized.json``.  All cases run with ``COLUMNS=200``
so that argparse does not wrap.  To rewrite the goldens after an intended
output change, run ``PYTHONPATH=src python tests/test_goldens.py`` and
review the diff.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from swstem.cli import main
from swstem.manifold_io import load_manifold, serialize_manifold

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDENS = Path(__file__).resolve().parent / "goldens"
FLAGS = GOLDENS / "_flags"
COLUMNS = "200"

#: command name -> extra arguments
COMMANDS = {
    "invariant": (),
    "nonvanishing": (),
    "blowup": ("--rank", "1"),
    "fingerprint": (),
    "split-check": ("--modulus", "4", "--residue", "1"),
}
FORMS = {
    "text": (),
    "json": ("--json",),
    "trace": ("--trace",),
    "json-trace": ("--json", "--trace"),
}
#: fingerprint has no rule trace
UNTRACED = {"fingerprint"}


def sample(name):
    return str(SAMPLES / f"{name}.json")


MISSING = "/no/such/file.json"

#: golden name -> argv, each run as text and under --json
FLAG_CASES = {
    "basic-classes-e3": ("basic-classes", "--pg", "3", "--m", "1", "--n", "1"),
    "basic-classes-e1_2_3": ("basic-classes", "--pg", "1", "--m", "2", "--n", "3"),
    "recognizable": ("recognizable", "--pg", "1", "--m", "2", "--n", "3"),
    "recognize-validated": ("recognize", "--classes", "-2,2"),
    "recognize-note": ("recognize", "--classes", "-6,6"),
    "recognize-bounds-match": ("recognize", "--classes", "-2,2", "--bounds", "15,9"),
    "recognize-bounds-none": ("recognize", "--classes", "-3,3", "--bounds", "9,5"),
    # the coprime branch (the top gap coprime to the top): the odd-SW set of
    # E(3; 2, 3), E(2; 2, 3)'s set, and a pattern whose derived m exceeds n
    "recognize-coprime-e3_2_3": (
        "recognize", "--classes", "-19,-15,-13,-11,-9,-5,5,9,11,13,15,19"
    ),
    "recognize-coprime-even-genus": (
        "recognize", "--classes", "-13,-9,-7,-5,-3,-1,1,3,5,7,9,13"
    ),
    "recognize-coprime-unordered": ("recognize", "--classes", "-7,-1,1,7"),
    "distinguish-same": ("distinguish", sample("k3"), sample("k3")),
    "distinguish-different": ("distinguish", sample("k3"), sample("e311_k3")),
    "distinguish-out": ("distinguish", sample("k3"), sample("symplectic_pair")),
    # d = -1 blowups: past the dimension bound on K3, within it on four K3s
    "blowup-k3-c3": ("blowup", sample("k3"), "--rank", "1", "--c", "3", "--trace"),
    "blowup-k3x4-c3": ("blowup", sample("k3x4"), "--rank", "1", "--c", "3", "--trace"),
    # on eta^2: b+(X1) = 2 (mod 4) refutes a degree-0 X1 by R4 and forces the
    # complement; b+(X1) = 3 (mod 4) leaves (1, 1) to R3; b+(X1) even leaves
    # (0, 2) to R4.  With the samples' queries they reach every split rule.
    "split-check-k3x2-r4": (
        "split-check", sample("k3x2"), "--modulus", "4", "--residue", "2", "--trace"
    ),
    "split-check-k3x2-r3": (
        "split-check", sample("k3x2"), "--modulus", "4", "--residue", "3", "--trace"
    ),
    "split-check-k3x2-even": (
        "split-check", sample("k3x2"), "--modulus", "2", "--residue", "0", "--trace"
    ),
    # domain errors: one error line on stderr, exit 1
    "error-basic-classes": ("basic-classes", "--pg", "0", "--m", "1", "--n", "1"),
    "error-recognizable": ("recognizable", "--pg", "1", "--m", "2", "--n", "4"),
    "error-recognize": ("recognize", "--classes", "1,2"),
    "error-recognize-bounds": ("recognize", "--classes", "-2,2", "--bounds", "0,1"),
    "error-invariant": ("invariant", MISSING),
    "error-blowup": ("blowup", sample("k3"), "--rank", "1", "--c", "2"),
    "error-split-check": ("split-check", sample("k3"), "--modulus", "3", "--residue", "1"),
    "error-fingerprint": ("fingerprint", sample("symplectic_pair")),
    "error-distinguish": ("distinguish", sample("k3"), MISSING),
}
#: golden name -> argv that argparse rejects with exit 2
USAGE_CASES = {
    "usage-unknown-command": ("bogus",),
    "usage-basic-classes": ("basic-classes", "--pg", "1"),
    "usage-recognizable": ("recognizable",),
    "usage-recognize": ("recognize",),
    "usage-invariant": ("invariant",),
    "usage-nonvanishing": ("nonvanishing",),
    "usage-blowup": ("blowup", sample("k3")),
    "usage-split-check": ("split-check", sample("k3")),
    "usage-distinguish": ("distinguish", sample("k3")),
    "usage-fingerprint": ("fingerprint",),
}


def cases():
    """(test id, golden directory, file stem, argv) for every exit-0/1 case."""
    for path in sorted(SAMPLES.glob("*.json")):
        for command, extra in COMMANDS.items():
            for form, flags in FORMS.items():
                if command in UNTRACED and "--trace" in flags:
                    continue
                argv = (command, str(path), *extra, *flags)
                ident = f"{path.stem}-{command}-{form}"
                yield ident, GOLDENS / path.stem, f"{command}.{form}", argv
    for name, argv in FLAG_CASES.items():
        for form in ("text", "json"):
            yield f"{name}-{form}", FLAGS, f"{name}.{form}", (*argv, *FORMS[form])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def usage_lines(err):
    """The first ``usage:`` line and any ``invalid choice`` line."""
    lines = err.splitlines(keepends=True)
    first = [next(line for line in lines if line.startswith("usage:"))]
    return "".join(first + [line for line in lines if "invalid choice" in line])


CASES = list(cases())


@pytest.fixture(autouse=True)
def wide_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


@pytest.mark.parametrize(
    "base, stem, argv", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_cli_golden(base, stem, argv):
    code, out, err = run(argv)
    assert out == (base / f"{stem}.out").read_text(encoding="utf-8")
    err_file = base / f"{stem}.err"
    if err_file.exists():
        assert code == 1
        assert err == err_file.read_text(encoding="utf-8")
    else:
        assert code == 0, err


@pytest.mark.parametrize("name, argv", USAGE_CASES.items(), ids=list(USAGE_CASES))
def test_usage_golden(name, argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert usage_lines(err) == (FLAGS / f"{name}.err").read_text(encoding="utf-8")


#: a fragment of each line ``split_verdict`` can emit: a trace line or a refusal
SPLIT_RULES = (
    "is nonzero in stem",
    "so both are nonzero (R2)",
    "since negative stems vanish (R1)",
    "contradicted, j1 has the parity of b+(X1)",
    "(R3), incompatible with b+ = 1 (mod 4)",
    "(R4), incompatible with b+ =",
    "survives; X1 must be almost complex with b+ = 3 (mod 4), odd SW (R3)",
    "survives; forces b+(X1) = 0 (R4)",
    "X2 must be almost complex with b+ = 3 (mod 4), odd SW (R3)",
    "forces b+(X2) = 0 (R4): the complement is negative definite",
    "every decomposition is contradicted",
    "every surviving decomposition pins b+(X2) = 0",
    "some decomposition survives without constraint",
    "splitting analysis needs a total class eta^2 or eta^3",
    "the four-summand equivariant nonvanishing does not feed this obstruction",
)


def test_split_goldens_reach_every_rule():
    paths = [*GOLDENS.glob("*/split-check.*"), *FLAGS.glob("split-check-*")]
    text = "".join(path.read_text(encoding="utf-8") for path in paths)
    assert [rule for rule in SPLIT_RULES if rule not in text] == []


SAMPLE_STEMS = [path.stem for path in sorted(SAMPLES.glob("*.json"))]


@pytest.mark.parametrize("stem", SAMPLE_STEMS)
def test_sample_serializes_canonically(stem):
    doc = load_manifold(sample(stem))
    golden = GOLDENS / stem / "serialized.json"
    assert serialize_manifold(doc) == golden.read_text(encoding="utf-8")


def regenerate():
    os.environ["COLUMNS"] = COLUMNS
    for _, base, stem, argv in CASES:
        base.mkdir(parents=True, exist_ok=True)
        code, out, err = run(argv)
        (base / f"{stem}.out").write_text(out, encoding="utf-8")
        err_file = base / f"{stem}.err"
        if code:
            err_file.write_text(err, encoding="utf-8")
        elif err_file.exists():
            err_file.unlink()
    for name, argv in USAGE_CASES.items():
        _, _, err = run(argv)
        (FLAGS / f"{name}.err").write_text(usage_lines(err), encoding="utf-8")
    for stem in SAMPLE_STEMS:
        text = serialize_manifold(load_manifold(sample(stem)))
        (GOLDENS / stem / "serialized.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
