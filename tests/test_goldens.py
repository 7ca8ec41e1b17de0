"""Byte-exact CLI goldens over every sample file.

Each case runs ``swstem.cli.main`` in this process and compares stdout with
``goldens/<sample>/<command>.<form>.out``.  A case that exits 1 also pins its
stderr in a ``.err`` file next to it.  To rewrite the goldens after an
intended output change, run ``PYTHONPATH=src python tests/test_goldens.py``
and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from swstem.cli import main
from swstem.manifold_io import load_manifold, serialize_manifold

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDENS = Path(__file__).resolve().parent / "goldens"

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


def cases():
    for path in sorted(SAMPLES.glob("*.json")):
        for command, extra in COMMANDS.items():
            for form, flags in FORMS.items():
                if command in UNTRACED and "--trace" in flags:
                    continue
                yield path, command, form, (command, str(path), *extra, *flags)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def golden_paths(path, command, form):
    base = GOLDENS / path.stem
    return base / f"{command}.{form}.out", base / f"{command}.{form}.err"


CASES = list(cases())


@pytest.mark.parametrize(
    "path, command, form, argv",
    CASES,
    ids=[f"{p.stem}-{c}-{f}" for p, c, f, _ in CASES],
)
def test_cli_golden(path, command, form, argv):
    out_file, err_file = golden_paths(path, command, form)
    code, out, err = run(argv)
    assert out == out_file.read_text(encoding="utf-8")
    if err_file.exists():
        assert code == 1
        assert err == err_file.read_text(encoding="utf-8")
    else:
        assert code == 0, err


def test_mixed_sample_serializes_canonically():
    doc = load_manifold(str(SAMPLES / "mixed_all_kinds.json"))
    golden = GOLDENS / "mixed_all_kinds" / "serialized.json"
    assert serialize_manifold(doc) == golden.read_text(encoding="utf-8")


def regenerate():
    for path, command, form, argv in CASES:
        out_file, err_file = golden_paths(path, command, form)
        out_file.parent.mkdir(parents=True, exist_ok=True)
        code, out, err = run(argv)
        out_file.write_text(out, encoding="utf-8")
        if code:
            err_file.write_text(err, encoding="utf-8")
        elif err_file.exists():
            err_file.unlink()
    doc = load_manifold(str(SAMPLES / "mixed_all_kinds.json"))
    (GOLDENS / "mixed_all_kinds" / "serialized.json").write_text(
        serialize_manifold(doc), encoding="utf-8"
    )


if __name__ == "__main__":
    regenerate()
