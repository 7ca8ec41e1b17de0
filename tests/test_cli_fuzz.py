"""Hypothesis fuzz of the command line, run in process (no subprocess).

Every argv a user can type ends in exit 0, 1 or 2 (``SystemExit(2)`` from
argparse), with at most one ``error:`` line on stderr, no other exception, no
warning, and within a fixed deadline.  Integer flags are drawn small (at most
50 in size) or huge (at least 10^7, up to past str()'s 4,300-digit limit), so
a large listing is refused unbuilt by ``blocks.MAX_LISTING`` instead of built.
"""

import contextlib
import importlib
import io
import tempfile
import time
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

# the program: its table of subcommands, its flag types and main
program = importlib.import_module("swstem.__main__")

SAMPLES = sorted(map(str, (Path(__file__).resolve().parent.parent / "samples").glob("*.json")))

#: seconds one call may take; the slowest drawn call, a 122,500-entry table, took
#: 0.2 s on a 2-vCPU VM
DEADLINE_S = 5

# integers as decimal text: str() refuses an int past 4,300 digits, and a huge
# one may go past it, as the digits of two draws that hypothesis can still print
_small = st.integers(-50, 50).map(str)
_huge = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-"]),
    st.integers(10**7, 10**3000),
    st.just("") | st.integers(0, 10**3000).map(str),
)
_ints = _small | _huge
_int_lists = st.lists(_ints, min_size=1, max_size=6)
# a negation-symmetric list reaches recognize's candidates, not only its refusal
_symmetric = _int_lists.map(lambda xs: xs + [x[1:] if x[0] == "-" else f"-{x}" for x in xs])
_junk = st.one_of(
    st.floats().map(str),
    st.text(max_size=12),
    st.sampled_from(["", "-", "--", "1,", ",", "0x10", "1e3", "nan", "--json", "-h"]),
)
_summand = st.one_of(
    st.builds('{{"type": "elliptic", "p_g": {}, "m": {}, "n": {}}}'.format, _ints, _ints, _ints),
    st.builds('{{"type": "symplectic", "b_plus": {}}}'.format, _ints),
    st.builds(
        '{{"type": "kaehler", "b_plus": {}, "odd_basic": [{}]}}'.format,
        _ints,
        st.lists(_ints, max_size=3).map(", ".join),
    ),
    st.builds('{{"type": "negative_definite", "rank": {}}}'.format, _ints),
    st.builds(
        '{{"type": "negative_definite", "rank": {}, "c": [{}]}}'.format,
        _ints,
        st.lists(_ints, max_size=4).map(", ".join),
    ),
    st.sampled_from(['{"type": "k3"}', '{"type": "s4"}']),
)
_document = st.lists(_summand, min_size=1, max_size=4).map(
    lambda summands: f'{{"summands": [{", ".join(summands)}]}}'.encode()
)
# a file argument: a sample, a path to drawn bytes (see _materialize) or junk
_file = st.sampled_from(SAMPLES) | st.binary(max_size=80) | _document | _junk

_FLAG_VALUES = {
    int: _ints,
    program._int_list: (_int_lists | _symmetric).map(",".join),
    program._bounds: st.tuples(_ints, _ints).map(",".join),
}


def _one_in(k: int):
    """True one time in k; shrinks to False."""
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def _argv(draw):
    name, _, _, arguments, traced = draw(st.sampled_from(program._SUBCOMMANDS))
    files, options = [], []  # positional tokens keep their order; options move
    for flag, spec in arguments:
        if not flag.startswith("-"):
            files.append(draw(_file))
        elif not draw(_one_in(10)):  # a flag is left out one time in ten
            value = _junk if draw(_one_in(8)) else _FLAG_VALUES[spec["type"]]
            options.append([flag, draw(value)])
    switches = ("--json", "--trace") if traced else ("--json",)
    options += [[s] for s in draw(st.lists(st.sampled_from(switches), max_size=2, unique=True))]
    if draw(_one_in(5)):  # a stray token
        options.append([draw(_junk | _ints | _file)])
    options = draw(st.permutations(options))
    cut = draw(st.integers(0, len(options)))
    return [name, *sum(options[:cut], []), *files, *sum(options[cut:], [])]


def _materialize(argv, directory) -> list[str]:
    """argv with each bytes token written to a file and replaced by its path."""
    out = []
    for i, token in enumerate(argv):
        if isinstance(token, bytes):
            path = Path(directory) / f"drawn{i}.json"
            path.write_bytes(token)
            token = str(path)
        out.append(token)
    return out


@settings(
    max_examples=300,
    deadline=None,  # DEADLINE_S is asserted instead, past hypothesis' shrinking
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_argv())
def test_any_argv_ends_cleanly(drawn):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        argv = _materialize(drawn, directory)
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = program.main(argv)
                except SystemExit as exc:  # argparse: a usage error, or -h
                    code = exc.code
        elapsed = time.perf_counter() - start
    event(f"{argv[0]} exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 1, 2), (argv, code)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, err.getvalue()
    assert [str(w.message) for w in caught] == []
    assert elapsed < DEADLINE_S, (argv, elapsed)
