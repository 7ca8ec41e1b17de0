"""The command line program, run by ``python -m swstem``.

Nine subcommands delegate one to one to library operations: basic-classes,
recognizable and recognize work on elliptic-surface data given by flags;
invariant, nonvanishing, blowup, split-check and fingerprint read a manifold
description file; distinguish reads two.  Each ``_cmd_*`` function returns
its answer as (JSON payload, text lines, rule trace) and prints nothing;
``main`` renders it in one place.  Every command prints text by default and
one sorted-key JSON document under --json, written by ``json_text``, the
package's one JSON writer, which writes manifold files too.  Flags take their
full spelling only (no argparse abbreviation).
--trace exists on invariant, nonvanishing, blowup and split-check only: it
appends the rule trace to the text, indented by two spaces, or adds it to
the JSON document as "trace".
An error is one ``error:`` line on stderr, such as the library's refusal of a
listing past its budget, or an answer meeting a closed pipe.  Exit codes: 0
ok, 1 domain error, 2 usage error; a usage error after a subcommand, an
unknown flag too, prints its usage.  ``run`` is the program; ``main`` answers
in process and leaves the caller's garbage collector alone.
A call loads only the modules its command uses: each ``_cmd_*`` imports its
library names when it runs, and ``json_text`` is imported under --json only.
``swstem.cli`` is the program's library face, which loads the library's
modules and forwards ``build_parser``, ``main`` and ``run`` from here on
first read.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import TYPE_CHECKING

from .errors import SwStemError

if TYPE_CHECKING:
    from .invariants import ConnectedSum, InvariantClass

# flags whose value may start with "-"; argparse reads a bare "-2,2" as an
# option, so `--classes -2,2` must become `--classes=-2,2` before parsing
_VALUE_FLAGS = ("--classes", "--bounds", "--c")


def _normalize_argv(argv: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _bounds(text: str) -> tuple[int, int]:
    try:
        # a count other than two fails the unpacking with ValueError too
        p_g_max, n_max = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected PG,N with two integers, got {text!r}"
        )
    return p_g_max, n_max


# Each command returns (payload, lines, trace): the JSON document without its
# trace, the text output, and the rule trace, () for untraced commands.  JSON
# renders tuples as lists, so payloads hold the library's tuples as they are.


def _invariant_view(inv: InvariantClass) -> tuple[dict, list[str]]:
    """Payload and headline of an invariant class (invariant and blowup)."""
    payload = {
        "class": str(inv.nonequiv_class),
        "class_degree": inv.nonequiv_class.degree,
        "class_kind": inv.nonequiv_class.kind.value,
        "equivariant_nonzero": str(inv.equivariant_nonzero),
        "gamma_power": inv.gamma_power,
        "stem_degree": inv.stem_degree,
        "total_b_plus": inv.total_b_plus,
        "total_d": inv.total_d,
    }
    headline = (
        f"stem degree {inv.stem_degree}, class {inv.nonequiv_class}, "
        f"nonvanishing: {inv.equivariant_nonzero}"
    )
    return payload, [headline]


def _cmd_basic_classes(args):
    from ._listing import basic_class_table

    table = basic_class_table(args.pg, args.m, args.n)
    # JSON renders each pair as a list; the text reads the two columns
    pairs = list(zip(table.keys, table.values)) if args.json else ()
    payload = {"entries": pairs, "m": args.m, "n": args.n, "p_g": args.pg}
    return payload, (f"{k}: {v}" for k, v in zip(table.keys, table.values)), ()


def _cmd_recognizable(args):
    from ._listing import recognizable_set

    classes = recognizable_set(args.pg, args.m, args.n)
    payload = {"classes": classes, "m": args.m, "n": args.n, "p_g": args.pg}
    return payload, [",".join(str(c) for c in classes)], ()


def _cmd_recognize(args):
    from .recognize import Pattern, recognize, recognize_oracle

    pattern = Pattern(args.classes)
    if args.bounds is not None:
        matches = recognize_oracle(pattern, args.bounds)
        lines = [f"p_g={p_g} m={m} n={n}" for p_g, m, n in matches] or [
            f"no match within bounds p_g<={args.bounds[0]}, n<={args.bounds[1]}"
        ]
        return {"bounds": args.bounds, "matches": matches}, lines, ()
    result = recognize(pattern)
    payload = {
        "diagnostics": result.diagnostics,
        "m": result.m,
        "n": result.n,
        "p_g": result.p_g,
        "validated": result.validated,
    }
    word = "validated" if result.validated else "unvalidated"
    lines = [f"p_g={result.p_g} m={result.m} n={result.n} ({word})"]
    return payload, lines + [f"note: {note}" for note in result.diagnostics], ()


def _sum(path: str) -> ConnectedSum:
    """The connected sum a manifold file describes."""
    from .manifold_io import load_manifold

    return load_manifold(path).to_connected_sum()


def _cmd_invariant(args):
    from .invariants import invariant

    inv = invariant(_sum(args.file))
    payload, lines = _invariant_view(inv)
    if inv.gamma_power:
        lines.append(f"gamma power: {inv.gamma_power}")
    return payload, lines, inv.trace


def _cmd_nonvanishing(args):
    from .invariants import nonvanishing_criteria

    result = nonvanishing_criteria(_sum(args.file))
    verdict = str(result.verdict)
    return {"verdict": verdict}, [f"nonvanishing: {verdict}"], result.trace


def _cmd_blowup(args):
    from .blocks import NegativeDefinite
    from .invariants import blowup, invariant
    from .lattice import SpinC

    inv = invariant(_sum(args.file))
    spin_c = SpinC.from_coords(args.c) if args.c is not None else None
    result = blowup(inv, NegativeDefinite(args.rank), spin_c)
    payload, lines = _invariant_view(result.invariant)
    payload["sw_preserved"] = str(result.sw_preserved)
    lines.append(f"gamma power: {result.invariant.gamma_power}")
    lines.append(f"sw preserved: {result.sw_preserved}")
    return payload, lines, result.invariant.trace


def _cmd_split_check(args):
    from ._split import SplitQuery, split_verdict

    csum = _sum(args.file)
    verdict = split_verdict(csum, SplitQuery(args.modulus, args.residue))
    kind = verdict.kind.value
    payload = {"kind": kind, "modulus": args.modulus, "residue": args.residue}
    return payload, [f"verdict: {kind}"], verdict.trace


def _sum_of(path: str) -> ConnectedSum:
    """The connected sum of a manifold file; a parse or semantic error names the
    file (an OSError names it already)."""
    try:
        return _sum(path)
    except SwStemError as exc:
        raise SwStemError(f"{path}: {exc}") from exc


def _cmd_distinguish(args):
    from .invariants import distinguish

    verdict = distinguish(_sum_of(args.file_a), _sum_of(args.file_b)).value
    return {"verdict": verdict}, [f"verdict: {verdict}"], ()


def _cmd_fingerprint(args):
    from .invariants import odd_basic_fingerprint

    sets = odd_basic_fingerprint(_sum(args.file))
    return {"sets": sets}, [",".join(str(c) for c in s) for s in sets], ()


_FILE = ("file", dict(metavar="FILE", help="manifold description file"))
_TRIPLE = (
    ("--pg", dict(type=int, required=True, help="geometric genus")),
    ("--m", dict(type=int, required=True, help="smaller fiber multiplicity")),
    ("--n", dict(type=int, required=True, help="larger fiber multiplicity")),
)

#: (name, help, command, its own arguments, traced) in registration order;
#: --json follows each command's own arguments, and --trace follows --json
_SUBCOMMANDS = (
    (
        "basic-classes",
        "basic-class table of an elliptic surface",
        _cmd_basic_classes,
        _TRIPLE,
        False,
    ),
    ("recognizable", "multiples with odd SW value", _cmd_recognizable, _TRIPLE, False),
    (
        "recognize",
        "identify an elliptic surface from its odd multiples",
        _cmd_recognize,
        (
            (
                "--classes",
                dict(
                    type=_int_list,
                    required=True,
                    help="comma-separated multiples, e.g. --classes=-2,2",
                ),
            ),
            (
                "--bounds",
                dict(
                    type=_bounds,
                    help="PG,N: run the exhaustive search oracle within these bounds",
                ),
            ),
        ),
        False,
    ),
    ("invariant", "invariant class of a connected sum", _cmd_invariant, (_FILE,), True),
    (
        "nonvanishing",
        "summand-count nonvanishing criteria verdict",
        _cmd_nonvanishing,
        (_FILE,),
        True,
    ),
    (
        "blowup",
        "sum with a negative definite block and track the class",
        _cmd_blowup,
        (
            _FILE,
            ("--rank", dict(type=int, required=True, help="rank of the block")),
            (
                "--c",
                dict(
                    type=_int_list,
                    help="odd characteristic coordinates, e.g. --c=3,1 (default: all 1)",
                ),
            ),
        ),
        True,
    ),
    (
        "split-check",
        "congruence obstruction to a connected-sum splitting",
        _cmd_split_check,
        (
            _FILE,
            ("--modulus", dict(type=int, required=True, help="2 or 4")),
            ("--residue", dict(type=int, required=True, help="queried residue of b+(X1)")),
        ),
        True,
    ),
    (
        "distinguish",
        "compare two connected sums of elliptic surfaces",
        _cmd_distinguish,
        (
            ("file_a", dict(metavar="FILE1", help="first manifold description")),
            ("file_b", dict(metavar="FILE2", help="second manifold description")),
        ),
        False,
    ),
    ("fingerprint", "odd-SW class sets of the summands", _cmd_fingerprint, (_FILE,), False),
)


_COMMANDS = frozenset(name for name, *_ in _SUBCOMMANDS)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the subcommand ``only`` alone: each
    subcommand's help and usage errors read the same under both."""
    parser = argparse.ArgumentParser(
        prog="swstem",
        description="Exact invariant arithmetic for connected sums of 4-manifolds.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text, command, arguments, traced in _SUBCOMMANDS:
        if only is not None and name != only:
            continue
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if traced:
            p.add_argument("--trace", action="store_true", help="include the rule trace")
        p.set_defaults(func=command, trace=False, parser=p)
    return parser


# one parser per process and invoked subcommand: parsing leaves it unchanged,
# and argparse reads COLUMNS anew each time it formats a usage or error message
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # a named subcommand needs no other; anything else (help, an unknown
    # command, none) is answered by the parser of all nine
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _parser(only)
    if only is None and argv and not argv[0].startswith("-"):
        # argparse's own text, but quoted alike on every Python (3.13.13 drops the quotes)
        choices = ", ".join(repr(name) for name, *_ in _SUBCOMMANDS)
        parser.error(f"argument COMMAND: invalid choice: {argv[0]!r} (choose from {choices})")
    args, extras = parser.parse_known_args(_normalize_argv(argv))
    if extras:  # as parse_args reports them, but with a named subcommand's usage
        (parser if only is None else args.parser).error(
            f"unrecognized arguments: {' '.join(extras)}"
        )
    try:
        payload, lines, trace = args.func(args)
        if args.json:
            from ._json_text import json_text

            if args.trace:  # a Trace renders here; json_text writes exact tuples
                payload["trace"] = tuple(trace)
            print(json_text(payload))
        else:
            # sys.stdout per call (callers redirect it); line by line, so a closed pipe raises
            sys.stdout.writelines(f"{line}\n" for line in lines)
            if args.trace:
                sys.stdout.writelines(f"  {line}\n" for line in trace)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return 0
    except (SwStemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """The program: ``main``, then exit with its heap frozen, left to the OS."""
    if sys.stdout is None:  # fd 1 closed at start: the answer goes nowhere
        sys.stdout = open(os.devnull, "w")
    try:
        code = main()
    finally:
        gc.freeze()
        try:
            sys.stdout.flush()
        except OSError:  # the pipe closed: the exit flush writes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
