"""Command line front end.

Nine subcommands delegate one to one to library operations: basic-classes,
recognizable and recognize work on elliptic-surface data given by flags;
invariant, nonvanishing, blowup, split-check and fingerprint read a manifold
description file; distinguish reads two.  Output is human-readable text by
default and a deterministic JSON document under --json.  Exit codes: 0 ok,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blocks import NegativeDefinite, basic_class_table, recognizable_set
from .errors import SwStemError
from .invariants import (
    InvariantClass,
    SplitQuery,
    blowup,
    invariant,
    nonvanishing_criteria,
    odd_basic_fingerprint,
    split_verdict,
)
from .lattice import SpinC
from .manifold_io import load_manifold
from .recognize import Pattern, distinguish, recognize, recognize_oracle

# flags whose value may start with "-"; argparse reads a bare "-2,2" as an
# option, so `--classes -2,2` must become `--classes=-2,2` before parsing
_VALUE_FLAGS = ("--classes", "--c")


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


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True))


def _emit_trace(lines: tuple[str, ...]) -> None:
    for line in lines:
        print("  " + line)


def _invariant_line(inv: InvariantClass) -> str:
    return (
        f"stem degree {inv.stem_degree}, class {inv.nonequiv_class}, "
        f"nonvanishing: {inv.equivariant_nonzero}"
    )


def _invariant_payload(inv: InvariantClass, with_trace: bool) -> dict:
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
    if with_trace:
        payload["trace"] = list(inv.trace)
    return payload


def _cmd_basic_classes(args) -> int:
    table = basic_class_table(args.pg, args.m, args.n)
    if args.json:
        _emit_json(
            {
                "entries": [[k, v] for k, v in table.entries],
                "m": args.m,
                "n": args.n,
                "p_g": args.pg,
            }
        )
        return 0
    for k, v in table.entries:
        print(f"{k}: {v}")
    return 0


def _cmd_recognizable(args) -> int:
    classes = recognizable_set(args.pg, args.m, args.n)
    if args.json:
        _emit_json(
            {"classes": list(classes), "m": args.m, "n": args.n, "p_g": args.pg}
        )
        return 0
    print(",".join(str(c) for c in classes))
    return 0


def _cmd_recognize(args) -> int:
    pattern = Pattern.of(args.classes)
    if args.bounds is not None:
        matches = recognize_oracle(pattern, args.bounds)
        if args.json:
            _emit_json(
                {
                    "bounds": list(args.bounds),
                    "matches": [list(t) for t in matches],
                }
            )
        elif matches:
            for p_g, m, n in matches:
                print(f"p_g={p_g} m={m} n={n}")
        else:
            print(
                f"no match within bounds p_g<={args.bounds[0]}, n<={args.bounds[1]}"
            )
        return 0
    result = recognize(pattern)
    if args.json:
        _emit_json(
            {
                "diagnostics": list(result.diagnostics),
                "m": result.m,
                "n": result.n,
                "p_g": result.p_g,
                "validated": result.validated,
            }
        )
        return 0
    word = "validated" if result.validated else "unvalidated"
    print(f"p_g={result.p_g} m={result.m} n={result.n} ({word})")
    for note in result.diagnostics:
        print(f"note: {note}")
    return 0


def _cmd_invariant(args) -> int:
    doc = load_manifold(args.file)
    inv = invariant(doc.to_connected_sum())
    if args.json:
        _emit_json(_invariant_payload(inv, args.trace))
        return 0
    print(_invariant_line(inv))
    if inv.gamma_power:
        print(f"gamma power: {inv.gamma_power}")
    if args.trace:
        _emit_trace(inv.trace)
    return 0


def _cmd_nonvanishing(args) -> int:
    doc = load_manifold(args.file)
    result = nonvanishing_criteria(doc.to_connected_sum())
    if args.json:
        payload: dict = {"verdict": str(result.verdict)}
        if args.trace:
            payload["trace"] = list(result.trace)
        _emit_json(payload)
        return 0
    print(f"nonvanishing: {result.verdict}")
    if args.trace:
        _emit_trace(result.trace)
    return 0


def _cmd_blowup(args) -> int:
    doc = load_manifold(args.file)
    inv = invariant(doc.to_connected_sum())
    spin_c = SpinC.from_coords(args.c) if args.c is not None else None
    result = blowup(inv, NegativeDefinite(args.rank), spin_c)
    if args.json:
        payload = _invariant_payload(result.invariant, args.trace)
        payload["sw_preserved"] = str(result.sw_preserved)
        _emit_json(payload)
        return 0
    print(_invariant_line(result.invariant))
    print(f"gamma power: {result.invariant.gamma_power}")
    print(f"sw preserved: {result.sw_preserved}")
    if args.trace:
        _emit_trace(result.invariant.trace)
    return 0


def _cmd_split_check(args) -> int:
    doc = load_manifold(args.file)
    verdict = split_verdict(
        doc.to_connected_sum(), SplitQuery(args.modulus, args.residue)
    )
    if args.json:
        payload = {
            "kind": verdict.kind.value,
            "modulus": args.modulus,
            "residue": args.residue,
        }
        if args.trace:
            payload["trace"] = list(verdict.trace)
        _emit_json(payload)
        return 0
    print(f"verdict: {verdict.kind.value}")
    if args.trace:
        _emit_trace(verdict.trace)
    return 0


def _cmd_distinguish(args) -> int:
    doc_a = load_manifold(args.file_a)
    doc_b = load_manifold(args.file_b)
    verdict = distinguish(
        [s.block for s in doc_a.summands], [s.block for s in doc_b.summands]
    )
    if args.json:
        _emit_json({"verdict": verdict.value})
        return 0
    print(f"verdict: {verdict.value}")
    return 0


def _cmd_fingerprint(args) -> int:
    doc = load_manifold(args.file)
    sets = odd_basic_fingerprint(doc.to_connected_sum())
    if args.json:
        _emit_json({"sets": [list(s) for s in sets]})
        return 0
    for s in sets:
        print(",".join(str(c) for c in s))
    return 0


def _add_triple_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pg", type=int, required=True, help="geometric genus")
    p.add_argument("--m", type=int, required=True, help="smaller fiber multiplicity")
    p.add_argument("--n", type=int, required=True, help="larger fiber multiplicity")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swstem",
        description="Exact invariant arithmetic for connected sums of 4-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "basic-classes", help="basic-class table of an elliptic surface"
    )
    _add_triple_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_basic_classes)

    p = sub.add_parser("recognizable", help="multiples with odd SW value")
    _add_triple_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_recognizable)

    p = sub.add_parser(
        "recognize", help="identify an elliptic surface from its odd multiples"
    )
    p.add_argument(
        "--classes",
        type=_int_list,
        required=True,
        help="comma-separated multiples, e.g. --classes=-2,2",
    )
    p.add_argument(
        "--bounds",
        type=_bounds,
        default=None,
        help="PG,N: run the exhaustive search oracle within these bounds",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("invariant", help="invariant class of a connected sum")
    p.add_argument("file", metavar="FILE", help="manifold description file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--trace", action="store_true", help="include the rule trace")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser(
        "nonvanishing", help="summand-count nonvanishing criteria verdict"
    )
    p.add_argument("file", metavar="FILE", help="manifold description file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--trace", action="store_true", help="include the rule trace")
    p.set_defaults(func=_cmd_nonvanishing)

    p = sub.add_parser(
        "blowup", help="sum with a negative definite block and track the class"
    )
    p.add_argument("file", metavar="FILE", help="manifold description file")
    p.add_argument("--rank", type=int, required=True, help="rank of the block")
    p.add_argument(
        "--c",
        type=_int_list,
        default=None,
        help="odd characteristic coordinates, e.g. --c=3,1 (default: all 1)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--trace", action="store_true", help="include the rule trace")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser(
        "split-check", help="congruence obstruction to a connected-sum splitting"
    )
    p.add_argument("file", metavar="FILE", help="manifold description file")
    p.add_argument("--modulus", type=int, required=True, help="2 or 4")
    p.add_argument(
        "--residue", type=int, required=True, help="queried residue of b+(X1)"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--trace", action="store_true", help="include the rule trace")
    p.set_defaults(func=_cmd_split_check)

    p = sub.add_parser(
        "distinguish", help="compare two connected sums of elliptic surfaces"
    )
    p.add_argument("file_a", metavar="FILE1", help="first manifold description")
    p.add_argument("file_b", metavar="FILE2", help="second manifold description")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser(
        "fingerprint", help="odd-SW class sets of the summands"
    )
    p.add_argument("file", metavar="FILE", help="manifold description file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_fingerprint)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(list(argv)))
    try:
        return args.func(args)
    except (SwStemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
