"""Correctness checks that do not share the engine's logic (stdlib only).

Each check recomputes what it needs from the generated block parameters
with its own arithmetic and returns None when the output is right, or a
one-line reason when it is not.
"""

from __future__ import annotations

from math import comb

from inputs import max_multiple


def block_profile(raw: dict) -> tuple[int, int]:
    """(b+, d) of one summand description: d is the Dirac index of the
    chosen class, (b+ + 1)/2 for almost complex blocks and (rank - c^2)/8 on
    a negative definite block."""
    kind = raw["type"]
    if kind == "k3":
        return 3, 2
    if kind == "elliptic":
        return 2 * raw["p_g"] + 1, raw["p_g"] + 1
    if kind in ("symplectic", "kaehler"):
        return raw["b_plus"], (raw["b_plus"] + 1) // 2
    if kind == "negative_definite":
        coords = raw.get("c", [1] * raw["rank"])
        return 0, (raw["rank"] - sum(c * c for c in coords)) // 8
    return 0, 0  # s4


def stem_degree(summands: list[dict]) -> tuple[int, int, int]:
    """(total d, total b+, 2d - b+) of a sum."""
    b_plus = sum(block_profile(s)[0] for s in summands)
    d = sum(block_profile(s)[1] for s in summands)
    return d, b_plus, 2 * d - b_plus


def table_value(p_g: int, m: int, n: int, multiple: int) -> int:
    """SW value of E(p_g; m, n) at a fiber multiple, by inverting the key map
    top - 2(a*m*n + b*n + c*m) in O(1) instead of building the table."""
    top = max_multiple(p_g, m, n)
    if (top - multiple) % 2:
        return 0
    r = (top - multiple) // 2
    if r < 0:
        return 0
    b = r * pow(n, -1, m) % m if m > 1 else 0
    q, rest = divmod(r - b * n, m)
    if rest or q < 0:
        return 0
    a, c = divmod(q, n)
    return comb(p_g - 1, a) if a < p_g else 0


def odd_count(p_g: int, m: int, n: int) -> int:
    """Size of the recognizable set: 2^popcount(p_g - 1) * m * n (Lucas)."""
    return 2 ** bin(p_g - 1).count("1") * m * n


def check_table(p_g: int, m: int, n: int, entries) -> str | None:
    """A table has p_g*m*n entries summing to 2^(p_g-1)*m*n, with value 1 at
    the top multiple."""
    if len(entries) != p_g * m * n:
        return f"E({p_g};{m},{n}): {len(entries)} entries, expected {p_g * m * n}"
    total = sum(v for _, v in entries)
    if total != 2 ** (p_g - 1) * m * n:
        return f"E({p_g};{m},{n}): values sum to {total}, expected 2^{p_g - 1}*{m * n}"
    if tuple(entries[-1]) != (max_multiple(p_g, m, n), 1):
        return f"E({p_g};{m},{n}): top entry {entries[-1]}, expected ({max_multiple(p_g, m, n)}, 1)"
    return None


def check_stem(what: str, inv, summands: list[dict], extra_d: int = 0) -> str | None:
    d, b_plus, degree = stem_degree(summands)
    d += extra_d
    degree += 2 * extra_d
    got = (inv.total_d, inv.total_b_plus, inv.stem_degree)
    if got != (d, b_plus, degree):
        return f"{what}: (d, b+, stem) = {got}, expected {(d, b_plus, degree)}"
    return None
