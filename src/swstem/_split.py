"""Split-check: the congruence obstruction to a splitting X = X1 # X2.

Loaded on first use, as only ``split-check`` asks it: ``invariants`` forwards
its four names (PEP 562) and declares its rules, so ``RULES`` is whole
without it.
"""

from __future__ import annotations

import enum

from ._record import record
from .errors import InvalidParameters, PreconditionNotMet, shown
from .invariants import _BOTH_NONZERO, _FORCED, _IMPOSSIBLE, _NO_OBSTRUCTION, _PARITY_CONTRADICTS
from .invariants import _QUERY, _R3_CONTRADICTS, _R4_CONTRADICTS, _STEMS_ADD, _SURVIVES, _YES
from .invariants import ConnectedSum, Trace, invariant
from .stems import StemKind


class SplitKind(enum.Enum):
    IMPOSSIBLE = "impossible"
    FORCES_NEGATIVE_DEFINITE_COMPLEMENT = "forces_negative_definite_complement"
    UNKNOWN = "unknown"


@record
class SplitQuery:
    """Congruence constraint b+(X1) = residue (mod modulus) on a hypothetical
    splitting X = X1 # X2.  b1 of both parts is zero automatically, since the
    engine only forms sums of b1 = 0 blocks and first Betti numbers add."""

    modulus: int
    residue: int

    def __post_init__(self):
        for value in (self.modulus, self.residue):
            if type(value) is not int:
                raise InvalidParameters(f"split queries take integers, got {shown(value)}")
        if self.modulus not in (2, 4):
            raise InvalidParameters(f"modulus must be 2 or 4, got {shown(self.modulus)}")
        if not 0 <= self.residue < self.modulus:
            raise InvalidParameters(
                f"residue must lie in [0, {self.modulus}), got {shown(self.residue)}"
            )


@record
class SplitVerdict:
    kind: SplitKind
    trace: Trace | tuple[str, ...]

    def __post_init__(self):
        if not self.trace:
            raise InvalidParameters("split verdicts must carry a reasoning trace")


def split_verdict(csum: ConnectedSum, query: SplitQuery) -> SplitVerdict:
    """Decide whether X can split as X1 # X2 with b+(X1) in the queried
    congruence class, given that the total nonequivariant class is a Hopf
    power eta^j with j in {2, 3}.

    The analysis runs over the stem-degree decompositions j = j1 + j2 with
    these rules: (R1) negative stems vanish, so both degrees are >= 0;
    (R2) the smash of the factors is nonzero, so each factor is nonzero;
    (R3) a nonzero factor in degree 1 forces an almost complex manifold with
    b+ = 3 (mod 4) and odd SW; (R4) a nonzero factor in degree 0 forces
    b+ = 0 on that part, since positive b+ makes its mapping degree zero.
    IMPOSSIBLE means every decomposition is contradicted; the complement is
    forced negative definite when every surviving decomposition pins
    b+(X2) = 0.
    """
    inv = invariant(csum)
    cls = inv.nonequiv_class
    if cls.kind is not StemKind.HOPF or cls.degree not in (2, 3):
        four = inv.stem_degree == 4 and inv.equivariant_nonzero is _YES
        raise PreconditionNotMet(
            f"splitting analysis needs a total class eta^2 or eta^3, got {cls} "
            f"in stem {inv.stem_degree}"
            + ("; the four-summand equivariant nonvanishing does not feed "
               "this obstruction" if four else "")
        )

    j = cls.degree
    mod, res = query.modulus, query.residue
    steps: list = [(_QUERY, cls, j, res, mod), (_BOTH_NONZERO,), (_STEMS_ADD, j)]
    survivors = 0
    all_pin_complement = True
    for j1 in range(j + 1):
        j2 = j - j1
        # b1 = 0 on both parts, so j_i = 2 d_i - b+(X_i) has the parity of b+(X_i)
        if j1 % 2 != res % 2:
            steps.append((_PARITY_CONTRADICTS, j1, j2, res))
        elif j1 == 1 and mod == 4 and res == 1:
            steps.append((_R3_CONTRADICTS, j1, j2))
        elif j1 == 0 and res != 0:
            steps.append((_R4_CONTRADICTS, j1, j2, res, mod))
        else:
            survivors += 1
            all_pin_complement &= j2 == 0
            steps.append((_SURVIVES, j1, j2))

    if survivors == 0:
        kind, last = SplitKind.IMPOSSIBLE, _IMPOSSIBLE
    elif all_pin_complement:
        kind, last = SplitKind.FORCES_NEGATIVE_DEFINITE_COMPLEMENT, _FORCED
    else:
        kind, last = SplitKind.UNKNOWN, _NO_OBSTRUCTION
    steps.append((last,))
    return SplitVerdict(kind, Trace(tuple(steps)))
