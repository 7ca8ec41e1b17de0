"""Byte-exact goldens for the connected-sum engine, called as a library.

Each corpus entry is a connected sum.  Its golden ``goldens/_engine/<name>.out``
holds every field and the full trace of ``invariant``, the verdict and trace
of ``nonvanishing_criteria``, and ``blowup`` by three negative definite blocks
(d = 0, d = -1 and d = -2).  The corpus reaches every trace line these three
functions can emit; ``test_corpus_reaches_every_rule`` checks that.  To
rewrite the goldens after an intended output change, run
``PYTHONPATH=src python tests/test_engine_goldens.py`` (pytest is not needed)
and review the diff.
"""

from pathlib import Path

from swstem.blocks import (
    K3,
    EllipticSurface,
    HomotopySphereLike,
    KaehlerGeneric,
    NegativeDefinite,
    SymplecticGeneric,
)
from swstem.errors import UnknownSW
from swstem.invariants import (
    Summand,
    blowup,
    connected_sum,
    invariant,
    nonvanishing_criteria,
)
from swstem.lattice import SpinC

ENGINE = Path(__file__).resolve().parent / "goldens" / "_engine"


class _NoSW(SymplecticGeneric):
    """A b+ = 3 (mod 4) almost complex block that declares no SW value.

    No catalogued kind is like this, so it is the only way to reach the
    criteria's "undetermined parity" rules; the engine must still answer.
    """

    def sw_value(self, class_key):
        raise UnknownSW("no SW data declared")


E2 = EllipticSurface(2, 1, 1)
E3 = EllipticSurface(3, 1, 1)
SPHERE = HomotopySphereLike()
DEEP = Summand(NegativeDefinite(1), spin_c=SpinC.from_coords((3,)))  # d = -1
DEEPER = Summand(NegativeDefinite(2), spin_c=SpinC.from_coords((3, 3)))  # d = -2

#: golden name -> connected sum
CORPUS = {
    "k3": connected_sum(K3),
    "e2": connected_sum(E2),
    "symplectic5": connected_sum(SymplecticGeneric(5)),
    "e3-key0-sw2": connected_sum(Summand(E3, class_key=0)),
    "e3-key4-sw0": connected_sum(Summand(E3, class_key=4)),
    "rational-elliptic": connected_sum(EllipticSurface(0, 1, 1)),
    "kaehler7-odd": connected_sum(KaehlerGeneric(7, (0,))),
    "kaehler3-even": connected_sum(KaehlerGeneric(3)),
    "no-sw": connected_sum(_NoSW(3)),
    "k3-no-sw": connected_sum(K3, _NoSW(3)),
    "sphere": connected_sum(SPHERE),
    "unit-negdef": connected_sum(Summand(NegativeDefinite(2))),
    "deep-negdef": connected_sum(DEEP, SPHERE),
    "k3x2-sphere": connected_sum(K3, SPHERE, K3),
    "k3x3": connected_sum(K3, K3, K3),
    "k3x4": connected_sum(K3, K3, K3, K3),
    "k3x3-kaehler7": connected_sum(K3, K3, K3, KaehlerGeneric(7, (0,))),
    "k3x5": connected_sum(*[K3] * 5),
    "k3-symplectic5": connected_sum(K3, SymplecticGeneric(5)),
    "k3-kaehler3-even": connected_sum(K3, KaehlerGeneric(3)),
    "k3-deep": connected_sum(K3, DEEP),
    "k3x3-deep": connected_sum(K3, K3, DEEP, K3),
    "k3x2-deeper": connected_sum(K3, DEEPER, K3),
    "k3-unit": connected_sum(K3, Summand(NegativeDefinite(1))),
    "k3-symplectic5-deep": connected_sum(K3, SymplecticGeneric(5), DEEP),
    "e2-deeper": connected_sum(E2, DEEPER),
}

#: (title, block, spin-c) of each blowup applied to every corpus entry
BLOWUPS = (
    ("rank 1, unit vector", NegativeDefinite(1), None),
    ("rank 1, c = (3)", NegativeDefinite(1), SpinC.from_coords((3,))),
    ("rank 2, c = (3, 3)", NegativeDefinite(2), SpinC.from_coords((3, 3))),
)

#: a fragment of each trace line the three functions can emit
RULES = (
    "(neutral summand)",
    "gamma factor(s)",
    ", SW parity odd, contributes",
    ", SW parity even, contributes",
    ", SW parity undetermined, contributes",
    "nonequivariant class: smash product",
    "which vanishes",
    "no nonequivariant formula applies",
    "no almost complex part: the map has degree one",
    "no almost complex summands: the identity class remains",
    "= 1 (mod 4), condition fails",
    "= 3 (mod 4) and SW odd, condition holds",
    "SW parity even, condition fails",
    ": SW parity undetermined",
    ">= 5 almost complex summands",
    "a summand fails its condition",
    "undecided parities are load-bearing",
    "summands satisfy the condition: nonzero",
    "four-summand rule uses total b+",
    "= 4 (mod 8): nonzero",
    "is not 4 (mod 8): the class vanishes",
    "single summand: invariant is SW times a generator",
    "single summand: odd SW is in particular nonzero",
    "single summand: SW value undetermined beyond parity",
    "a vanishing factor makes the whole smash product vanish",
    "gamma factors may or may not kill the class",
    "criteria do not apply",
    "d = 0, zero gamma factors, class unchanged",
    "adds 1 gamma factor(s)",
    "adds 2 gamma factor(s)",
    "and b+ > 1: SW invariants agree",
    "or b+ <= 1: SW preservation unknown",
)


def _invariant_lines(inv) -> list[str]:
    cls = inv.nonequiv_class
    lines = [
        f"total_d: {inv.total_d}",
        f"total_b_plus: {inv.total_b_plus}",
        f"stem_degree: {inv.stem_degree}",
        f"nonequiv_class: {cls} ({cls.kind.value}, degree {cls.degree})",
        f"equivariant_nonzero: {inv.equivariant_nonzero}",
        f"gamma_power: {inv.gamma_power}",
        "trace:",
    ]
    return lines + [f"  {line}" for line in inv.trace]


def render(csum) -> str:
    """Every field and trace line of the engine's three answers on csum."""
    inv = invariant(csum)
    lines = ["# invariant", *_invariant_lines(inv)]
    crit = nonvanishing_criteria(csum)
    lines += ["# nonvanishing_criteria", f"verdict: {crit.verdict}", "trace:"]
    lines += [f"  {line}" for line in crit.trace]
    for title, block, spin_c in BLOWUPS:
        result = blowup(inv, block, spin_c)
        lines += [f"# blowup: {title}", f"sw_preserved: {result.sw_preserved}"]
        lines += _invariant_lines(result.invariant)
    return "\n".join(lines) + "\n"


def test_engine_golden(name):
    assert render(CORPUS[name]) == (ENGINE / f"{name}.out").read_text(encoding="utf-8")


def pytest_generate_tests(metafunc):
    """Parametrize ``test_engine_golden`` by corpus entry: a hook, not pytest's
    decorator, so the module, and with it ``regenerate``, imports without pytest."""
    if metafunc.function is test_engine_golden:
        metafunc.parametrize("name", CORPUS)


def test_corpus_reaches_every_rule():
    text = "".join(render(csum) for csum in CORPUS.values())
    assert [rule for rule in RULES if rule not in text] == []


def regenerate():
    ENGINE.mkdir(parents=True, exist_ok=True)
    for name, csum in CORPUS.items():
        (ENGINE / f"{name}.out").write_text(render(csum), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
