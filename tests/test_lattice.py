"""Index arithmetic, the expected dimension and characteristic vectors."""

import pytest
from hypothesis import given, strategies as st

from swstem.errors import IndexNotIntegral, InvalidParameters
from swstem.lattice import (
    SpinC,
    dirac_index,
    expected_dimension,
)


def test_k3_index():
    # c = 0 on the K3 intersection form, signature -16
    assert dirac_index(0, -16) == 2


def test_blowup_indices():
    assert dirac_index(-1, -1) == 0
    assert dirac_index(-9, -1) == -1
    assert dirac_index(-25, -1) == -3


def test_non_integral_index_rejected():
    with pytest.raises(IndexNotIntegral):
        dirac_index(1, -16)


@pytest.mark.parametrize("args", [(0.0, -16), (0, -16.0), (True, -1), (-1, True)])
def test_dirac_index_takes_exact_integers(args):
    with pytest.raises(InvalidParameters, match="takes integers"):
        dirac_index(*args)


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_index_integrality_is_exactly_mod8(c_square, signature):
    if (c_square - signature) % 8 == 0:
        assert dirac_index(c_square, signature) * 8 == c_square - signature
    else:
        with pytest.raises(IndexNotIntegral):
            dirac_index(c_square, signature)


def test_expected_dimension_of_k3_vanishes():
    assert expected_dimension(2, 3, 0) == 0
    assert expected_dimension(2, 5, 0) != 0


def test_spin_c_from_coords():
    assert SpinC.from_coords((1, 3)).c_square == -10
    assert SpinC.from_coords(()).c_square == 0


def test_spin_c_rejects_even_coordinate():
    with pytest.raises(InvalidParameters):
        SpinC.from_coords((2,))


def test_spin_c_rejects_square_coordinate_mismatch():
    with pytest.raises(InvalidParameters):
        SpinC(-5, (1, 3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpinC(2.0),
        lambda: SpinC(True),
        lambda: SpinC(-1.0, (1,)),
        lambda: SpinC(-1, (1.0,)),
        lambda: SpinC(-1, (True,)),
        lambda: SpinC.from_coords((3.0,)),
        lambda: SpinC.from_coords(("3",)),
    ],
    ids=["float", "bool", "float-square", "float-coord", "bool-coord", "from-float", "from-str"],
)
def test_spin_c_rejects_non_integers(build):
    with pytest.raises(InvalidParameters, match="must be an integer"):
        build()


odd_ints = st.integers(-15, 15).map(lambda v: 2 * v + 1)


@given(st.lists(odd_ints, max_size=10))
def test_characteristic_index_never_positive(coords):
    # d = (-sum x_i^2 + rank) / 8 <= 0 since each x_i^2 >= 1
    s = SpinC.from_coords(coords)
    assert dirac_index(s.c_square, -len(coords)) <= 0



def test_from_coords_checks_the_coordinates_once_in_the_constructor(monkeypatch):
    from swstem import lattice

    checked, built = [], []
    check, init = lattice._odd_coordinates, SpinC.__init__

    def counted_check(raw):
        checked.append(raw)
        return check(raw)

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(lattice, "_odd_coordinates", counted_check)
    monkeypatch.setattr(SpinC, "__init__", counted_init)
    spin_c = SpinC.from_coords([3, 1])
    assert checked == [[3, 1]] and built == [spin_c]
    assert spin_c.c_square == -10 and spin_c.c_coords == (3, 1)
