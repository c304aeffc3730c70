import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gamma_from_abcd
from zrs.errors import NotRepresentable
from zrs.interaction import FRIEDRICHS, KREIN, Interaction, PotentialABCD
from zrs.pauli import compose, decompose

small = st.floats(min_value=-10, max_value=10, allow_nan=False)
coeff = st.builds(complex, small, small)


def test_delta_coupling_matrix():
    # a = 1, pure delta term
    i = Interaction.from_abcd(1, 0, 0, 0)
    assert np.allclose(i.matrix, np.ones((2, 2)) / 6, atol=1e-15)
    assert i.origin == PotentialABCD(1, 0, 0, 0)


def test_mixed_coupling_matrix():
    # b = 1: derivative coupling only
    i = Interaction.from_abcd(0, 1, 0, 0)
    assert np.allclose(i.matrix, np.array([[3, 1], [3, 1]]) / 8, atol=1e-15)


def test_xi_normalization():
    p = PotentialABCD(-1 + 0j, -1 + 0j, 1 + 0j, 1 + 0j)
    assert p.xi == 0
    assert p.det == 0


def test_not_representable():
    with pytest.raises(NotRepresentable):
        Interaction.from_abcd(-1, 0, 0, 2)  # Xi = 0
    with pytest.raises(NotRepresentable):
        Interaction.from_abcd(-1, -1, 1, 1)


@given(coeff, coeff, coeff, coeff)
@settings(deadline=None, max_examples=200)
def test_gamma_route_matches_matrix_route(a, b, c, d):
    p = PotentialABCD(a, b, c, d)
    if abs(p.xi) < 1e-6 * (1 + abs(a) + abs(b) + abs(c) + abs(d)) ** 2:
        return
    from_formula = gamma_from_abcd(a, b, c, d)
    from_matrix = decompose(Interaction.from_abcd(a, b, c, d).matrix)
    for x, y in zip(from_formula, from_matrix):
        assert np.isclose(x, y, atol=1e-9 * (1 + abs(y)))


def test_adjoint_is_conjugate_transpose():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        try:
            i = Interaction.from_abcd(a, b, c, d)
        except NotRepresentable:
            continue
        adj = i.adjoint()
        assert np.allclose(adj.matrix, i.matrix.conj().T)
        # swapping and conjugating b, c yields the adjoint coefficients
        again = Interaction.from_abcd(
            np.conj(a), np.conj(c), np.conj(b), np.conj(d)
        )
        assert np.allclose(again.matrix, adj.matrix, atol=1e-12)
        assert adj.origin == again.origin


def test_is_hermitian():
    assert Interaction.from_abcd(1, 0, 0, 0).is_hermitian()
    assert Interaction.from_abcd(-2.5, 0, 0, 0).is_hermitian()
    assert not Interaction.from_abcd(0, 1, 0, 0).is_hermitian()
    assert not Interaction.from_abcd(1j, 0, 0, 0).is_hermitian()


def test_reference_extensions():
    assert np.allclose(FRIEDRICHS.matrix, np.zeros((2, 2)))
    assert np.allclose(KREIN.matrix, np.eye(2) / 2)
    assert FRIEDRICHS.is_hermitian() and KREIN.is_hermitian()


def test_det_property():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    i = Interaction.from_matrix(m)
    assert np.isclose(i.det, np.linalg.det(m))


def test_matrix_is_read_only():
    i = Interaction.from_abcd(1, 0, 0, 0)
    with pytest.raises(ValueError):
        i.matrix[0, 0] = 9


def test_rejects_shape_and_non_finite_entries():
    with pytest.raises(ValueError, match="2x2"):
        Interaction.from_matrix(np.zeros((3, 3)))
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            Interaction.from_matrix([[0, bad], [0, 0]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            Interaction.from_abcd(bad, 0, 0, 0)


def test_from_gamma_round_trip():
    i = Interaction.from_abcd(0.3, -0.2 + 0.1j, 0.5, 1.1j)
    assert np.allclose(Interaction.from_gamma(i.gamma).matrix, i.matrix)
    assert np.allclose(compose(i.gamma), i.matrix)


def test_phase_family_determinant():
    # (a, b, c, d) = (-e^{i phi}, -1, 1, e^{-i phi}) at phi = pi/2:
    # det of the boundary matrix is i/8
    i = Interaction.from_abcd(-1j, -1, 1, -1j)
    assert np.isclose(i.det, 1j / 8, atol=1e-15)
    assert np.allclose(
        i.matrix, np.array([[(1 + 1j) / 4, 1 / 2], [0, (1 + 1j) / 4]]), atol=1e-15
    )
