import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gamma_from_abcd, numpy_compose, xi_from_abcd
from zrs.errors import NotRepresentable
from zrs.interaction import FRIEDRICHS, KREIN, Interaction, _is_hermitian

small = st.floats(min_value=-10, max_value=10, allow_nan=False)
coeff = st.builds(complex, small, small)


def test_delta_coupling_matrix():
    # a = 1, pure delta term
    i = Interaction.from_abcd(1, 0, 0, 0)
    assert np.allclose(i.matrix, np.ones((2, 2)) / 6, atol=1e-15)


def test_mixed_coupling_matrix():
    # b = 1: derivative coupling only
    i = Interaction.from_abcd(0, 1, 0, 0)
    assert np.allclose(i.matrix, np.array([[3, 1], [3, 1]]) / 8, atol=1e-15)


def test_xi_normalization():
    # ad - bc = 0 and Xi = 4 + 2(a - d) = 0, exactly
    with pytest.raises(NotRepresentable) as excinfo:
        Interaction.from_abcd(-1, -1, 1, 1)
    assert str(excinfo.value) == (
        "normalization Xi = 0j vanishes for coefficients"
        " PotentialABCD(a=(-1+0j), b=(-1+0j), c=(1+0j), d=(1+0j))"
    )


def test_not_representable():
    with pytest.raises(NotRepresentable):
        Interaction.from_abcd(-1, 0, 0, 2)  # Xi = 0
    with pytest.raises(NotRepresentable):
        Interaction.from_abcd(-1, -1, 1, 1)


def test_from_abcd_checks_its_inputs_as_the_constructor_does():
    # a string or an array is no coefficient, as it is no matrix entry: both are ValueError
    for bad in ("1", np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="expected numeric coefficients"):
            Interaction.from_abcd(bad, 0, 0, 0)
        with pytest.raises(ValueError, match="expected a 2x2 matrix of numbers"):
            Interaction([[bad, 0], [0, 0]])
    # ints and numpy scalars beside complex, as sweeps and arrays give them, convert as complex() does
    assert Interaction.from_abcd(1, np.float64(0.5), -1, 0j)._entries == Interaction.from_abcd(1 + 0j, 0.5, -1.0, 0)._entries


@given(coeff, coeff, coeff, coeff)
@settings(deadline=None, max_examples=200)
def test_gamma_route_matches_matrix_route(a, b, c, d):
    if abs(xi_from_abcd(a, b, c, d)) < 1e-6 * (1 + abs(a) + abs(b) + abs(c) + abs(d)) ** 2:
        return
    from_formula = gamma_from_abcd(a, b, c, d)
    from_matrix = Interaction.from_abcd(a, b, c, d).gamma
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


def test_is_hermitian():
    assert Interaction.from_abcd(1, 0, 0, 0).is_hermitian()
    assert Interaction.from_abcd(-2.5, 0, 0, 0).is_hermitian()
    assert not Interaction.from_abcd(0, 1, 0, 0).is_hermitian()
    assert not Interaction.from_abcd(1j, 0, 0, 0).is_hermitian()


def test_is_hermitian_past_the_float_range():
    # T - T* has an entry whose modulus, or whose part, overflows, as do the
    # moduli it is measured against: no inf is measured against an inf
    big = 1.7e308 + 1.7e308j
    assert not Interaction.from_matrix([[big, 0], [0, 1]]).is_hermitian()
    assert not Interaction.from_matrix([[big, 0], [0, 1.7e308 - 1e308j]]).is_hermitian()
    assert not Interaction.from_matrix([[1, 1.5e308 + 1.5e308j], [1.5e308 - 1e308j, 1]]).is_hermitian()
    # b - conj(c) = b has finite parts and a modulus past the float range, where abs raises
    assert not Interaction([[0, 1.5e308 + 1.5e308j], [0, 0]]).is_hermitian()
    # and a conjugate pair whose moduli overflow is still one
    assert Interaction.from_matrix([[1, big], [big.conjugate(), 2]]).is_hermitian()


def test_is_hermitian_judges_each_pair_at_its_own_size():
    # a zero entry is its own conjugate, and it does not make the test absolute: a pair of 0 and a
    # tiny c is measured against |c|, and fails
    assert _is_hermitian((0j, 0j, 0j, 0j), 1e-12)
    assert _is_hermitian((0j, 1 + 2j, 1 - 2j, 0j), 1e-12)
    assert not _is_hermitian((0j, 0j, 1e-300 + 0j, 0j), 1e-12)
    assert not _is_hermitian((1e-300j, 0j, 0j, 0j), 1e-12)
    # |b| >> |c|: b - conj(c) is measured against the larger, |b| / 2 times 2 tol, either way round
    for b, c in ((1 + 0j, 1e-3 + 0j), (1e-3 + 0j, 1 + 0j)):
        assert _is_hermitian((0j, b, c, 0j), 1.0)
        assert not _is_hermitian((0j, b, c, 0j), 0.99)
    # each diagonal entry against itself, not against the larger entries beside it
    assert not _is_hermitian((1 + 1e-9j, 1e6 + 0j, 1e6 + 0j, 1 + 0j), 1e-12)
    assert not _is_hermitian((1 + 0j, 1e6 + 0j, 1e6 + 0j, 1 + 1e-9j), 1e-12)
    assert _is_hermitian((1 + 1e-13j, 1e6 + 0j, 1e6 + 0j, 1 - 1e-13j), 1e-12)


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
    bad_shapes = [
        np.zeros((3, 3)),
        np.zeros((2, 2, 1)),
        np.zeros((2, 2, 1)).tolist(),
        np.zeros(2),
        np.zeros(4),
        [[1, 2], [3]],
        [[1, 2], [3, 4, 5]],
        [[1, 2], 3],
        [[1, "2"], [3, 4]],
        [[1, 2], [None, 4]],
        "ab",
        7,
    ]
    for bad in bad_shapes:
        with pytest.raises(ValueError, match="2x2"):
            Interaction.from_matrix(bad)
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            Interaction.from_matrix([[0, bad], [0, 0]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            Interaction.from_abcd(bad, 0, 0, 0)


def test_from_gamma_round_trip():
    i = Interaction.from_abcd(0.3, -0.2 + 0.1j, 0.5, 1.1j)
    assert np.allclose(Interaction.from_gamma(i.gamma).matrix, i.matrix)
    assert np.allclose(numpy_compose(i.gamma), i.matrix)


def test_phase_family_determinant():
    # (a, b, c, d) = (-e^{i phi}, -1, 1, e^{-i phi}) at phi = pi/2:
    # det of the boundary matrix is i/8
    i = Interaction.from_abcd(-1j, -1, 1, -1j)
    assert np.isclose(i.det, 1j / 8, atol=1e-15)
    assert np.allclose(
        i.matrix, np.array([[(1 + 1j) / 4, 1 / 2], [0, (1 + 1j) / 4]]), atol=1e-15
    )
