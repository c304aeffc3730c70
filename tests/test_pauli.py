import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zrs.pauli import (
    SIGMA0,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    PauliVector,
    compose,
    decompose,
    det_pauli,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
complexes = st.builds(complex, finite, finite)


def test_basis_squares_to_identity():
    for sigma in (SIGMA0, SIGMA1, SIGMA2, SIGMA3):
        assert np.allclose(sigma @ sigma, SIGMA0)


def test_basis_is_read_only():
    with pytest.raises(ValueError):
        SIGMA1[0, 0] = 5


def test_decompose_known_matrix():
    x = decompose([[3, 1 - 2j], [1 + 2j, -1]])
    assert x == PauliVector(1, 1, 2, 2)


@given(complexes, complexes, complexes, complexes)
@settings(deadline=None, max_examples=200)
def test_compose_decompose_round_trip(x0, x1, x2, x3):
    x = PauliVector(x0, x1, x2, x3)
    back = decompose(compose(x))
    for a, b in zip(back, x):
        assert np.isclose(a, b, atol=1e-9 * (1 + abs(b)))


@given(complexes, complexes, complexes, complexes)
@settings(deadline=None, max_examples=200)
def test_det_matches_numpy(x0, x1, x2, x3):
    x = PauliVector(x0, x1, x2, x3)
    assert np.isclose(
        det_pauli(x),
        np.linalg.det(compose(x)),
        atol=1e-6 * (1 + abs(x0) ** 2 + abs(x1) ** 2 + abs(x2) ** 2 + abs(x3) ** 2),
    )


def test_decompose_rejects_wrong_shape():
    with pytest.raises(ValueError):
        decompose(np.eye(3))


def test_matrix_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(compose(decompose(m)), m)
