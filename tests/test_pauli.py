import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zrs.interaction import Interaction
from zrs.pauli import SIGMA0, SIGMA1, SIGMA2, SIGMA3, PauliVector

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
complexes = st.builds(complex, finite, finite)


def test_basis_squares_to_identity():
    for sigma in (SIGMA0, SIGMA1, SIGMA2, SIGMA3):
        assert np.allclose(sigma @ sigma, SIGMA0)


def test_basis_is_read_only():
    with pytest.raises(ValueError):
        SIGMA1[0, 0] = 5


def test_decompose_known_matrix():
    x = Interaction([[3, 1 - 2j], [1 + 2j, -1]]).gamma
    assert x == PauliVector(1, 1, 2, 2)


@given(complexes, complexes, complexes, complexes)
@settings(deadline=None, max_examples=200)
def test_compose_decompose_round_trip(x0, x1, x2, x3):
    x = PauliVector(x0, x1, x2, x3)
    back = Interaction.from_gamma(x).gamma
    for a, b in zip(back, x):
        assert np.isclose(a, b, atol=1e-9 * (1 + abs(b)))


def test_matrix_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(Interaction.from_gamma(Interaction(m).gamma).matrix, m)
