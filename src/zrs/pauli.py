"""Pauli decomposition of 2x2 complex matrices.

Every 2x2 complex matrix M has a unique expansion
M = x0*sigma0 + x1*sigma1 + x2*sigma2 + x3*sigma3 with complex coefficients.
The determinant takes a closed form in these coordinates, which is what
makes the scattering-matrix algebra below tractable.
"""

from dataclasses import dataclass

import numpy as np

SIGMA0 = np.array([[1, 0], [0, 1]], dtype=complex)
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (SIGMA0, SIGMA1, SIGMA2, SIGMA3):
    _m.setflags(write=False)


@dataclass(frozen=True)
class PauliVector:
    """Coefficients (x0, x1, x2, x3) of a Pauli expansion."""

    x0: complex
    x1: complex
    x2: complex
    x3: complex

    def __iter__(self):
        return iter((self.x0, self.x1, self.x2, self.x3))

    def space_part(self):
        """The (x1, x2, x3) block as an ndarray."""
        return np.array([self.x1, self.x2, self.x3], dtype=complex)


def decompose(m):
    """Pauli coefficients of a 2x2 matrix.

    Parameters
    ----------
    m : array_like, shape (2, 2)

    Returns
    -------
    PauliVector
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    x0 = (m[0, 0] + m[1, 1]) / 2
    x1 = (m[0, 1] + m[1, 0]) / 2
    x2 = 1j * (m[0, 1] - m[1, 0]) / 2
    x3 = (m[0, 0] - m[1, 1]) / 2
    return PauliVector(x0, x1, x2, x3)


def compose(x):
    """Matrix x0*sigma0 + x1*sigma1 + x2*sigma2 + x3*sigma3."""
    x0, x1, x2, x3 = x
    return np.array(
        [[x0 + x3, x1 - 1j * x2], [x1 + 1j * x2, x0 - x3]], dtype=complex
    )


def det_pauli(x):
    """Determinant x0^2 - (x1^2 + x2^2 + x3^2) in Pauli coordinates."""
    x0, x1, x2, x3 = x
    return x0 * x0 - (x1 * x1 + x2 * x2 + x3 * x3)
