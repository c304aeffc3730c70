"""Zero-range interactions at the origin and their boundary matrices.

A point interaction is given either by four complex coupling coefficients
(a, b, c, d) or directly by the 2x2 boundary matrix that ties the one-sided
boundary values of a wavefunction together:

    frakT . (f(0+) + f'(0+), f(0-) - f'(0-))^T = (1/2) (f(0+), f(0-))^T

The coefficient form maps onto the matrix form whenever the normalization
Xi = 4 - (ad - bc) + 2(a - d) is non-zero; there is no map back.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotRepresentable
from .pauli import PauliVector, compose, decompose, det_pauli
from .tolerances import base_tol


@dataclass(frozen=True)
class PotentialABCD:
    """Coupling coefficients of the distributional potential."""

    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def xi(self):
        """Normalization 4 - (ad - bc) + 2(a - d)."""
        return 4 - self.det + 2 * (self.a - self.d)


def gamma_from_abcd(a, b, c, d):
    """Pauli coefficients of the boundary matrix, straight from (a, b, c, d).

    Independent of the matrix assembly in Interaction.from_abcd; used to
    cross-check it.
    """
    p, xi = _potential(a, b, c, d)
    g0 = (xi - 2 * (p.a + p.d)) / (4 * xi)
    g1 = (4 + p.det) / (4 * xi)
    g2 = -1j * (p.b - p.c) / (2 * xi)
    g3 = (p.b + p.c) / (2 * xi)
    return PauliVector(g0, g1, g2, g3)


def _potential(a, b, c, d):
    """PotentialABCD and Xi of the coefficients; NotRepresentable where Xi vanishes."""
    p = PotentialABCD(complex(a), complex(b), complex(c), complex(d))
    xi = p.xi
    try:
        size = 1 + abs(p.a) + abs(p.b) + abs(p.c) + abs(p.d)
        # size * size overflows to inf where size ** 2 raises OverflowError
        vanishes = abs(xi) <= base_tol() * size * size
    except OverflowError:  # a modulus beyond the float range
        vanishes = True
    if vanishes:
        raise NotRepresentable(f"normalization Xi = {xi} vanishes for coefficients {p}")
    return p, xi


class Interaction:
    """A point interaction, held as its boundary matrix.

    Attributes
    ----------
    matrix : ndarray, shape (2, 2)
        The boundary matrix (read-only).
    gamma : PauliVector
        Pauli coefficients of `matrix`.
    origin : PotentialABCD or None
        Coefficients the matrix was built from, when it was.
    """

    def __init__(self, matrix, origin=None):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError(f"expected a finite 2x2 matrix, got {m.tolist()}")
        m.setflags(write=False)
        self.matrix = m
        self.gamma = decompose(m)
        self.origin = origin

    @classmethod
    def from_abcd(cls, a, b, c, d):
        """Build the boundary matrix from coupling coefficients.

        Raises
        ------
        NotRepresentable
            If the normalization Xi vanishes (relative to the coefficient
            magnitudes), in which case no boundary matrix exists.
        """
        p, xi = _potential(a, b, c, d)
        det = p.det
        m = np.array(
            [
                [xi + 2 * (p.b + p.c - p.a - p.d), 4 + det - 2 * (p.b - p.c)],
                [4 + det + 2 * (p.b - p.c), xi - 2 * (p.b + p.c + p.a + p.d)],
            ],
            dtype=complex,
        ) / (4 * xi)
        return cls(m, origin=p)

    @classmethod
    def from_matrix(cls, m):
        """Wrap an explicit 2x2 boundary matrix."""
        return cls(m)

    @classmethod
    def from_gamma(cls, gamma):
        """Wrap Pauli coefficients of a boundary matrix."""
        return cls(compose(gamma))

    @property
    def det(self):
        """Determinant of the boundary matrix."""
        return det_pauli(self.gamma)

    def adjoint(self):
        """Interaction whose boundary matrix is the conjugate transpose.

        Swapping b and c (conjugated) in the coefficient form produces the
        adjoint matrix, so an origin is carried over when present.
        """
        m = self.matrix.conj().T
        origin = None
        if self.origin is not None:
            p = self.origin
            origin = PotentialABCD(
                p.a.conjugate(), p.c.conjugate(), p.b.conjugate(), p.d.conjugate()
            )
        return Interaction(m, origin=origin)

    def is_hermitian(self):
        """Whether the boundary matrix is (numerically) self-adjoint."""
        return _is_hermitian(self.matrix, base_tol())

    def __repr__(self):
        rows = self.matrix.tolist()
        return f"Interaction(matrix={rows!r})"


def _is_hermitian(matrix, tol):
    diff = np.abs(matrix - matrix.conj().T).max()
    scale = 1 + np.abs(matrix).max()
    return bool(diff <= tol * scale)


FRIEDRICHS = Interaction(np.zeros((2, 2)))
KREIN = Interaction(np.eye(2) / 2)
