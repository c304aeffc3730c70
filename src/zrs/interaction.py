"""Zero-range interactions at the origin and their boundary matrices.

A point interaction is given either by four complex coupling coefficients
(a, b, c, d) or directly by the 2x2 boundary matrix that ties the one-sided
boundary values of a wavefunction together:

    frakT . (f(0+) + f'(0+), f(0-) - f'(0-))^T = (1/2) (f(0+), f(0-))^T

The coefficient form maps onto the matrix form whenever the normalization
Xi = 4 - (ad - bc) + 2(a - d) is non-zero; there is no map back.
"""

import cmath
from functools import cached_property
from numbers import Number

from .errors import NotRepresentable
from .pauli import _compose, _decompose, _modulus
from .tolerances import base_tol


class Interaction:
    """A point interaction, held as its boundary matrix.

    The constructor takes any 2x2 nested sequence of numbers (lists, tuples
    or an ndarray) and keeps its entries as Python complex, checked in plain
    Python; the package's own algebra runs on those. numpy is loaded only
    when `matrix` is first read.

    Attributes
    ----------
    matrix : ndarray, shape (2, 2)
        The boundary matrix (read-only), built on first access and cached.
    gamma : PauliVector
        Pauli coefficients of `matrix`, computed on first read and cached.
    """

    def __init__(self, matrix):
        try:
            (a, b), (c, d) = matrix
        except (TypeError, ValueError):
            raise ValueError(f"expected a 2x2 matrix, got {matrix!r}") from None
        entries = _as_complex(a, b, c, d)
        if entries is None:
            raise ValueError(f"expected a 2x2 matrix of numbers, got {matrix!r}")
        a, b, c, d = entries
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValueError(f"expected a finite 2x2 matrix, got {[[a, b], [c, d]]}")
        # the entries of matrix as Python complex, for the scalar algebra
        self._entries = a, b, c, d
        self._matrix = None

    @property
    def matrix(self):
        """The boundary matrix as a read-only ndarray, built on first access."""
        if self._matrix is None:
            import numpy as np

            a, b, c, d = self._entries
            self._matrix = np.array([[a, b], [c, d]], dtype=complex)
            self._matrix.setflags(write=False)
        return self._matrix

    @cached_property
    def gamma(self):
        """Pauli coefficients of `matrix`, computed on first read."""
        return _decompose(*self._entries)

    @classmethod
    def from_abcd(cls, a, b, c, d):
        """Build the boundary matrix from coupling coefficients.

        Raises
        ------
        NotRepresentable
            If the normalization Xi vanishes (relative to the coefficient
            magnitudes), in which case no boundary matrix exists.
        ValueError
            If a coefficient is not a finite number.
        """
        coefficients = _as_complex(a, b, c, d)
        if coefficients is None:
            raise ValueError(f"expected numeric coefficients, got {_named(a, b, c, d)}")
        a, b, c, d = coefficients
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValueError(f"expected finite coefficients, got {_named(a, b, c, d)}")
        det = a * d - b * c
        xi = 4 - det + 2 * (a - d)
        try:
            size = 1 + abs(a) + abs(b) + abs(c) + abs(d)
            # size * size overflows to inf where size ** 2 raises OverflowError;
            # finite coefficients can still make det = inf - inf, and the NaN Xi
            # fails the comparison, so it vanishes
            vanishes = not abs(xi) > base_tol() * size * size
        except OverflowError:  # a modulus beyond the float range
            vanishes = True
        if vanishes:
            raise NotRepresentable(f"normalization Xi = {xi} vanishes for coefficients {_named(a, b, c, d)}")
        norm = 4 * xi
        m = [
            [(xi + 2 * (b + c - a - d)) / norm, (4 + det - 2 * (b - c)) / norm],
            [(4 + det + 2 * (b - c)) / norm, (xi - 2 * (b + c + a + d)) / norm],
        ]
        return cls(m)

    @classmethod
    def from_matrix(cls, m):
        """Wrap an explicit 2x2 boundary matrix."""
        return cls(m)

    @classmethod
    def from_gamma(cls, gamma):
        """Wrap Pauli coefficients of a boundary matrix."""
        return cls(_compose(gamma))

    @property
    def det(self):
        """Determinant ad - bc of the boundary matrix [[a, b], [c, d]], as SMatrixFn.det_t."""
        a, b, c, d = self._entries
        return a * d - b * c

    def adjoint(self):
        """Interaction whose boundary matrix is the conjugate transpose."""
        a, b, c, d = self._entries
        m = [[a.conjugate(), c.conjugate()], [b.conjugate(), d.conjugate()]]
        return Interaction(m)

    def is_hermitian(self):
        """Whether the boundary matrix is (numerically) self-adjoint."""
        return _is_hermitian(self._entries, base_tol())

    def __repr__(self):
        a, b, c, d = self._entries
        return f"Interaction(matrix={[[a, b], [c, d]]!r})"


def _as_complex(a, b, c, d):
    """a, b, c, d as Python complex, or None where one is not a Number, as strings and arrays that complex() takes."""
    if type(a) is type(b) is type(c) is type(d) is complex:
        return a, b, c, d
    if all(isinstance(x, Number) for x in (a, b, c, d)):
        return complex(a), complex(b), complex(c), complex(d)
    return None


def _named(a, b, c, d):
    """The coefficients (a, b, c, d) as error messages print them."""
    return f"PotentialABCD(a={a!r}, b={b!r}, c={c!r}, d={d!r})"


def _is_hermitian(entries, tol):
    """Whether [[a, b], [c, d]] is self-adjoint at tol, each entry of T - T* against the two it compares."""
    a, b, c, d = entries
    # a - conj(a) = 2i Im a; halved entries have finite sizes, so an overflowing difference never meets an inf
    return (
        2 * abs(a.imag) <= 2 * tol * abs(a / 2) and 2 * abs(d.imag) <= 2 * tol * abs(d / 2)
        and _modulus(b - c.conjugate()) <= 2 * tol * max(abs(b / 2), abs(c / 2))
    )


FRIEDRICHS = Interaction([[0, 0], [0, 0]])
KREIN = Interaction([[0.5, 0], [0, 0.5]])
