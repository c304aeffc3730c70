"""Pauli decomposition of 2x2 complex matrices.

Every 2x2 complex matrix M has a unique expansion
M = x0*sigma0 + x1*sigma1 + x2*sigma2 + x3*sigma3 with complex coefficients.
The metric construction reads its axis off them; the characteristic data
of SMatrixFn are taken from the entries of M instead.

The package does this algebra on Python complex and float scalars, with
Python's own complex division and cmath.sqrt. The helper at the end gives
a modulus that overflows as inf, where Python raises. numpy is imported
only where an ndarray is made: by the read-only SIGMA0 to SIGMA3, built on
first access.
"""

import math
from collections import namedtuple

_SIGMAS = {
    "SIGMA0": [[1, 0], [0, 1]],
    "SIGMA1": [[0, 1], [1, 0]],
    "SIGMA2": [[0, -1j], [1j, 0]],
    "SIGMA3": [[1, 0], [0, -1]],
}


def __getattr__(name):
    # the Pauli matrices are ndarrays, made (and numpy loaded) on first access
    if name not in _SIGMAS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    m = np.array(_SIGMAS[name], dtype=complex)
    m.setflags(write=False)
    globals()[name] = m
    return m


PauliVector = namedtuple("PauliVector", "x0 x1 x2 x3")
PauliVector.__doc__ = "Complex coefficients (x0, x1, x2, x3) of a Pauli expansion."


def _decompose(a, b, c, d):
    """Pauli coefficients of the matrix [[a, b], [c, d]] of Python complex."""
    return PauliVector((a + d) / 2, (b + c) / 2, 1j * (b - c) / 2, (a - d) / 2)


def _compose(x):
    """Rows of the matrix with Pauli coefficients x, as nested lists."""
    x0, x1, x2, x3 = x
    return [[x0 + x3, x1 - 1j * x2], [x1 + 1j * x2, x0 - x3]]


def _modulus(z):
    """abs(z), or inf where the modulus is beyond the float range.

    Python's abs raises OverflowError there; numpy returns inf.
    """
    try:
        return abs(z)
    except OverflowError:
        return math.inf
