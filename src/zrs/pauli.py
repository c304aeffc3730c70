"""Pauli decomposition of 2x2 complex matrices.

Every 2x2 complex matrix M has a unique expansion
M = x0*sigma0 + x1*sigma1 + x2*sigma2 + x3*sigma3 with complex coefficients.
The determinant takes a closed form in these coordinates, which is what
makes the scattering-matrix algebra below tractable.

The package does this algebra on Python complex and float scalars. The
helpers at the end give those scalars numpy's rounding of complex division
and square roots, and numpy's inf where a modulus or a square overflows.
numpy itself is imported only where an ndarray is made: by the read-only
SIGMA0 to SIGMA3, built on first access.
"""

import cmath
import math
import sys
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


_TINY = sys.float_info.min  # smallest normal float
_HUGE = sys.float_info.max


PauliVector = namedtuple("PauliVector", "x0 x1 x2 x3")
PauliVector.__doc__ = "Complex coefficients (x0, x1, x2, x3) of a Pauli expansion."


def _decompose(a, b, c, d):
    """Pauli coefficients of the matrix [[a, b], [c, d]] of Python complex."""
    return PauliVector((a + d) / 2, (b + c) / 2, 1j * (b - c) / 2, (a - d) / 2)


def _compose(x):
    """Rows of the matrix with Pauli coefficients x, as nested lists."""
    x0, x1, x2, x3 = x
    return [[x0 + x3, x1 - 1j * x2], [x1 + 1j * x2, x0 - x3]]


def det_pauli(x):
    """Determinant x0^2 - (x1^2 + x2^2 + x3^2) in Pauli coordinates."""
    x0, x1, x2, x3 = x
    return x0 * x0 - (x1 * x1 + x2 * x2 + x3 * x3)


def _div(a, b):
    """a / b for a nonzero b, rounded as numpy rounds complex division.

    numpy multiplies by the reciprocal of the divisor (Smith's method) where
    Python's `/` divides by it, and the two differ in the last bit; this is
    numpy's loop, so quotients stay bit-identical to numpy's.
    """
    br, bi = b.real, b.imag
    if abs(br) >= abs(bi):
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return complex((a.real + a.imag * rat) * scl, (a.imag - a.real * rat) * scl)
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _sqrt(z):
    """Principal square root of a finite z, rounded as numpy rounds it.

    numpy takes the C library's csqrt. Where both parts of z lie between
    1e-150 and 1e150, cmath.sqrt rounds as it does; elsewhere (on the axes,
    where a part of z or of the root is subnormal, near overflow) this is
    glibc's csqrt.
    """
    x, y = z.real, z.imag
    if 1e-150 < abs(x) < 1e150 and 1e-150 < abs(y) < 1e150:
        return cmath.sqrt(z)
    if y == 0:
        if x < 0:
            return complex(0.0, math.copysign(math.sqrt(-x), y))
        return complex(abs(math.sqrt(x)), math.copysign(0.0, y))
    if x == 0:
        ay = abs(y)
        r = math.sqrt(0.5 * ay) if ay >= 2 * _TINY else 0.5 * math.sqrt(2 * ay)
        return complex(r, math.copysign(r, y))
    scale = 0
    if abs(x) > _HUGE / 4:
        scale = 1
        x, y = math.ldexp(x, -2), math.ldexp(y, -2)
    if abs(y) > _HUGE / 4:
        scale = 1
        x = math.ldexp(x, -2) if abs(x) >= 4 * _TINY else 0.0
        y = math.ldexp(y, -2)
    if abs(x) < 2 * _TINY and abs(y) < 2 * _TINY:
        scale = -27
        x, y = math.ldexp(x, 54), math.ldexp(y, 54)
    d = abs(complex(x, y))  # the C library's hypot
    if x > 0:
        r = math.sqrt(0.5 * (d + x))
        if scale == 1 and abs(y) < 1:
            s = y / r
            r, scale = math.ldexp(r, 1), 0
        else:
            s = 0.5 * (y / r)
    else:
        s = math.sqrt(0.5 * (d - x))
        if scale == 1 and abs(y) < 1:
            r = abs(y / s)
            s, scale = math.ldexp(s, 1), 0
        else:
            r = abs(0.5 * (y / s))
    return complex(math.ldexp(r, scale), math.copysign(math.ldexp(s, scale), y))


def _modulus(z):
    """abs(z), or inf where the modulus is beyond the float range.

    Python's abs raises OverflowError there; numpy returns inf.
    """
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _square(x):
    """x ** 2 of a float, or inf where it overflows (Python raises there)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf
