"""The scalar path against the numpy formulas it replaced, bit for bit.

Interaction and SMatrixFn work on Python complex and float;
tests/oracles.py keeps the same formulas on numpy scalars and 2x2 arrays.
Matrix entries, gamma, det T, the coefficients of p and its roots must be
equal (==, not approximately), and the exceptional-point certificate must
give the same verdict.
"""

import cmath
import math
import struct

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    numpy_characteristic,
    numpy_compose,
    numpy_decompose,
    numpy_from_abcd,
    numpy_nilpotent,
    xi_from_abcd,
)
from zrs.classifier import PoleReport, Sheet, classify, exceptional_points, find_poles
from zrs.errors import InternalInconsistency, NotRepresentable
from zrs.interaction import Interaction
from zrs.pauli import PauliVector, _div, _sqrt
from zrs.smatrix import build

small = st.floats(min_value=-10, max_value=10, allow_nan=False)
coeff = st.builds(complex, small, small)
wide = st.floats(min_value=-1e50, max_value=1e50, allow_nan=False)
entry = st.builds(complex, wide, wide)


def _bits(z):
    """The bits of z, with every NaN part read as one NaN."""
    z = complex(z)
    return tuple(b"nan" if math.isnan(x) else struct.pack("<d", x) for x in (z.real, z.imag))


def _assert_matches_numpy(i, numpy_matrix):
    assert i.matrix.tolist() == numpy_matrix.tolist()
    gamma = numpy_decompose(numpy_matrix)
    assert tuple(i.gamma) == tuple(gamma)
    try:
        s = build(i)
    except NotRepresentable:
        return
    det_t, p_coeffs, roots = numpy_characteristic(gamma, s.tol)
    assert s.det_t == det_t
    assert s.p_coeffs == p_coeffs
    assert s.roots == roots
    for p in find_poles(s):
        if p.sheet is not Sheet.PHYSICAL:
            continue
        # asked about an order-two pole, exceptional_points certifies or raises
        try:
            exceptional_points(s, [PoleReport(p.location, 2, p.sheet, p.z)])
            nilpotent = True
        except InternalInconsistency:
            nilpotent = False
        assert nilpotent == numpy_nilpotent(numpy_matrix, p.location, s.tol)


def _extreme_complexes():
    """Axis-aligned values, signed zeros, and moduli from 1e-300 to 1e300."""
    values = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.5, 1e-300, -3e-300, 1e300, -7e299, 1.5e-308]
    zs = [complex(x, y) for x in values for y in values]
    rng = np.random.default_rng(8)
    parts = rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-300, 300, size=(200, 2))
    return zs + [complex(x, y) for x, y in parts.tolist()]


def test_square_root_matches_numpy():
    values = [0.0, -0.0, 5e-324, -1e-320, 2.2e-308, 1.7e-307, 1e-150, 1.0, -2.0, 1e150, -4.5e307, 1.7e308]
    zs = _extreme_complexes() + [complex(x, y) for x in values for y in values]
    for z in zs:
        assert _bits(_sqrt(z)) == _bits(np.sqrt(np.complex128(z)))


def test_division_matches_numpy():
    zs = _extreme_complexes()
    numerators = np.array(zs)
    with np.errstate(all="ignore"):
        for b in zs:
            if b == 0:
                continue
            by_array = (numerators / b).tolist()
            for a, want in zip(zs, by_array):
                got = _bits(_div(a, b))
                assert got == _bits(want) == _bits(np.complex128(a) / np.complex128(b))


_ENTRY_KINDS = {
    "int": st.integers(min_value=-(2**62), max_value=2**62),
    "float32": st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    "float64": st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
    "complex128": st.builds(
        complex,
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
    ),
}


@st.composite
def _matrices(draw):
    """A 2x2 matrix of one entry kind, as nested lists, nested tuples or an ndarray."""
    kind = draw(st.sampled_from(sorted(_ENTRY_KINDS)))
    a, b, c, d = draw(st.lists(_ENTRY_KINDS[kind], min_size=4, max_size=4))
    container = draw(st.sampled_from(["list", "tuple", "ndarray"]))
    if container == "list":
        return [[a, b], [c, d]]
    if container == "tuple":
        return ((a, b), (c, d))
    return np.array([[a, b], [c, d]], dtype={"int": np.int64}.get(kind, np.dtype(kind)))


@given(_matrices())
@settings(deadline=None, max_examples=300)
def test_entries_and_matrix_match_numpy_conversion(m):
    # the entries are converted in plain Python; they and the matrix built
    # from them on first access must be numpy's conversion bit for bit
    want = np.array(m, dtype=complex)
    i = Interaction.from_matrix(m)
    assert [_bits(z) for z in i._entries] == [_bits(z) for z in want.ravel().tolist()]
    assert i.matrix.dtype == want.dtype and i.matrix.shape == (2, 2)
    assert i.matrix.tobytes() == want.tobytes()
    assert not i.matrix.flags.writeable


@given(coeff, coeff, coeff, coeff)
@settings(deadline=None, max_examples=300)
def test_couplings_match_numpy(a, b, c, d):
    assume(abs(xi_from_abcd(a, b, c, d)) > 1e-6 * (1 + abs(a) + abs(b) + abs(c) + abs(d)) ** 2)
    _assert_matches_numpy(Interaction.from_abcd(a, b, c, d), numpy_from_abcd(a, b, c, d))


@given(entry, entry, entry, entry)
@settings(deadline=None, max_examples=300)
def test_matrices_match_numpy(a, b, c, d):
    m = np.array([[a, b], [c, d]])
    _assert_matches_numpy(Interaction.from_matrix(m), m)


def test_near_jordan_blocks_match_numpy():
    # gamma = (1/(2(1 + i k0)), a + d1, i a + d2, d3) is a Jordan block with
    # a double pole at k0 when d = 0; |d| = 10^e pulls the pole apart
    rng = np.random.default_rng(11)
    for _ in range(2000):
        k0 = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        a = complex(rng.normal(), rng.normal())
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        d *= 10.0 ** rng.integers(-16, -5) / np.linalg.norm(d)
        g0 = 1 / (2 * (1 + 1j * k0))
        m = numpy_compose(PauliVector(g0, a + d[0], 1j * a + d[1], d[2]))
        _assert_matches_numpy(Interaction.from_matrix(m), m)


def test_scale_beyond_the_float_range():
    # gamma = (0, 0, 0, g3) with 8 det T = -(0.6e154 + 1.3e154 i): the square
    # of the scale |c1| that the discriminant is judged at is beyond the
    # float range, where Python's ** raises and numpy gives inf
    g3 = cmath.sqrt((0.6e154 + 1.3e154j) / 8)
    m = numpy_compose(PauliVector(0j, 0j, 0j, g3))
    i = Interaction.from_matrix(m)
    with np.errstate(over="ignore"):
        _assert_matches_numpy(i, m)
    assert [(p.location, p.order) for p in classify(i).poles] == [(1j, 1), (1j, 1)]
