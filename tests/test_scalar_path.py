"""The scalar path against the numpy formulas it replaced and exact references.

Interaction and SMatrixFn work on Python complex and float;
tests/oracles.py keeps the same formulas on numpy scalars and 2x2 arrays.
Matrix entries, gamma, det T and the coefficients of p must be equal (==,
not approximately), and so must the multiplicities of the roots of p and
which of them are snapped to the origin. Root locations and the entries
from couplings are judged against exact references instead.
"""

import cmath
import math
import struct

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    abcd_numerators,
    exact_invariants,
    exact_poles,
    exact_quotient,
    numpy_characteristic,
    numpy_compose,
    numpy_decompose,
    xi_from_abcd,
)
from zrs.classifier import classify
from zrs.errors import NotRepresentable
from zrs.interaction import Interaction
from zrs.pauli import PauliVector
from zrs.smatrix import build

EPS = 2.0**-52

small = st.floats(min_value=-10, max_value=10, allow_nan=False)
coeff = st.builds(complex, small, small)
wide = st.floats(min_value=-1e50, max_value=1e50, allow_nan=False)
entry = st.builds(complex, wide, wide)


def _bits(z):
    """The bits of z, with every NaN part read as one NaN."""
    z = complex(z)
    return tuple(b"nan" if math.isnan(x) else struct.pack("<d", x) for x in (z.real, z.imag))


def _assert_quotient(got, a, b):
    # Python's complex division is within 2 eps |a / b| of the exact quotient
    want = exact_quotient(a, b)
    assert abs(got - want) <= 2 * EPS * abs(want), (got, want)


def _assert_roots_near_exact(s):
    """Each root of p where the exact references put it.

    The two simple roots of the quadratic are matched with exact_poles. The
    theta route is backward stable: its theta is a root of det(sigma0 - theta
    (T + E)) with |E_ij| <= 4 eps m, m = max |T_ij|. That moves p(theta) by
    at most B = 16 eps m |theta| (1 + m |theta|), and a theta where
    |p| = |D (theta - theta+)(theta - theta-)| <= B lies within
    min(B / |xi|, sqrt(B / |D|)) of a root, as |theta+ - theta-| = 2 |xi / D|;
    k = i (1 - theta / 2) lies within half that. The theta of a double root
    is the quotient gamma0 / D, and that of a degree-one p is 1 / (a + d); a
    lone simple root that is not is the one left where the other is past the
    float range, and is judged as one of two.
    """
    if len(s.roots) < 2:
        (a, _), (_, d) = s.interaction.matrix.tolist()
        for (k, mult), theta in zip(s.roots, s.thetas):
            num, den = (s.interaction.gamma.x0, s.det_t) if mult == 2 else (1, a + d)
            want = exact_quotient(num, den) if den else None
            if k != 0j and (want is None or abs(theta - want) > 2 * EPS * abs(want)):
                assert mult == 1, (theta, want)  # the lone simple root, judged below
                break
            assert k == 0j or k == 1j * (1 - theta / 2)
        else:
            return
    T = s.interaction.matrix.tolist()
    refs = exact_poles(T)
    ks = [k for k, _ in s.roots if k != 0j]
    if len(refs) < 2:
        # det T is exactly 0, and the float D is its rounding error: only the
        # root nearest the exact one, if there is one, is a root of p
        ks = [min(ks, key=lambda k: abs(k - ref)) for ref in refs]
    _, xi2, D, _, _ = (math.hypot(*map(float, x)) for x in exact_invariants(T))
    m = max(abs(t) for row in T for t in row)
    for k in ks:
        ref = min(refs, key=lambda r: abs(k - r))
        theta = 2 * (1 + abs(k))
        bound = 16 * EPS * m * theta * (1 + m * theta)
        reach = min(bound / math.sqrt(xi2) if xi2 else math.inf, math.sqrt(bound / D) if D else math.inf)
        assert 2 * abs(k - ref) <= reach, (k, ref)


def _assert_matches_numpy(i, numpy_matrix):
    assert i.matrix.tolist() == numpy_matrix.tolist()
    gamma = numpy_decompose(numpy_matrix)
    assert tuple(i.gamma) == tuple(gamma)
    try:
        s = build(i)
    except NotRepresentable:
        return
    det_t, p_coeffs, roots = numpy_characteristic(numpy_matrix, s.tol)
    assert s.det_t == det_t
    assert all(np.isfinite(p_coeffs)), p_coeffs  # build answers only where p's coefficients are in range
    assert [(k == 0j, mult) for k, mult in s.roots] == [(k == 0j, mult) for k, mult in roots]
    _assert_roots_near_exact(s)


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
    i = Interaction.from_abcd(a, b, c, d)
    numerators, norm = abcd_numerators(a, b, c, d)
    for got, numerator in zip(i._entries, (z for row in numerators for z in row)):
        _assert_quotient(got, numerator, norm)
    _assert_matches_numpy(i, i.matrix)


@given(entry, entry, entry, entry)
@settings(deadline=None, max_examples=300)
def test_matrices_match_numpy(a, b, c, d):
    m = np.array([[a, b], [c, d]])
    _assert_matches_numpy(Interaction.from_matrix(m), m)


def test_triangular_matrices_match_numpy():
    # b or c exactly 0 beside a large other entry: bc is 0 wherever xi^2 is scaled
    for m in ([[2e-146, 1e200], [0, 1e-146]], [[1e-300, 1e10], [0, 0]], [[1, 1e300], [0, 1 - 2**-52]]):
        m = np.array(m, dtype=complex)
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
    # gamma = (0, 0, 0, g3) with 8 det T = -(0.6e154 + 1.3e154 i): the
    # discriminant c1^2 - 4 c2 c0 of the oracle's quadratic formula is beyond
    # the float range, where numpy gives inf; SMatrixFn does not form it
    g3 = cmath.sqrt((0.6e154 + 1.3e154j) / 8)
    m = numpy_compose(PauliVector(0j, 0j, 0j, g3))
    i = Interaction.from_matrix(m)
    with np.errstate(over="ignore"):
        _assert_matches_numpy(i, m)
    # the exact roots i (1 -+ 1 / (2 xi)) lie 6.4e-78 off i, on either side
    poles = [(p.location, p.order) for p in classify(i).poles]
    assert poles == [(-6.369830209199535e-78 + 1j, 1), (6.369830209199535e-78 + 1j, 1)]
    assert sorted(exact_poles(m), key=lambda k: k.real) == [k for k, _ in poles]
