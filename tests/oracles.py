"""Independent routes to the package's quantities, kept as test references.

Each function here reaches a quantity that zrs computes one way by a second,
separate route, so the tests can cross-check the package against it:

* pauli_components(s, k): the Pauli coefficients of S(k) from the factored
  characteristic roots, which theta_roots(gamma, tol) computes from gamma
  alone, against SMatrixFn.evaluate;
* exact_s(T, k): S(k) in exact Gaussian rational arithmetic on the binary
  values of T and k, against SMatrixFn.evaluate near roots of p, where the
  floating-point routes cancel;
* exact_poles(T): the roots of p for the binary values of T, from their
  exact gamma0, xi^2 and det T (exact_invariants) and a 60-digit xi,
  against SMatrixFn.roots;
* exact_invariants(T): those exact gamma0, xi^2 and det T, with x and bc,
  the terms xi^2 = x^2 + bc cancels, against the rule for a double
  eigenvalue of SMatrixFn;
* exact_quotient(a, b): a / b exact, then rounded, against the divisions
  of the scalar path;
* xi_from_abcd(a, b, c, d) and gamma_from_abcd(a, b, c, d): the
  normalization Xi and the Pauli coefficients of the boundary matrix
  straight from the couplings, against Interaction.from_abcd;
* scattering_coefficients and smatrix_from_coefficients: S(k) solved from
  the boundary conditions as reflection and transmission data and
  reassembled, against SMatrixFn.evaluate;
* similarity_integral_probe(interaction, epsilon, xi_range, n): the probe
  integrand built on the whole grid at once, against the chunked
  resolvent.similarity_integral_probe, which must agree bit for bit;
* direct_solve_probe(interaction, epsilon, xi_range, n): the probe from the
  boundary coefficients solved at each node and the norms of the
  resolvent difference, not from p, against the package's integrand;
* decimal_resolvent_norm(T, k, g) and decimal_probe(T, epsilon, xi_range,
  n): the resolvent difference norm and the probe's integrand in 60-digit
  decimal on the binary values of the inputs, the probe on its own nodes
  and Simpson weights, against the package's floating-point arithmetic;
* numpy_compose(x): the matrix with Pauli coefficients x, for building test
  inputs and comparing Pauli coefficients as matrices;
* abcd_numerators(a, b, c, d): the float numerators and the 4 Xi that
  Interaction.from_abcd divides them by;
* numpy_decompose, numpy_factors and numpy_characteristic: gamma, the
  factors of p and the characteristic data computed on numpy scalars,
  against the package's Python scalar path, which must give the same gamma
  and det T bit for bit, answer only where the coefficients of p are
  finite, and give the same structure of roots; the probe oracle tests its
  nodes against the factors numpy_factors decides;
* numpy_nilpotent(T, theta, tol): whether sigma0 - theta T is nilpotent,
  with N @ N on 2x2 arrays, at the theta SMatrixFn.thetas records for a
  root, against the order-two poles of the package.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from zrs.errors import AtEigenvalue, AtPole, ZrsError
from zrs.pauli import SIGMA0, PauliVector
from zrs.resolvent import TestFunctionKind, _integrand_scalars, probe_nodes
from zrs.smatrix import build
from zrs.tolerances import base_tol


class DegenerateSystem(ZrsError):
    """Linear system for reflection/transmission coefficients is singular."""


class OnImaginaryAxis(ZrsError):
    """Reflection/transmission coefficients undefined for purely imaginary k."""


def theta_roots(gamma, tol):
    """Roots 1/(gamma0 +- xi) of p in the theta variable, from gamma alone.

    xi is the principal square root of gamma1^2 + gamma2^2 + gamma3^2. None
    marks a root that has escaped to infinity (vanishing denominator).
    """
    g0, g1, g2, g3 = gamma
    xi = np.sqrt(complex(g1 * g1 + g2 * g2 + g3 * g3))
    scale = max(1.0, abs(g0), abs(xi))
    theta_plus = 1 / (g0 + xi) if abs(g0 + xi) > tol * scale else None
    theta_minus = 1 / (g0 - xi) if abs(g0 - xi) > tol * scale else None
    return theta_plus, theta_minus


def pauli_components(s, k):
    """Pauli coefficients of S(k), from the factored characteristic roots.

    Independent of s.evaluate(): uses the theta-root product, with the roots
    taken from gamma by theta_roots, when the determinant path is available
    and the raw polynomial otherwise.
    """
    k = complex(k)
    tol = s.tol
    g0, g1, g2, g3 = s.interaction.gamma
    D = s.det_t
    theta_k = 2 * (1 + 1j * k)
    c0, c1, c2 = (1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D)  # p(k) = c0 + c1 k + c2 k^2
    origin = sum(mult for root, mult in s.roots if root == 0j)
    if origin == 2 and s.scalar:
        return PauliVector(1 + 8 * D / c2, 0j, 0j, 0j)
    if origin == 1:
        q = c1 + c2 * k
        if abs(q) <= tol * (1 + abs(k)) * max(1.0, abs(c1), abs(c2)):
            raise AtPole(f"deflated denominator vanishes at k = {k}")
        f = 4j / q
        return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)
    if origin == 2:
        q = c2 * k
        if abs(q) <= tol * (1 + abs(k)) * max(1.0, abs(c2)):
            raise AtPole(f"simple pole at the origin, k = {k}")
        f = 4j / q
        return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)
    theta_plus, theta_minus = theta_roots(s.interaction.gamma, tol)
    if theta_plus is not None and theta_minus is not None:
        denom = (theta_k - theta_plus) * (theta_k - theta_minus)
        # p = D * denom in this branch
        if abs(D * denom) <= tol * (1 + abs(k) ** 2) * max(1.0, abs(D)):
            raise AtPole(f"p({k}) within tolerance of zero")
        tt = theta_plus * theta_minus
        f = 4j * k / denom
        return PauliVector(
            1 + f * (tt * g0 - theta_k), f * tt * g1, f * tt * g2, f * tt * g3
        )
    pk = c0 + (c1 + c2 * k) * k
    if abs(pk) <= tol * (1 + abs(k) ** 2) * max(1.0, abs(D)):
        raise AtPole(f"p({k}) = {pk} within tolerance of zero")
    f = 4j * k / pk
    return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)


def _gauss(z):
    """The complex float z as an exact Gaussian rational (re, im)."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _gsub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _gmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _gdiv(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return _gmul(x, (y[0] / norm, -y[1] / norm))


def exact_s(T, k):
    """S(k) = sigma0 + 4ik (T - theta_k D sigma0) / p(k), computed exactly.

    The entries of T and k are taken at their binary values, every step is
    Gaussian rational arithmetic on fractions.Fraction, and only the four
    entries of the result are rounded, so no root of p at or near the origin
    needs deflating. Returns ((s00, s01), (s10, s11)) as Python complex.
    Raises ZeroDivisionError where p(k) is exactly zero.
    """
    t00, t01, t10, t11 = (_gauss(T[i][j]) for i in range(2) for j in range(2))
    one = (1, 0)
    ik = _gauss(1j * complex(k))  # exact: multiplying by 1j only swaps parts
    theta = 2 + 2 * ik[0], 2 * ik[1]
    D = _gsub(_gmul(t00, t11), _gmul(t01, t10))
    # p = det(sigma0 - theta T)
    p = _gsub(
        _gmul(_gsub(one, _gmul(theta, t00)), _gsub(one, _gmul(theta, t11))),
        _gmul(_gmul(theta, theta), _gmul(t01, t10)),
    )
    f = _gdiv((4 * ik[0], 4 * ik[1]), p)
    theta_d = _gmul(theta, D)
    s00, s01, s10, s11 = (
        _gmul(f, x) for x in (_gsub(t00, theta_d), t01, t10, _gsub(t11, theta_d))
    )
    s00, s11 = (s00[0] + 1, s00[1]), (s11[0] + 1, s11[1])
    return tuple(
        (complex(float(a[0]), float(a[1])), complex(float(b[0]), float(b[1])))
        for a, b in ((s00, s01), (s10, s11))
    )


def exact_quotient(a, b):
    """a / b for complex floats a and a nonzero b, exact, then rounded to complex."""
    q = _gdiv(_gauss(a), _gauss(b))
    return complex(float(q[0]), float(q[1]))


def _decimal(x):
    """The Fraction x as a Decimal, rounded to the context precision."""
    return Decimal(x.numerator) / Decimal(x.denominator)


def _decimal_sqrt(x, y):
    """Principal square root of x + iy for Decimals x and y, as a pair of Decimals."""
    if not x and not y:
        return Decimal(0), Decimal(0)
    r = (x * x + y * y).sqrt()
    # take the part that does not cancel from r +- x, the other from y
    if x >= 0:
        re = ((r + x) / 2).sqrt()
        return re, y / (2 * re)
    im = ((r - x) / 2).sqrt()
    if y < 0:
        im = -im
    return y / (2 * im), im


def exact_invariants(T):
    """(gamma0, xi^2, det T, x, bc) of the binary values of T, as exact Gaussian rationals.

    For T = [[a, b], [c, d]], x = (a - d) / 2 and x^2 and bc are the terms
    that xi^2 = x^2 + bc = gamma1^2 + gamma2^2 + gamma3^2 cancels. Each value
    is a pair (re, im) of fractions.Fraction.
    """
    t00, t01, t10, t11 = (_gauss(T[i][j]) for i in range(2) for j in range(2))
    half = Fraction(1, 2)
    g0 = (half * (t00[0] + t11[0]), half * (t00[1] + t11[1]))
    x = (half * (t00[0] - t11[0]), half * (t00[1] - t11[1]))
    bc = _gmul(t01, t10)
    xi2 = tuple(map(sum, zip(_gmul(x, x), bc)))
    return g0, xi2, _gsub(_gmul(g0, g0), xi2), x, bc


def exact_poles(T):
    """Roots k of p for the binary values of T, as Python complex.

    gamma0, xi^2 and D = det T are exact (exact_invariants). When D = 0,
    p = 1 - 2 gamma0 theta and its root theta = 1 / (2 gamma0), if gamma0 is
    nonzero, is exact. Otherwise xi is taken to 60 significant digits with
    decimal, and the roots theta = w / D and 1 / w, with w the larger of
    gamma0 +- xi, carry no cancellation. Each root k = i(1 - theta / 2) is
    rounded once to the nearest float parts; a root beyond the float range
    has infinite parts.
    """
    g0, xi2, D, _, _ = exact_invariants(T)
    if D == (0, 0):
        if g0 == (0, 0):
            return []
        theta = _gdiv((1, 0), (2 * g0[0], 2 * g0[1]))
        return [complex(float(theta[1] / 2), float(1 - theta[0] / 2))]
    with localcontext() as ctx:
        ctx.prec = 60
        g0, xi2, D = ((_decimal(x[0]), _decimal(x[1])) for x in (g0, xi2, D))
        xi = _decimal_sqrt(*xi2)
        plus = g0[0] + xi[0], g0[1] + xi[1]
        minus = g0[0] - xi[0], g0[1] - xi[1]
        w = max(plus, minus, key=lambda z: z[0] * z[0] + z[1] * z[1])
        roots = []
        for num, den in ((w, D), ((Decimal(1), Decimal(0)), w)):
            norm = den[0] * den[0] + den[1] * den[1]
            theta_re = (num[0] * den[0] + num[1] * den[1]) / norm
            theta_im = (num[1] * den[0] - num[0] * den[1]) / norm
            # k = i (1 - theta / 2)
            roots.append(complex(float(theta_im / 2), float(1 - theta_re / 2)))
    return roots


def xi_from_abcd(a, b, c, d):
    """Normalization Xi = 4 - (ad - bc) + 2(a - d) of the couplings."""
    return 4 - (a * d - b * c) + 2 * (a - d)


def gamma_from_abcd(a, b, c, d):
    """Pauli coefficients of the boundary matrix, straight from (a, b, c, d).

    Independent of the matrix assembly in Interaction.from_abcd; used to
    cross-check it. Callers keep the normalization Xi away from zero.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    xi = xi_from_abcd(a, b, c, d)
    g0 = (xi - 2 * (a + d)) / (4 * xi)
    g1 = (4 + (a * d - b * c)) / (4 * xi)
    g2 = -1j * (b - c) / (2 * xi)
    g3 = (b + c) / (2 * xi)
    return PauliVector(g0, g1, g2, g3)


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Reflection and transmission data at a fixed k.

    r_right, t_right come from the wave sent in from +infinity, r_left and
    t_left from -infinity. phase is the ratio 2(1 - i conj(k)) / (2(1 + ik))
    and delta_k the associated 2x2 determinant combination.
    """

    r_right: complex
    t_right: complex
    r_left: complex
    t_left: complex
    delta_k: complex
    phase: complex


def scattering_coefficients(interaction, k):
    """Reflection/transmission coefficients of the interaction at k.

    Parameters
    ----------
    interaction : Interaction
    k : complex
        Needs a nonvanishing real part; the incoming/outgoing exponentials
        degenerate on the imaginary axis.

    Raises
    ------
    OnImaginaryAxis
        If Re k vanishes within tolerance.
    DegenerateSystem
        If the boundary-condition system is singular, which happens exactly
        at poles of S.
    """
    k = complex(k)
    tol = base_tol()
    if abs(k.real) <= tol * (1 + abs(k)):
        raise OnImaginaryAxis(f"coefficients undefined for k = {k}")
    T = interaction.matrix
    theta = 2 * (1 + 1j * k)
    theta_bar = 2 * (1 - 1j * k.conjugate())
    A = theta * T - SIGMA0
    det_a = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    D = T[0, 0] * T[1, 1] - T[0, 1] * T[1, 0]
    if abs(det_a) <= tol * (1 + abs(k) ** 2) * max(1.0, abs(D)):
        raise DegenerateSystem(f"boundary system singular at k = {k}")
    sol = np.linalg.solve(A, SIGMA0 - theta_bar * T)
    r_right, t_right = sol[0, 0], sol[1, 0]
    t_left, r_left = sol[0, 1], sol[1, 1]
    phase = theta_bar / theta
    delta_k = (r_right + phase) * (r_left + phase) - t_right * t_left
    return ScatteringCoefficients(r_right, t_right, r_left, t_left, delta_k, phase)


def smatrix_from_coefficients(coeffs, k):
    """Reassemble S(k) from reflection/transmission coefficients.

    Inverse of the map behind scattering_coefficients; subject to the same
    imaginary-axis restriction.
    """
    k = complex(k)
    tol = base_tol()
    if abs(k.real) <= tol * (1 + abs(k)):
        raise OnImaginaryAxis(f"reconstruction undefined for k = {k}")
    shift = 1j * k.imag / k
    m = np.array(
        [
            [coeffs.r_right + shift, coeffs.t_left],
            [coeffs.t_right, coeffs.r_left + shift],
        ],
        dtype=complex,
    )
    return -(k / k.real) * m


def similarity_integral_probe(interaction, epsilon, xi_range, n=200001):
    """The similarity probe with its integrand built on all nodes at once.

    The same ufuncs in the same order as the chunked package version, on
    probe-sized arrays: k = sqrt(xi + i eps) in real arithmetic from numpy's
    complex abs of z, the integrand (slope |k 2^-e' - r'|^2 + A) /
    (Im k |k + i|^2 prod |k 2^-e - r|^2) on the roots of p's factors and of
    p', with the scalars of the package's _integrand_scalars, and Simpson's
    rule as h / 3 times the sum of y0 + 4 y1 + y2 over node triples, on the
    nodes of np.linspace, and the pole test of each factor of p on every
    node. The two must return the same float, or both raise AtEigenvalue.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n < 16:
        raise ValueError("need at least 16 quadrature nodes")
    n = probe_nodes(n)
    s = build(interaction)
    lo, hi = xi_range
    xi = np.linspace(lo, hi, n)
    # eps / (2t) + it where xi < 0, t + i eps / (2t) where xi > 0, t + it at 0
    abs_z = np.abs(xi + 1j * epsilon)
    t = np.sqrt(0.5 * abs_z + 0.5 * np.abs(xi))
    other = np.where(xi == 0, t, 0.5 * epsilon / t)
    re, im = np.where(xi < 0, other, t), np.where(xi < 0, t, other)
    k = re + 1j * im
    # each factor 1 - theta_k lam of p, (1 - 2 lam) - 2i lam k, against the size of its terms, with the
    # eigenvalues lam decided on numpy scalars, apart from the package's record
    for lam, _ in numpy_factors(interaction.matrix, s.tol)[2]:
        if (np.abs((1 - 2 * lam) - 2j * lam * k) / (1 + 2 * abs(lam) * (1 + np.abs(k))) <= s.tol).any():
            raise AtEigenvalue("sweep line passes through a pole")
    t00, t01, t10, t11 = s.interaction._entries
    C = np.square(np.abs(np.subtract(t00, t11))) + 2 * (np.square(np.abs(t01)) + np.square(np.abs(t10)))
    roots, slope, root_dp, A = _integrand_scalars(s._eigenvalues, C)

    def distance2(e, r):  # |k 2^-e - r|^2 from its parts
        x, y = (re * math.ldexp(1.0, -e), im * math.ldexp(1.0, -e)) if e else (re, im)
        return np.square(x - r.real) + np.square(y - r.imag)

    # |k + i|^2 = |k|^2 + 1 + 2 Im k with |k|^2 = |z|
    den = ((abs_z + 1) + 2 * im) * im
    for e, r in roots:
        den = den * distance2(e, r)
    if slope:
        num = distance2(*root_dp)
        integrand = ((num if slope == 1 else num * slope) + A) / den
    else:
        integrand = A / den
    h = (hi - lo) / (n - 1)
    return float(epsilon * (h / 3 * np.sum(integrand[0:-1:2] + 4 * integrand[1::2] + integrand[2::2])))


def direct_solve_probe(interaction, epsilon, xi_range, n=200001):
    """The similarity probe from the boundary conditions, solved node by node.

    At each node k = sqrt(xi + i eps) by numpy's complex sqrt. The test
    function e^{-|x|} on one half-line has F g = i / (k + i) e_j; the
    boundary coefficients solve (I - theta T) c = 2 T F g, and the
    difference has squared norm |c|^2 / (2 Im k). The nodes are summed with
    Simpson's weights h / 3 (1, 4, 2, 4, ..., 2, 4, 1) in one dot product.
    """
    n = probe_nodes(n)
    T = interaction.matrix
    lo, hi = xi_range
    xi = np.linspace(lo, hi, n)
    k = np.sqrt(xi + 1j * epsilon)
    theta = 2 * (1 + 1j * k)
    system = SIGMA0 - theta[:, None, None] * T
    # column j of c (k + i) / i solves for 2 T e_j; |k + i|^2 divides last,
    # as |i / (k + i)|^2 is subnormal where |k| nears 1e154
    c = np.linalg.solve(system, np.broadcast_to(2 * T, system.shape))
    norms2 = np.sum(np.abs(c) ** 2, axis=(1, 2)) / (2 * k.imag) / np.abs(k + 1j) ** 2
    weights = np.full(n, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return float(epsilon * (hi - lo) / (n - 1) / 3 * np.dot(weights, norms2))


def _decimal_pair(z):
    """The complex float z as a pair of Decimals, exact."""
    z = complex(z)
    return Decimal(z.real), Decimal(z.imag)


def _abs2(z):
    return z[0] * z[0] + z[1] * z[1]


def _decimal_m_and_p(t, k):
    """The entries of M = T - theta_k D sigma0 and p(k) = det(sigma0 - theta_k T), as Decimal pairs.

    t holds the entries t00, t01, t10, t11 of T and k the point, as Decimal
    pairs; every step rounds to the context precision.
    """
    t00, t01, t10, t11 = t
    one, theta = (Decimal(1), Decimal(0)), (2 - 2 * k[1], 2 * k[0])  # theta_k = 2 (1 + ik)
    theta_d = _gmul(theta, _gsub(_gmul(t00, t11), _gmul(t01, t10)))
    p = _gsub(
        _gmul(_gsub(one, _gmul(theta, t00)), _gsub(one, _gmul(theta, t11))), _gmul(_gmul(theta, theta), _gmul(t01, t10))
    )
    return (_gsub(t00, theta_d), t01, t10, _gsub(t11, theta_d)), p


def decimal_resolvent_norm(T, k, g):
    """resolvent_diff_norm(T, k, g) for an exponential g, in 60-digit decimal, rounded once.

    The module docstring of zrs.resolvent gives the squared norm as
    (1 / Im k) |W M F g|^2 / |p(k)|^2 with M = T - theta_k D sigma0 and
    W = sigma0 + i sigma2, which doubles squared norms. F g is
    i / (k - conj(g.k)) on g's own half-line. T, k and g.k are taken at
    their binary values; p is the determinant of sigma0 - theta_k T from
    the entries, not its factors or coefficients.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        k, kg = _decimal_pair(k), _decimal_pair(g.k)
        m, p = _decimal_m_and_p([_decimal_pair(T[i][j]) for i in range(2) for j in range(2)], k)
        f2 = 1 / _abs2((k[0] - kg[0], k[1] + kg[1]))  # |F g|^2 = 1 / |k - conj(g.k)|^2
        column = (m[0], m[2]) if g.kind is TestFunctionKind.PLUS_EXPONENTIAL else (m[1], m[3])
        return float((2 * f2 * (_abs2(column[0]) + _abs2(column[1])) / (k[1] * _abs2(p))).sqrt())


def decimal_probe(T, epsilon, xi_range, n):
    """The similarity probe in 60-digit decimal on the probe's own nodes and Simpson weights, rounded once.

    At each node xi of np.linspace(lo, hi, probe_nodes(n)), a binary value,
    k = sqrt(xi + i eps) by _decimal_sqrt, and the integrand is the two
    unit-rate exponentials' squared norms of the resolvent difference
    summed, 2 |M|_F^2 / (Im k |p(k)|^2 |k + i|^2) with M and p as in
    decimal_resolvent_norm. The sum eps h / 3 sum (y0 + 4 y1 + y2) takes h
    as the probe's float (hi - lo) / (n - 1), so quadrature error drops out
    and only the probe's arithmetic is judged. Standard library only, but
    for the nodes.
    """
    n = probe_nodes(n)
    lo, hi = float(xi_range[0]), float(xi_range[1])
    with localcontext() as ctx:
        ctx.prec = 60
        t = [_decimal_pair(T[i][j]) for i in range(2) for j in range(2)]
        eps, total = Decimal(epsilon), Decimal(0)
        for index, xi in enumerate(np.linspace(lo, hi, n).tolist()):
            k = _decimal_sqrt(Decimal(xi), eps)
            m, p = _decimal_m_and_p(t, k)
            y = 2 * sum(map(_abs2, m)) / (k[1] * _abs2(p) * _abs2((k[0], k[1] + 1)))
            total += y if index in (0, n - 1) else 4 * y if index % 2 else 2 * y
        return float(eps * Decimal((hi - lo) / (n - 1)) / 3 * total)


def abcd_numerators(a, b, c, d):
    """The four float numerators of the boundary matrix of the couplings, and 4 Xi.

    Interaction.from_abcd divides each numerator by 4 Xi. Callers keep the
    normalization Xi away from zero.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    xi = xi_from_abcd(a, b, c, d)
    det = a * d - b * c
    numerators = [
        [xi + 2 * (b + c - a - d), 4 + det - 2 * (b - c)],
        [4 + det + 2 * (b - c), xi - 2 * (b + c + a + d)],
    ]
    return numerators, 4 * xi


def numpy_compose(x):
    """The 2x2 array x0*sigma0 + x1*sigma1 + x2*sigma2 + x3*sigma3."""
    x0, x1, x2, x3 = x
    return np.array([[x0 + x3, x1 - 1j * x2], [x1 + 1j * x2, x0 - x3]], dtype=complex)


def numpy_decompose(m):
    """Pauli coefficients of a 2x2 matrix, as numpy complex128 scalars."""
    m = np.asarray(m, dtype=complex)
    x0 = (m[0, 0] + m[1, 1]) / 2
    x1 = (m[0, 1] + m[1, 0]) / 2
    x2 = 1j * (m[0, 1] - m[1, 0]) / 2
    x3 = (m[0, 0] - m[1, 1]) / 2
    return PauliVector(x0, x1, x2, x3)


def numpy_factors(T, tol):
    """(det_t, p_coeffs, factors) of SMatrixFn, computed on numpy scalars.

    factors are (lam, multiplicity) for each factor 1 - theta_k lam of p that
    SMatrixFn records, lam exactly 0.5 where it is snapped to the origin.
    T is a 2x2 array. The decisions are SMatrixFn's, taken on numpy
    complex128 scalars from the entries: det T, the trace and
    xi^2 = x^2 + bc vanish against the terms they cancel; a double
    eigenvalue, D / gamma0, where T is scalar or xi^2 vanishes, and none
    where gamma0 is 0; the float range of each root theta and the origin
    test |1 - 2 lam| of each eigenvalue lam. Where |x^2| + |bc| is below
    1e-290, xi^2 and xi are taken again on T divided by a power of two near
    |x| + sqrt(|bc|), with bc exactly 0 where b or c is. Callers keep the
    characteristic data finite.
    """
    a, b, c, d = np.asarray(T, dtype=complex).ravel()
    g0, x = (a + d) / 2, (a - d) / 2
    # the package's Python complex arithmetic overflows quietly to inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        D = a * d - b * c
        c0, c1, c2 = (1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D)
        scalar = max(abs(x), abs(b), abs(c)) <= 100 * tol * max(abs(a), abs(b), abs(c), abs(d))
        e, xe2, bc = 1.0, x * x, b * c
        if abs(xe2) + abs(bc) < 1e-290:
            e = np.ldexp(1.0, np.frexp(abs(x) + np.sqrt(abs(b)) * np.sqrt(abs(c)))[1])
            xe2, bc = (x / e) * (x / e), (b / e) * (c / e) if b and c else bc
        if abs(D) <= 100 * tol * (abs(a * d) + abs(b * c)):
            lams = [] if abs(a + d) <= 100 * tol * (abs(a) + abs(d)) else [(a + d, 1 / complex(a + d), 1)]
        elif scalar or abs(xe2 + bc) <= 100 * tol * (abs(xe2) + abs(bc)):
            lams = [(D / g0, complex(g0) / complex(D), 2)] if g0 else []
        else:
            xi = e * np.sqrt(xe2 + bc)
            w = g0 + xi if abs(g0 + xi) >= abs(g0 - xi) else g0 - xi
            lams = [(D / w, complex(w) / complex(D), 1), (w, 1 / complex(w), 1)]
        # a root theta with a part past 1e154 gives no root; theta is taken with Python's complex
        # division, which numpy's differs from where a divisor is subnormal
        lams = [(lam, mult) for lam, theta, mult in lams if max(abs(theta.real), abs(theta.imag)) < 1e154]
        lams = [(0.5 if abs(1 - 2 * lam) <= 100 * tol else lam, mult) for lam, mult in lams]
    return D, (c0, c1, c2), lams


def numpy_characteristic(T, tol):
    """(det_t, p_coeffs, roots) of SMatrixFn, computed on numpy scalars.

    The roots of numpy_factors(T, tol): the multiplicities, order and origin
    snaps are those of SMatrixFn.roots; their locations, i (1 - 1 / (2 lam)),
    are not.
    """
    D, coeffs, lams = numpy_factors(T, tol)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        roots = [(0j if lam == 0.5 else 1j * (1 - 1 / (2 * lam)), mult) for lam, mult in lams]
    if len(roots) == 2 and roots[0] == roots[1] == (0j, 1):
        roots = [(0j, 2)]
    return D, coeffs, tuple(roots)


def numpy_nilpotent(T, theta, tol):
    """Whether N = sigma0 - theta T is nonzero with N^2 = 0, with N @ N on 2x2 arrays.

    N^2 is taken on N / |N| (max-entry norm) and is zero where at most
    1000 tol. At a double root theta of p of a non-scalar T, N is nonzero and
    nilpotent: a test that an order-two pole of S is an exceptional point.
    """
    T = np.asarray(T, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, as the package's Python complex gives
        N = SIGMA0 - theta * T
        nmax = np.abs(N).max()
        scale = 1 + np.abs(T).max() * abs(theta)
    if not nmax > 100 * tol * scale:
        return False
    N = N / nmax
    return bool(np.abs(N @ N).max() <= 1000 * tol * (1 + tol * scale / nmax) ** 2)
