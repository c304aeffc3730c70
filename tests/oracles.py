"""Independent routes to the package's quantities, kept as test references.

Each function here reaches a quantity that zrs computes one way by a second,
separate route, so the tests can cross-check the package against it:

* pauli_components(s, k): the Pauli coefficients of S(k) from the factored
  characteristic roots, against SMatrixFn.evaluate;
* gamma_from_abcd(a, b, c, d): the Pauli coefficients of the boundary matrix
  straight from the couplings, against Interaction.from_abcd;
* scattering_coefficients and smatrix_from_coefficients: S(k) solved from
  the boundary conditions as reflection and transmission data and
  reassembled, against SMatrixFn.evaluate.
"""

from dataclasses import dataclass

import numpy as np

from zrs.errors import AtPole, ZrsError
from zrs.interaction import PotentialABCD
from zrs.pauli import SIGMA0, PauliVector, det_pauli
from zrs.tolerances import base_tol


class DegenerateSystem(ZrsError):
    """Linear system for reflection/transmission coefficients is singular."""


class OnImaginaryAxis(ZrsError):
    """Reflection/transmission coefficients undefined for purely imaginary k."""


def pauli_components(s, k):
    """Pauli coefficients of S(k), from the factored characteristic roots.

    Independent of s.evaluate(): uses the theta-root product when the
    determinant path is available and the raw polynomial otherwise.
    """
    k = complex(k)
    tol = s.tol
    g0, g1, g2, g3 = s.gamma
    D = s.det_t
    theta_k = 2 * (1 + 1j * k)
    c0, c1, c2 = s.p_coeffs
    structure = s.origin_structure
    if structure == "scalar":
        return PauliVector(1 + 8 * D / c2, 0j, 0j, 0j)
    if structure == "simple":
        q = c1 + c2 * k
        if abs(q) <= tol * (1 + abs(k)) * max(1.0, abs(c1), abs(c2)):
            raise AtPole(f"deflated denominator vanishes at k = {k}")
        f = 4j / q
        return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)
    if structure == "double":
        q = c2 * k
        if abs(q) <= tol * (1 + abs(k)) * max(1.0, abs(c2)):
            raise AtPole(f"simple pole at the origin, k = {k}")
        f = 4j / q
        return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)
    if s.theta_plus is not None and s.theta_minus is not None:
        denom = (theta_k - s.theta_plus) * (theta_k - s.theta_minus)
        # p = D * denom in this branch
        if abs(D * denom) <= tol * (1 + abs(k) ** 2) * max(1.0, abs(D)):
            raise AtPole(f"p({k}) within tolerance of zero")
        tt = s.theta_plus * s.theta_minus
        f = 4j * k / denom
        return PauliVector(
            1 + f * (tt * g0 - theta_k), f * tt * g1, f * tt * g2, f * tt * g3
        )
    pk = c0 + (c1 + c2 * k) * k
    if abs(pk) <= tol * (1 + abs(k) ** 2) * max(1.0, abs(D)):
        raise AtPole(f"p({k}) = {pk} within tolerance of zero")
    f = 4j * k / pk
    return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)


def gamma_from_abcd(a, b, c, d):
    """Pauli coefficients of the boundary matrix, straight from (a, b, c, d).

    Independent of the matrix assembly in Interaction.from_abcd; used to
    cross-check it. Callers keep the normalization Xi away from zero.
    """
    p = PotentialABCD(complex(a), complex(b), complex(c), complex(d))
    xi = p.xi
    g0 = (xi - 2 * (p.a + p.d)) / (4 * xi)
    g1 = (4 + p.det) / (4 * xi)
    g2 = -1j * (p.b - p.c) / (2 * xi)
    g3 = (p.b + p.c) / (2 * xi)
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
    D = det_pauli(interaction.gamma)
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
