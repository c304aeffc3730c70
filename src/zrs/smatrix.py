"""The scattering matrix S(k) attached to a point interaction.

With theta_k = 2(1 + ik) and D = det of the boundary matrix T, the matrix

    S(k) = sigma0 + 4ik (T - theta_k D sigma0) / p(k),
    p(k) = det(sigma0 - theta_k T) = D theta_k^2 - 2 gamma0 theta_k + 1

is meromorphic in k with at most two finite poles (roots of p). A root of p
at the origin is cancelled by the explicit k factor in the numerator, so the
evaluator deflates it instead of reporting a pole there.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AtPole, DegenerateSystem, OnImaginaryAxis
from .pauli import SIGMA0, PauliVector, compose, det_pauli
from .tolerances import base_tol

# Structure of p at the origin: no root there, a simple root, a double root
# with scalar T (constant S), or a genuine double root.
_NO_ORIGIN_ROOT = "none"
_SIMPLE_ORIGIN_ROOT = "simple"
_SCALAR_DOUBLE = "scalar"
_DOUBLE_ORIGIN_ROOT = "double"


class SMatrixFn:
    """S(k) for a fixed interaction, with its characteristic data.

    Attributes
    ----------
    interaction : Interaction
    gamma : PauliVector
        Pauli coefficients of the boundary matrix.
    det_t : complex
        Determinant of the boundary matrix.
    xi : complex
        Principal square root of gamma1^2 + gamma2^2 + gamma3^2.
    theta_plus, theta_minus : complex or None
        Roots of p in the theta variable, 1/(gamma0 +- xi); None marks a
        root that has escaped to infinity (vanishing denominator).
    p_coeffs : tuple
        (c0, c1, c2) with p(k) = c0 + c1 k + c2 k^2.
    tol : float
        Base tolerance, read once when the function is built; every
        decision about the structure of p below is taken at it.
    degree : int
        Effective degree of p, leading coefficients below 100 tol dropped.
    roots : tuple
        (root, multiplicity) pairs of p in the k variable; a root at the
        origin is exactly 0j.
    scalar : bool
        Whether the boundary matrix is a multiple of sigma0.
    origin_structure : str
        Structure of p at the origin: "none", "simple", "scalar" (double
        root with scalar T, so S is constant) or "double".
    """

    def __init__(self, interaction):
        self.interaction = interaction
        self.gamma = interaction.gamma
        g0, g1, g2, g3 = self.gamma
        self.det_t = det_pauli(self.gamma)
        self.xi = np.sqrt(complex(g1 * g1 + g2 * g2 + g3 * g3))
        self.tol = tol = base_tol()
        scale = max(1.0, abs(g0), abs(self.xi))
        self.theta_plus = None
        self.theta_minus = None
        if abs(g0 + self.xi) > tol * scale:
            self.theta_plus = 1 / (g0 + self.xi)
        if abs(g0 - self.xi) > tol * scale:
            self.theta_minus = 1 / (g0 - self.xi)
        D = self.det_t
        self.p_coeffs = (1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D)
        c0, c1, c2 = self.p_coeffs

        origin_root = abs(c0) <= 100 * tol * max(1.0, abs(c1), abs(c2))
        simple_origin = abs(c1) > 100 * tol * max(1.0, abs(c2))
        self.scalar = max(abs(g1), abs(g2), abs(g3)) <= 100 * tol * max(1.0, abs(g0))
        if abs(c2) > 100 * tol * max(1.0, abs(c0), abs(c1)):
            self.degree = 2
            disc = c1 * c1 - 4 * c2 * c0
            if abs(disc) <= 100 * tol * max(1.0, abs(c0), abs(c1), abs(c2)) ** 2:
                double = 0j if origin_root and not simple_origin else -c1 / (2 * c2)
                self.roots = ((double, 2),)
            else:
                sq = np.sqrt(disc)
                # pick the larger numerator so neither root loses precision
                q = -(c1 + sq) / 2 if abs(c1 + sq) >= abs(c1 - sq) else -(c1 - sq) / 2
                self.roots = ((q / c2, 1), (0j if origin_root else c0 / q, 1))
        elif abs(c1) > 100 * tol * max(1.0, abs(c0)):
            self.degree = 1
            self.roots = ((0j if origin_root else -c0 / c1, 1),)
        else:
            self.degree = 0
            self.roots = ()

        if not origin_root:
            self.origin_structure = _NO_ORIGIN_ROOT
        elif simple_origin:
            self.origin_structure = _SIMPLE_ORIGIN_ROOT
        elif self.scalar:
            # c0 and c1 both vanish, so p = c2 k^2 with c2 away from zero
            # (all three coefficients cannot vanish together)
            self.origin_structure = _SCALAR_DOUBLE
        else:
            self.origin_structure = _DOUBLE_ORIGIN_ROOT

    def p(self, k):
        """Characteristic polynomial det(sigma0 - theta_k T) at k."""
        c0, c1, c2 = self.p_coeffs
        k = complex(k)
        return c0 + (c1 + c2 * k) * k

    def evaluate(self, k):
        """S(k) as a 2x2 ndarray.

        Raises AtPole when k is within tolerance of a genuine pole. At a
        root of p that is cancelled by the numerator the analytic limit is
        returned instead.
        """
        k = complex(k)
        tol = self.tol
        c0, c1, c2 = self.p_coeffs
        D = self.det_t
        theta_k = 2 * (1 + 1j * k)
        num = 4j * (self.interaction.matrix - theta_k * D * SIGMA0)
        structure = self.origin_structure
        if structure == _NO_ORIGIN_ROOT:
            pk = c0 + (c1 + c2 * k) * k
            if abs(pk) <= tol * (1 + abs(k) ** 2) * max(1.0, abs(D)):
                raise AtPole(f"p({k}) = {pk} within tolerance of zero")
            return SIGMA0 + k * num / pk
        if structure == _SIMPLE_ORIGIN_ROOT:
            q = c1 + c2 * k
            if abs(q) <= tol * (1 + abs(k)) * max(1.0, abs(c1), abs(c2)):
                raise AtPole(f"deflated denominator vanishes at k = {k}")
            return SIGMA0 + num / q
        if structure == _SCALAR_DOUBLE:
            return SIGMA0 * (1 + 8 * D / c2)
        q = c2 * k
        if abs(q) <= tol * (1 + abs(k)) * max(1.0, abs(c2)):
            raise AtPole(f"simple pole at the origin, k = {k}")
        return SIGMA0 + num / q

    def pauli_components(self, k):
        """Pauli coefficients of S(k), from the factored characteristic roots.

        Independent of evaluate(): uses the theta-root product when the
        determinant path is available and the raw polynomial otherwise.
        """
        k = complex(k)
        tol = self.tol
        g0, g1, g2, g3 = self.gamma
        D = self.det_t
        theta_k = 2 * (1 + 1j * k)
        c0, c1, c2 = self.p_coeffs
        structure = self.origin_structure
        if structure == _SCALAR_DOUBLE:
            return PauliVector(1 + 8 * D / c2, 0j, 0j, 0j)
        if structure == _SIMPLE_ORIGIN_ROOT:
            q = c1 + c2 * k
            if abs(q) <= tol * (1 + abs(k)) * max(1.0, abs(c1), abs(c2)):
                raise AtPole(f"deflated denominator vanishes at k = {k}")
            f = 4j / q
            return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)
        if structure == _DOUBLE_ORIGIN_ROOT:
            q = c2 * k
            if abs(q) <= tol * (1 + abs(k)) * max(1.0, abs(c2)):
                raise AtPole(f"simple pole at the origin, k = {k}")
            f = 4j / q
            return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)
        if self.theta_plus is not None and self.theta_minus is not None:
            denom = (theta_k - self.theta_plus) * (theta_k - self.theta_minus)
            # p = D * denom in this branch
            if abs(D * denom) <= tol * (1 + abs(k) ** 2) * max(1.0, abs(D)):
                raise AtPole(f"p({k}) within tolerance of zero")
            tt = self.theta_plus * self.theta_minus
            f = 4j * k / denom
            return PauliVector(
                1 + f * (tt * g0 - theta_k), f * tt * g1, f * tt * g2, f * tt * g3
            )
        pk = c0 + (c1 + c2 * k) * k
        if abs(pk) <= tol * (1 + abs(k) ** 2) * max(1.0, abs(D)):
            raise AtPole(f"p({k}) = {pk} within tolerance of zero")
        f = 4j * k / pk
        return PauliVector(1 + f * (g0 - theta_k * D), f * g1, f * g2, f * g3)

    def is_constant(self):
        """Whether S(k) does not depend on k.

        Returns (True, constant matrix) or (False, None). Exactly three
        families are constant: the zero boundary matrix (S = sigma0), the
        half-identity (S = -sigma0), and gamma0 = 1/4 with the space part
        of gamma squaring to 1/16 (S = sigma0 - 4T).
        """
        tol = self.tol
        T = self.interaction.matrix
        if np.abs(T).max() <= tol:
            return True, SIGMA0.copy()
        if np.abs(T - SIGMA0 / 2).max() <= tol:
            return True, -SIGMA0
        g0, g1, g2, g3 = self.gamma
        if (
            abs(g0 - 0.25) <= tol
            and abs(g1 * g1 + g2 * g2 + g3 * g3 - 0.0625) <= tol
        ):
            return True, compose(PauliVector(0j, -4 * g1, -4 * g2, -4 * g3))
        return False, None


def build(interaction):
    """S-matrix function for an interaction."""
    return SMatrixFn(interaction)


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
