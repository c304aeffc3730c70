"""The scattering matrix S(k) attached to a point interaction.

With theta_k = 2(1 + ik) and D = det of the boundary matrix T, the matrix

    S(k) = sigma0 + 4ik (T - theta_k D sigma0) / p(k),
    p(k) = det(sigma0 - theta_k T) = D theta_k^2 - 2 gamma0 theta_k + 1

is meromorphic in k with at most two finite poles (roots of p). A root of p
at the origin is cancelled by the explicit k factor in the numerator, so the
evaluator deflates it instead of reporting a pole there.
"""

import cmath

import numpy as np

from .errors import AtPole, NotRepresentable
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

    Raises
    ------
    NotRepresentable
        If det T, the coefficients of p or its discriminant overflow.
    """

    def __init__(self, interaction):
        self.interaction = interaction
        self.gamma = interaction.gamma
        g0, g1, g2, g3 = self.gamma
        self.tol = tol = base_tol()
        with np.errstate(over="ignore", invalid="ignore"):
            self.det_t = D = det_pauli(self.gamma)
            self.p_coeffs = c0, c1, c2 = (1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D)
            disc = c1 * c1 - 4 * c2 * c0
        if not all(map(cmath.isfinite, (D, c0, c1, c2, disc))):
            raise NotRepresentable(f"characteristic polynomial of {interaction!r} overflows")
        xi2 = g1 * g1 + g2 * g2 + g3 * g3
        self.xi = np.sqrt(complex(xi2))
        scale = max(1.0, abs(g0), abs(self.xi))
        self.theta_plus = None
        self.theta_minus = None
        if abs(g0 + self.xi) > tol * scale:
            self.theta_plus = 1 / (g0 + self.xi)
        if abs(g0 - self.xi) > tol * scale:
            self.theta_minus = 1 / (g0 - self.xi)

        origin_root = abs(c0) <= 100 * tol * max(1.0, abs(c1), abs(c2))
        simple_origin = abs(c1) > 100 * tol * max(1.0, abs(c2))
        self.scalar = max(abs(g1), abs(g2), abs(g3)) <= 100 * tol * max(1.0, abs(g0))
        if abs(c2) > 100 * tol * max(1.0, abs(c0), abs(c1)):
            self.degree = 2
            # A double root needs disc to vanish at the scale of the
            # coefficients, and the residue N = sigma0 - theta T at the merged
            # root theta = g0 / D to pass the nilpotency test of
            # classifier.exceptional_points, |N^2| <= 100 tol (1 + |N|)^2.
            # With disc = -16 xi2, N = -(xi2 sigma0 + g0 gamma.sigma) / D and
            # N^2 = xi2 ((xi2 + g0^2) sigma0 + 2 g0 gamma.sigma) / D^2, so that
            # test is a second bound on |disc| / 16 = |xi2|, taken on xi2
            # itself, which carries no cancellation error.
            if abs(disc) <= 100 * tol * max(1.0, abs(c0), abs(c1), abs(c2)) ** 2 and (
                abs(xi2) * _max_entry(xi2 + g0 * g0, 2 * g0 * g1, 2 * g0 * g2, 2 * g0 * g3)
                <= 100 * tol * (abs(D) + _max_entry(xi2, g0 * g1, g0 * g2, g0 * g3)) ** 2
            ):
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


def _max_entry(x0, x1, x2, x3):
    """Largest entry modulus of the matrix with Pauli coefficients (x0, x1, x2, x3)."""
    return max(abs(x0 + x3), abs(x0 - x3), abs(x1 - 1j * x2), abs(x1 + 1j * x2))


def build(interaction):
    """S-matrix function for an interaction."""
    return SMatrixFn(interaction)
