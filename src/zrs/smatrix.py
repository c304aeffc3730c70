"""The scattering matrix S(k) attached to a point interaction.

With theta_k = 2(1 + ik) and D = det of the boundary matrix T, the matrix

    S(k) = sigma0 + 4ik (T - theta_k D sigma0) / p(k),
    p(k) = det(sigma0 - theta_k T) = D theta_k^2 - 2 gamma0 theta_k + 1

is meromorphic in k with at most two finite poles (roots of p). A root of p
at the origin is cancelled by the explicit k factor in the numerator, so the
evaluator deflates it instead of reporting a pole there.
"""

import cmath

from .errors import AtPole, NotRepresentable
from . import pauli
from .pauli import PauliVector, _div, _modulus, _sqrt, _square, compose, det_pauli
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
    constant : bool
        Whether S(k) does not depend on k (see is_constant).
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
        # Python complex arithmetic overflows quietly to inf and NaN
        self.det_t = D = det_pauli(self.gamma)
        self.p_coeffs = c0, c1, c2 = (1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D)
        disc = c1 * c1 - 4 * c2 * c0
        if not all(map(cmath.isfinite, (D, c0, c1, c2, disc))):
            raise NotRepresentable(f"characteristic polynomial of {interaction!r} overflows")
        # Past that check each gamma_j has a finite square and 4 c2 c0 is
        # finite, so |gamma_j| and |c1| are below 2e154 and |c0|, |c2| below
        # 7e307: their moduli are floats. disc, xi2, their products and the
        # squared scales can exceed the float range and go through _modulus
        # and _square, which give inf there.
        xi2 = g1 * g1 + g2 * g2 + g3 * g3
        self.xi = _sqrt(xi2)

        a0, a1, a2 = abs(c0), abs(c1), abs(c2)
        origin_root = a0 <= 100 * tol * max(1.0, a1, a2)
        simple_origin = a1 > 100 * tol * max(1.0, a2)
        self.scalar = max(abs(g1), abs(g2), abs(g3)) <= 100 * tol * max(1.0, abs(g0))
        self.constant = _constant_family(interaction._entries, g0, xi2, tol) is not None
        self._term_sizes = max(1.0, a0), a1, a2
        if a2 > 100 * tol * max(1.0, a0, a1):
            self.degree = 2
            # A double root needs disc to vanish at the scale of the
            # coefficients, and the residue N = sigma0 - theta T at the merged
            # root theta = g0 / D to pass the nilpotency test of
            # classifier.exceptional_points, |N^2| <= 100 tol (1 + |N|)^2.
            # With disc = -16 xi2, N = -(xi2 sigma0 + g0 gamma.sigma) / D and
            # N^2 = xi2 ((xi2 + g0^2) sigma0 + 2 g0 gamma.sigma) / D^2, so that
            # test is a second bound on |disc| / 16 = |xi2|, taken on xi2
            # itself, which carries no cancellation error.
            if _modulus(disc) <= 100 * tol * _square(max(1.0, a0, a1, a2)) and (
                _modulus(xi2) * _max_entry(xi2 + g0 * g0, 2 * g0 * g1, 2 * g0 * g2, 2 * g0 * g3)
                <= 100 * tol * _square(abs(D) + _max_entry(xi2, g0 * g1, g0 * g2, g0 * g3))
            ):
                double = 0j if origin_root and not simple_origin else _div(-c1, 2 * c2)
                self.roots = ((double, 2),)
            else:
                sq = _sqrt(disc)
                # pick the larger numerator so neither root loses precision
                q = -(c1 + sq) / 2 if abs(c1 + sq) >= abs(c1 - sq) else -(c1 - sq) / 2
                # q = 0 needs c1 = sq = 0, where c2 c0 = 0 puts a root at the origin
                self.roots = ((_div(q, c2), 1), (0j if origin_root else _div(c0, q), 1))
        elif a1 > 100 * tol * max(1.0, a0):
            self.degree = 1
            self.roots = ((0j if origin_root else _div(-c0, c1), 1),)
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
        returned instead. Raises ValueError when S(k) is not finite, as
        theta_k D, p(k) or their products overflow from |k| of about 1e154.
        """
        import numpy as np

        k = complex(k)
        try:
            with np.errstate(all="ignore"):  # an overflow is reported once, below
                s = self._evaluate(k)
        except OverflowError:  # abs(k) in a pole test, past the float range
            s = None
        if s is None or not all(map(cmath.isfinite, s.flat)):
            raise ValueError(f"S(k) leaves the float range at k = {k}")
        return s

    def _evaluate(self, k):
        SIGMA0 = pauli.SIGMA0  # an ndarray, made (with numpy) on first access
        tol = self.tol
        c0, c1, c2 = self.p_coeffs
        D = self.det_t
        theta_k = 2 * (1 + 1j * k)
        num = 4j * (self.interaction.matrix - theta_k * D * SIGMA0)
        structure = self.origin_structure
        if structure == _NO_ORIGIN_ROOT:
            pk = c0 + (c1 + c2 * k) * k
            if self._near_root(_modulus(pk), _modulus(k)):
                raise AtPole(f"p({k}) = {pk} within tolerance of zero")
            return SIGMA0 + k * num / pk
        if structure == _SIMPLE_ORIGIN_ROOT:
            q = c1 + c2 * k
            if _modulus(q) <= tol * (1 + abs(k)) * max(1.0, abs(c1), abs(c2)):
                raise AtPole(f"deflated denominator vanishes at k = {k}")
            return SIGMA0 + num / q
        if structure == _SCALAR_DOUBLE:
            return SIGMA0 * (1 + _div(8 * D, c2))
        q = c2 * k
        if _modulus(q) <= tol * (1 + abs(k)) * max(1.0, abs(c2)):
            raise AtPole(f"simple pole at the origin, k = {k}")
        return SIGMA0 + num / q

    def _near_root(self, abs_p, abs_k):
        """Whether |p(k)| is within tolerance of zero, on floats or arrays alike.

        |p(k)| is measured against the size of p's terms at |k|, so a root is
        told apart at the same relative precision at any |k| and any degree
        of p; a |p(k)| that overflows to inf is not near a root.
        """
        t0, t1, t2 = self._term_sizes
        return abs_p / (t0 + t1 * abs_k + t2 * abs_k * abs_k) <= self.tol

    def is_constant(self):
        """Whether S(k) does not depend on k.

        Returns (True, constant matrix) or (False, None). Exactly three
        families are constant: the zero boundary matrix (S = sigma0), the
        half-identity (S = -sigma0), and gamma0 = 1/4 with the space part
        of gamma squaring to 1/16 (S = sigma0 - 4T). The flag is `constant`;
        the matrix is made here.
        """
        if not self.constant:
            return False, None
        g0, g1, g2, g3 = self.gamma
        family = _constant_family(self.interaction._entries, g0, g1 * g1 + g2 * g2 + g3 * g3, self.tol)
        if family == _ZERO:
            return True, pauli.SIGMA0.copy()
        if family == _HALF_IDENTITY:
            return True, -pauli.SIGMA0
        return True, compose(PauliVector(0j, -4 * g1, -4 * g2, -4 * g3))


_ZERO = "zero"
_HALF_IDENTITY = "half-identity"
_TILTED = "tilted"


def _constant_family(entries, g0, xi2, tol):
    """The constant-S family of SMatrixFn.is_constant the matrix is in at tol, or None.

    entries are those of the boundary matrix, g0 its gamma0 and xi2 the
    square gamma1^2 + gamma2^2 + gamma3^2 of its space part.
    """
    a, b, c, d = entries
    # both scalar families have vanishing off-diagonal entries
    if max(abs(b), abs(c)) <= tol:
        if max(abs(a), abs(d)) <= tol:
            return _ZERO
        if max(abs(a - 0.5), abs(d - 0.5)) <= tol:
            return _HALF_IDENTITY
    if abs(g0 - 0.25) <= tol and _modulus(xi2 - 0.0625) <= tol:
        return _TILTED
    return None


def _max_entry(x0, x1, x2, x3):
    """Largest entry modulus of the matrix with Pauli coefficients (x0, x1, x2, x3)."""
    return max(_modulus(x0 + x3), _modulus(x0 - x3), _modulus(x1 - 1j * x2), _modulus(x1 + 1j * x2))


def build(interaction):
    """S-matrix function for an interaction."""
    return SMatrixFn(interaction)
