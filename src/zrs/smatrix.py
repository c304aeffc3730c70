"""The scattering matrix S(k) attached to a point interaction.

With theta_k = 2(1 + ik) and D = det of the boundary matrix T, the matrix

    S(k) = sigma0 + 4ik (T - theta_k D sigma0) / p(k),
    p(k) = det(sigma0 - theta_k T) = D theta_k^2 - 2 gamma0 theta_k + 1

is meromorphic in k with at most two finite poles, the roots of p that
SMatrixFn.roots records and the classifier reports. A root of p at the origin
is cancelled by the explicit k factor in the numerator, so the evaluator
deflates it, by its multiplicity in roots, instead of reporting a pole there.
"""

import cmath

from .errors import AtPole, NotRepresentable
from . import pauli
from .pauli import _modulus, det_pauli
from .tolerances import base_tol

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
    roots : tuple
        (root, multiplicity) pairs of p in the k variable, leading
        coefficients below 100 tol dropped; a root at the origin is exactly
        0j. Two simple roots are found in theta, where neither cancels, and
        k = i(1 - theta/2): for hermitian T they lie exactly on the imaginary
        axis. The only record of the structure of p: the classifier reports
        its poles from it and evaluate deflates its origin root.
    thetas : tuple
        theta = 2(1 + ik) of each root, in the order of roots, as found (not
        from the rounded k): w / D and 1 / w, gamma0 / D for a double root,
        (1 - 4D) / (2 (gamma0 - 2D)) for a degree-one p, 2 at the origin. The
        certificate of exceptional points and cosh_chi_from_poles read it.
    scalar : bool
        Whether the boundary matrix is a multiple of sigma0.
    constant : bool
        Whether S(k) does not depend on k. Exactly three families are
        constant: the zero boundary matrix (S = sigma0), the half-identity
        (S = -sigma0), and gamma0 = 1/4 with the space part of gamma
        squaring to 1/16 (S = sigma0 - 4T).

    Raises
    ------
    NotRepresentable
        If det T or the coefficients of p overflow, from |T| of about 1e154.
    """

    def __init__(self, interaction):
        self.interaction = interaction
        self.gamma = interaction.gamma
        g0, g1, g2, g3 = self.gamma
        self.tol = tol = base_tol()
        # Python complex arithmetic overflows quietly to inf and NaN
        self.det_t = D = det_pauli(self.gamma)
        self.p_coeffs = c0, c1, c2 = (1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D)
        if not all(map(cmath.isfinite, (D, c0, c1, c2))):
            raise NotRepresentable(f"characteristic polynomial of {interaction!r} overflows")
        # past that check |gamma_j| < 2e154, but the moduli of c0, c1, c2 can overflow
        xi2 = g1 * g1 + g2 * g2 + g3 * g3
        self.xi = cmath.sqrt(xi2)

        a0, a1, a2 = _modulus(c0), _modulus(c1), _modulus(c2)
        origin_root = a0 <= 100 * tol * max(1.0, a1, a2)
        simple_origin = a1 > 100 * tol * max(1.0, a2)
        self.scalar = max(abs(g1), abs(g2), abs(g3)) <= 100 * tol * max(1.0, abs(g0))
        self.constant = _constant_family(interaction._entries, g0, xi2, tol)
        self._term_sizes = max(1.0, a0), a1, a2
        if a2 > 100 * tol * max(1.0, a0, a1):
            # At the merged root theta = g0 / D the residue N = sigma0 - theta T
            # is -(xi2 sigma0 + g0 gamma.sigma) / D and
            # N^2 = xi2 ((xi2 + g0^2) sigma0 + 2 g0 gamma.sigma) / D^2. The root
            # is double where |N^2| is at most 100 tol |N|^2 in the max-entry
            # norm, or where T is scalar. D cancels and both sides have degree 4
            # in gamma, so the test is taken on gamma / max |gamma_j|: it cannot
            # overflow and does not depend on the scale of T.
            m = max(abs(g0), abs(g1), abs(g2), abs(g3))
            h0, h1, h2, h3 = g0 / m, g1 / m, g2 / m, g3 / m
            q, p1, p2, p3 = h1 * h1 + h2 * h2 + h3 * h3, h0 * h1, h0 * h2, h0 * h3
            n2 = abs(q) * _max_entry(q + h0 * h0, 2 * p1, 2 * p2, 2 * p3)  # |N^2| |D|^2 / m^4
            if self.scalar or n2 <= 100 * tol * _max_entry(q, p1, p2, p3) ** 2:
                # k is -c1 / (2 c2) to the bit, without the factor 4 that can
                # overflow Python's complex division
                at_origin = origin_root and not simple_origin
                self.roots = ((0j if at_origin else 1j * (2 * D - g0) / D / 2, 2),)
                self.thetas = (2.0 if at_origin else g0 / D,)
            else:
                # In theta = 2(1 + ik), p = D theta^2 - 2 g0 theta + 1 has the
                # roots (g0 +- xi) / D = 1 / (g0 -+ xi). With w the larger of
                # g0 +- xi, w / D and 1 / w are those roots, and neither cancels.
                # An origin root is the one of smaller |k|.
                w = max(g0 + self.xi, g0 - self.xi, key=abs)
                t1, t2 = w / D, 1 / w
                k1, k2 = 1j * (1 - t1 / 2), 1j * (1 - t2 / 2)
                if abs(k1) < abs(k2):
                    k1, k2, t1, t2 = k2, k1, t2, t1
                if origin_root:
                    k2, t2 = 0j, 2.0
                self.roots, self.thetas = ((k1, 1), (k2, 1)), (t1, t2)
        elif a1 > 100 * tol * max(1.0, a0):
            self.roots = ((0j if origin_root else -c0 / c1, 1),)
            self.thetas = (2.0 if origin_root else (1 - 4 * D) / (2 * (g0 - 2 * D)),)
        else:
            self.roots = self.thetas = ()

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
        # multiplicity of the origin root, whose k factors p and the numerator share
        origin = sum(mult for root, mult in self.roots if root == 0j)
        if origin == 0:
            pk = c0 + (c1 + c2 * k) * k
            if self._near_root(_modulus(pk), _modulus(k)):
                raise AtPole(f"p({k}) = {pk} within tolerance of zero")
            return SIGMA0 + k * num / pk
        if origin == 1:
            q = c1 + c2 * k
            if _modulus(q) <= tol * (1 + abs(k)) * max(1.0, abs(c1), abs(c2)):
                raise AtPole(f"deflated denominator vanishes at k = {k}")
            return SIGMA0 + num / q
        if self.scalar:  # k (T - theta_k D sigma0) vanishes twice too: S is constant
            return SIGMA0 * (1 + 8 * D / c2)
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


def _constant_family(entries, g0, xi2, tol):
    """Whether the matrix is in a constant-S family of SMatrixFn.constant at tol.

    entries are those of the boundary matrix, g0 its gamma0 and xi2 the
    square gamma1^2 + gamma2^2 + gamma3^2 of its space part.
    """
    a, b, c, d = entries
    # both scalar families have vanishing off-diagonal entries
    if max(abs(b), abs(c)) <= tol:
        if max(abs(a), abs(d)) <= tol:
            return True
        if max(abs(a - 0.5), abs(d - 0.5)) <= tol:
            return True
    return abs(g0 - 0.25) <= tol and _modulus(xi2 - 0.0625) <= tol


def _max_entry(x0, x1, x2, x3):
    """Largest entry modulus of the matrix with Pauli coefficients (x0, x1, x2, x3)."""
    return max(abs(x0 + x3), abs(x0 - x3), abs(x1 - 1j * x2), abs(x1 + 1j * x2))


def build(interaction):
    """S-matrix function for an interaction."""
    return SMatrixFn(interaction)
