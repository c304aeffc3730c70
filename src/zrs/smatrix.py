"""The scattering matrix S(k) attached to a point interaction.

With theta_k = 2(1 + ik) and D = det of the boundary matrix T, the matrix

    S(k) = sigma0 + 4ik (T - theta_k D sigma0) / p(k),
    p(k) = det(sigma0 - theta_k T) = (1 - theta_k lam+)(1 - theta_k lam-)

is meromorphic in k with at most two finite poles, the roots theta = 1 / lam
of p for the eigenvalues lam of T that are not 0, which SMatrixFn.roots
records and the classifier reports. The root of lam = 1/2 is at the origin,
where the explicit k factor in the numerator cancels it, so the evaluator
deflates it, by its multiplicity in roots, instead of reporting a pole there.
"""

import cmath

from .errors import AtPole, NotRepresentable
from . import pauli
from .pauli import _modulus
from .tolerances import base_tol

class SMatrixFn:
    """S(k) for a fixed interaction, with its characteristic data.

    Attributes
    ----------
    interaction : Interaction
    gamma : PauliVector
        Pauli coefficients of the boundary matrix.
    det_t : complex
        Determinant ad - bc of the boundary matrix [[a, b], [c, d]].
    xi : complex
        Principal root of ((a - d)/2)^2 + bc: T has eigenvalues gamma0 +- xi.
    p_coeffs : tuple
        (c0, c1, c2) with p(k) = c0 + c1 k + c2 k^2.
    tol : float
        Base tolerance, read once when the function is built; every
        decision about the structure of p below is taken at it.
    roots : tuple
        (root, multiplicity) pairs of p in the k variable: k = i(1 - theta/2)
        for the root theta = 1 / lam of each eigenvalue lam of T that is not
        0 (one double root for a double lam) and has theta in the float range
        (parts below 1e154), exactly 0j where |1 - 2 lam| is at most 100 tol.
        For hermitian T they lie exactly on the imaginary axis. The only
        record of the structure of p: the classifier reports its poles from
        it and evaluate deflates its origin root.
    thetas : tuple
        theta of each root, in the order of roots, as found (not from the
        rounded k): w / D and 1 / w for two simple roots, with w the larger of
        gamma0 +- xi so that neither cancels; their mean gamma0 / D for a
        double root; 1 / (a + d) for a degree-one p; 2 at the origin. The
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
        If det T, xi^2, p or a modulus overflows, from |T| of about 1e154.
    """

    def __init__(self, interaction):
        self.interaction = interaction
        self.gamma = interaction.gamma
        self.tol = tol = base_tol()
        a, b, c, d = interaction._entries
        g0, x, ad, bc = (a + d) / 2, (a - d) / 2, a * d, b * c  # T = g0 sigma0 + M, M = [[x, b], [c, -x]]
        self.det_t = D = ad - bc
        xi2 = x * x + bc
        self.p_coeffs = c0, c1, c2 = (1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D)
        try:  # Python complex arithmetic overflows quietly to inf and NaN, abs raises past the float range
            abs_b, abs_c, cancelled = abs(b), abs(c), abs(ad) + abs(bc)
            t_max, m_max = max(abs(a), abs_b, abs_c, abs(d)), max(abs(x), abs_b, abs_c)
        except OverflowError:
            t_max = cmath.inf
        if not all(map(cmath.isfinite, (D, xi2, c0, c1, c2, t_max))):
            raise NotRepresentable(f"characteristic polynomial of {interaction!r} overflows")
        self.xi = xi = cmath.sqrt(xi2)
        self._term_sizes = max(1.0, _modulus(c0)), _modulus(c1), _modulus(c2)
        self.scalar = m_max <= 100 * tol * t_max
        self.constant = _constant_family(interaction._entries, g0, xi2, tol)
        # p(theta) = (1 - theta lam+)(1 - theta lam-), lam+- = g0 +- xi: lams holds (lam, its root theta,
        # multiplicity) of each lam that is not 0. A value vanishes where below 100 tol times the terms it cancels.
        if abs(D) <= 100 * tol * cancelled:
            # a lam at 0 leaves lam = a + d, the root of p = 1 - theta (a + d)
            lams = () if abs(a + d) <= 100 * tol * (abs(a) + abs(d)) else ((a + d, 1 / (a + d), 1),)
        elif self.scalar or _double_root(g0, x, b, c, xi2, max(abs(g0), m_max), tol):
            lams = ((g0, g0 / D, 2),)
        else:
            w = max(g0 + xi, g0 - xi, key=abs)
            lams = ((D / w, w / D, 1), (w, 1 / w, 1))
        roots, thetas = [], []
        for lam, theta, mult in lams:
            if max(abs(theta.real), abs(theta.imag)) < 1e154:  # past it no z = k^2 is in the float range
                theta = 2.0 if abs(1 - 2 * lam) <= 100 * tol else theta  # lam = 1/2 at k = 0, asked of 1 - 2 lam
                roots.append((1j * (1 - theta / 2), mult))
                thetas.append(theta)
        if thetas == [2.0, 2.0]:  # both lam at 1/2: one double root
            roots, thetas = [(0j, 2)], [2.0]
        self.roots, self.thetas = tuple(roots), tuple(thetas)

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
    square ((a - d)/2)^2 + bc of its space part.
    """
    a, b, c, d = entries
    # both scalar families have vanishing off-diagonal entries
    if max(abs(b), abs(c)) <= tol:
        if max(abs(a), abs(d)) <= tol:
            return True
        if max(abs(a - 0.5), abs(d - 0.5)) <= tol:
            return True
    return abs(g0 - 0.25) <= tol and _modulus(xi2 - 0.0625) <= tol


def _double_root(g0, x, b, c, xi2, m, tol):
    """Whether T = g0 sigma0 + M, M = [[x, b], [c, -x]], has a double eigenvalue, at tol.

    At theta0 = g0 / D, N = sigma0 - theta0 T has N D = -(xi2 sigma0 + g0 M)
    and, as M^2 = xi2 sigma0, N^2 D^2 = xi2 ((xi2 + g0^2) sigma0 + 2 g0 M).
    The root is double where |N^2| is at most 100 tol |N|^2 (max-entry norm),
    the certificate exceptional_points applies at 1000 tol; both sides have
    degree 4, so it is taken on T / m, m = max(|g0|, |x|, |b|, |c|).
    """
    # With r = |xi2| / m^2 and s = |g0| / m: |N^2 D^2| / m^4 is at least half its spectral radius,
    # r max |sqrt(xi2) +- g0|^2 / m^2, which is at least r (r + s^2); and |N D| / m^2 is at most r + s.
    # So the test needs r (r + s^2) / 2 to be at most 100 tol (r + s)^2, itself at most 200 tol (r^2 + s^2),
    # which fails for r above 400 tol while tol is below 1/400. It is skipped past twice that bound.
    if _modulus(xi2) > 800 * tol * m * m:
        return False
    h0, hx, hb, hc = g0 / m, x / m, b / m, c / m
    q, p, u = hx * hx + hb * hc, h0 * hx, h0 * h0  # q = xi2 / m^2
    n = max(abs(q + p), abs(q - p), abs(h0 * hb), abs(h0 * hc))  # |N D| / m^2, at least |q|
    n2 = max(abs(q + u + 2 * p), abs(q + u - 2 * p), 2 * abs(h0 * hb), 2 * abs(h0 * hc))  # |N^2 D^2| / (|q| m^4)
    # |N^2| / |N|^2 as |q| / n times n2 / n, where neither underflows; n is 0 only where q and g0 / m
    # underflow (D is not 0 and T not scalar here), and there +-xi, with g0 = 0, are not one eigenvalue
    return n > 0 and abs(q) / n * (n2 / n) <= 100 * tol


def build(interaction):
    """S-matrix function for an interaction."""
    return SMatrixFn(interaction)
