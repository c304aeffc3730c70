"""The scattering matrix S(k) attached to a point interaction.

With theta_k = 2(1 + ik) and D = det of the boundary matrix T, the matrix

    S(k) = sigma0 + 4ik (T - theta_k D sigma0) / p(k),
    p(k) = det(sigma0 - theta_k T) = (1 - theta_k lam+)(1 - theta_k lam-)

is meromorphic in k, with a pole at the root theta = 1 / lam of each factor
for the eigenvalues lam of T that are not 0. SMatrixFn records those factors
once and decides there which of them cancel: a lam at 1/2 has the factor
1 - theta_k / 2 = -ik, which cancels the numerator's k, and for scalar
T = lam sigma0 the numerator 4ik lam (1 - theta_k lam) sigma0 cancels one
factor. evaluate tests each factor left for a pole on its own, and the
classifier reports their roots with the orders left; the value of S reads
the eigenvalues of T as they are, none merged or snapped.
"""

import cmath
import math

from .errors import AtPole, NotRepresentable
from .tolerances import base_tol

class SMatrixFn:
    """S(k) for a fixed interaction, with its characteristic data.

    Attributes
    ----------
    interaction : Interaction
    det_t : complex
        Determinant ad - bc of the boundary matrix [[a, b], [c, d]].
    xi : complex
        Principal root of ((a - d)/2)^2 + bc: T has eigenvalues gamma0 +- xi.
    tol : float
        Base tolerance, read once when the function is built; every
        decision about the structure of p below is taken at it.
    roots : tuple
        (root, multiplicity) pairs of p in the k variable: k = i(1 - theta/2)
        for the root theta = 1 / lam of each eigenvalue lam of T that is not
        0 (one double root for a double lam) and has theta in the float range
        (parts below 1e154), exactly 0j where |1 - 2 lam| is at most 100 tol.
        For hermitian T they lie exactly on the imaginary axis. The record of
        the structure of p that the classifier and evaluate read.
    thetas : tuple
        theta of each root, in the order of roots, as found (not from the
        rounded k): w / D and 1 / w for two simple roots, with w the larger of
        gamma0 +- xi so that neither cancels; their mean gamma0 / D for a
        double root; 1 / (a + d) for a degree-one p; 2 at the origin.
        cosh_chi_from_poles reads it.
    lams : tuple
        lam of each root's factor 1 - theta_k lam: 1 / theta, 0.5 at the origin.
    orders : tuple
        Order of the pole of S at each root: its multiplicity less the factors
        the numerator cancels, 0 where none is left.
    scalar : bool
        Whether the boundary matrix is a multiple of sigma0.
    constant : bool
        Whether S(k) does not depend on k: T = 0, or every factor cancels
        together with the k (the half-identity, eigenvalues 1/2 and 0).

    Raises
    ------
    NotRepresentable
        If det T, xi^2, a coefficient of p(k) = c0 + c1 k + c2 k^2 or a
        modulus overflows, from |T| of about 1e154. The coefficients are
        formed and tested only where max |T_ij| is not below 1e150: below
        it every part of ad, bc and x^2 is at most 2e300, so D, xi^2 and
        the coefficients are all finite.
    """

    def __init__(self, interaction):
        self.interaction = interaction
        self.tol = tol = base_tol()
        tol100 = 100 * tol
        a, b, c, d = interaction._entries
        g0, x, ad, bc = (a + d) / 2, (a - d) / 2, a * d, b * c  # T = g0 sigma0 + M, M = [[x, b], [c, -x]]
        self.det_t = D = ad - bc
        xe2 = x * x
        xi2 = xe2 + bc
        try:  # Python complex arithmetic overflows quietly to inf and NaN, abs raises past the float range
            abs_b, abs_c, abs_bc = abs(b), abs(c), abs(bc)
            cancelled = abs(ad) + abs_bc
            t_max, m_max = max(abs(a), abs_b, abs_c, abs(d)), max(abs(x), abs_b, abs_c)
        except OverflowError:
            t_max = cmath.inf
        # below 1e150 the parts of ad, bc and x^2 are at most 2e300, so D, xi^2 and p's c0, c1, c2 are all finite
        if not t_max < 1e150 and not all(
            map(cmath.isfinite, (D, xi2, 1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D, t_max))
        ):
            raise NotRepresentable(f"characteristic polynomial of {interaction!r} overflows")
        self.scalar = m_max <= tol100 * t_max
        xi_terms = abs(xe2) + abs_bc
        if xi_terms < 1e-290:  # an underflow of x^2 or bc could decide: both again, exactly, on T / e
            e = 2.0 ** math.frexp(abs(x) + math.sqrt(abs_b) * math.sqrt(abs_c))[1]  # a power of two near their size
            xe2, bc = (x / e) * (x / e), (b / e) * (c / e) if b and c else bc  # b / e alone may overflow; bc is 0
            xi2, xi_terms = xe2 + bc, abs(xe2) + abs(bc)
            self.xi = xi = e * cmath.sqrt(xi2)
        else:
            self.xi = xi = cmath.sqrt(xi2)
        # S's value reads w, the larger of g0 +- xi, and D / w, which keeps a small one that g0 - xi cancels, or
        # 2 g0 - w where w^2 is below the terms D cancels, as the sqrt leaves w too rough for D / w to keep tr T;
        # g0 + xi is w on a tie and where a modulus is NaN
        wp, wm = g0 + xi, g0 - xi
        w = wm if abs(wm) > abs(wp) else wp
        aw = abs(w)
        self._eigenvalues = w, D / w if aw * aw > cancelled else 2 * g0 - w
        # p(theta) = (1 - theta lam+)(1 - theta lam-), lam+- = g0 +- xi: lams holds (lam, its root theta,
        # multiplicity) of each lam that is not 0. D, a + d and xi^2 vanish below 100 tol times the terms they cancel
        if abs(D) <= tol100 * cancelled:
            # a lam at 0 leaves lam = a + d, the root of p = 1 - theta (a + d)
            lams = () if abs(a + d) <= tol100 * (abs(a) + abs(d)) else ((a + d, 1 / (a + d), 1),)
        elif self.scalar or abs(xi2) <= tol100 * xi_terms:
            lams = ((D / g0, g0 / D, 2),) if g0 else ()  # lam = 1 / theta, its factor 0 at the root; none at lam 0
        else:
            lams = ((D / w, w / D, 1), (w, 1 / w, 1))
        roots, thetas, kept = [], [], []
        for lam, theta, mult in lams:
            if max(abs(theta.real), abs(theta.imag)) < 1e154:  # past it no z = k^2 is in the float range
                if abs(1 - 2 * lam) <= tol100:  # lam = 1/2 at k = 0, asked of 1 - 2 lam
                    lam, theta = 0.5, 2.0
                roots.append((1j * (1 - theta / 2), mult))
                thetas.append(theta)
                kept.append(lam)
        if thetas == [2.0, 2.0]:  # both lam at 1/2: one double root
            roots, thetas, kept = [(0j, 2)], [2.0], [0.5]
        # Which factors cancel, as the module docstring derives: one for scalar T, and a lam at 1/2 the numerator's k
        orders = [1] * len(roots) if self.scalar else [mult for _, mult in roots]
        self._cancels_k = 2.0 in thetas
        if self._cancels_k:
            orders[thetas.index(2.0)] -= 1
        self.roots, self.thetas, self.lams, self.orders = tuple(roots), tuple(thetas), tuple(kept), tuple(orders)
        self.constant = not any(orders) and (self._cancels_k or not any((a, b, c, d)))

    def p(self, k):
        """Characteristic polynomial det(sigma0 - theta_k T) at k, the product of its eigenvalues' factors."""
        k = complex(k)
        return _factor(self._eigenvalues[0], k) * _factor(self._eigenvalues[1], k)

    def evaluate(self, k):
        """S(k) as a 2x2 ndarray of the rows _value gives, with its AtPole and ValueError."""
        import numpy as np

        return np.array(self._value(k))

    def _value(self, k):
        """S(k) as its rows ((s00, s01), (s10, s11)) of Python complex.

        Raises AtPole where the factor of a root whose order is not 0 is
        within tolerance of zero, or where a factor of the value is exactly 0,
        at a root the record merged or left out. The value is the formula
        above on the eigenvalues of T, unmerged, with p(0) taken as 0 where a
        lam is snapped to 1/2, and sigma0 - 4T where S is constant. Raises
        ValueError where S(k) or a factor is not finite.
        """
        k = complex(k)
        a, b, c, d = self.interaction._entries
        if self.constant:
            return (1 - 4 * a, 0 - 4 * b), (0 - 4 * c, 1 - 4 * d)
        lam1, lam2 = self._eigenvalues
        f1, f2 = _factor(lam1, k), _factor(lam2, k)  # an inf factor leaves q = 0, not NaN: tested below
        try:
            if self._at_pole(k, [lam for lam, order in zip(self.lams, self.orders) if order]):
                raise AtPole(f"k = {k} within tolerance of a pole of S")
            if self._cancels_k:  # p(0) = (1 - 2 lam1)(1 - 2 lam2) taken as 0, (p(k) - p(0)) / k divides 4i
                r, g = -2, lam1 * f2 + (1 - 2 * lam1) * lam2
            else:
                r, g = 4j * k / f1, f2
            e = 2.0 ** max(math.frexp(abs(self.det_t))[1] - 1, 0)  # near |D|: theta_k D / e in range, scaled exactly
            q, w = r * e / g, 2 * (1 + 1j * k) * (self.det_t / e) if self.det_t else 0  # 0, not inf times 0
            s = (1 + q * (a / e - w), q * (b / e)), (q * (c / e), 1 + q * (d / e - w))
        except ZeroDivisionError:  # a factor at 0
            raise AtPole(f"k = {k} at a pole of S") from None
        except OverflowError:  # abs() in the pole test past the float range
            s = None
        if s is None or not all(map(cmath.isfinite, (f1, f2) + s[0] + s[1])):
            raise ValueError(f"S(k) leaves the float range at k = {k}")
        return s

    def _at_pole(self, k, lams):
        """Whether a factor 1 - theta_k lam, lam in lams, is within tolerance of zero, at k or at each k of an array.

        |1 - theta_k lam| <= tol (1 + 2 |lam| (1 + |k|)): against the size of
        its terms, which is 1 + |theta_k lam| but near k = i, where theta_k
        cancels and the roots of a large lam sit. As a quotient, it fails
        where the factor overflows.
        """
        return sum(abs(_factor(lam, k)) / (1 + 2 * abs(lam) * (1 + abs(k))) <= self.tol for lam in lams) > 0


def _factor(lam, k):
    """1 - theta_k lam at k, or at each k of an array, as (1 - 2 lam) - 2i lam k: exactly -ik at lam = 1/2."""
    return (1 - 2 * lam) - 2j * lam * k


def build(interaction):
    """S-matrix function for an interaction."""
    return SMatrixFn(interaction)
