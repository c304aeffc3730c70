"""Metric (positive intertwining) operators for non-self-adjoint interactions.

When gamma0 is real and the space part of gamma has a real positive square,
write gamma_j = u_j + i v_j (j = 1..3). Then u and v are orthogonal with
|u| > |v|, and with

    kappa = |v| / |u|,  chi = atanh(kappa),  alpha = -(u x v)/|u x v|

the matrix E = cosh(chi) sigma0 + sinh(chi) sigma_alpha is positive definite
and intertwines the boundary matrix with its adjoint: T* E = E T. cosh(chi)
can also be read off the two imaginary poles of S, which gives an
independent consistency check.
"""

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import DegenerateGamma, NotApplicable
from .pauli import SIGMA0, SIGMA1, SIGMA2, SIGMA3
from .smatrix import build
from .classifier import _metric_certificate, find_poles
from .interaction import _is_hermitian


class Applicability(Enum):
    TWO_IMAGINARY_POLES = "TwoImaginaryPoles"
    ONE_IMAGINARY_POLE = "OneImaginaryPole"
    NOT_APPLICABLE = "NotApplicable"


MetricSpec = namedtuple("MetricSpec", "alpha chi kappa applicability s")
MetricSpec.__doc__ = "Parameters of the metric operator E, and the S and applicability they rest on."


def _applicability(s):
    if _is_hermitian(s.interaction._entries, s.tol):
        return Applicability.NOT_APPLICABLE, "already self-adjoint"
    failure, expected = _metric_certificate(s.gamma, s.tol)
    if failure is not None:
        return Applicability.NOT_APPLICABLE, failure
    if any(p.order >= 2 for p in find_poles(s)):
        return Applicability.NOT_APPLICABLE, "pole of order 2"
    if expected == 1:
        return Applicability.ONE_IMAGINARY_POLE, None
    return Applicability.TWO_IMAGINARY_POLES, None


def construct(interaction):
    """MetricSpec for an applicable interaction, decided on one build of S.

    Raises
    ------
    NotApplicable
        If the construction does not apply (already self-adjoint, no metric
        certificate, a pole of order 2), with the reason.
    DegenerateGamma
        If the real and imaginary parts of the gamma space part are
        collinear, leaving no axis for sigma_alpha.
    """
    s = build(interaction)
    applicability, reason = _applicability(s)
    if applicability is Applicability.NOT_APPLICABLE:
        raise NotApplicable(reason)
    space = np.array(s.gamma[1:], dtype=complex)
    u = space.real
    v = space.imag
    cross = np.cross(u, v)
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    norm_cross = float(np.linalg.norm(cross))
    if norm_cross <= 0.1 * s.tol * (1 + norm_u * norm_v):
        raise DegenerateGamma("Re gamma and Im gamma are collinear")
    alpha = -cross / norm_cross
    kappa = norm_v / norm_u
    chi = math.atanh(kappa)
    return MetricSpec(alpha=alpha, chi=chi, kappa=kappa, applicability=applicability, s=s)


def metric_matrix(spec):
    """E = cosh(chi) sigma0 + sinh(chi) sigma_alpha as a 2x2 ndarray."""
    a1, a2, a3 = spec.alpha
    sigma_alpha = a1 * SIGMA1 + a2 * SIGMA2 + a3 * SIGMA3
    return math.cosh(spec.chi) * SIGMA0 + math.sinh(spec.chi) * sigma_alpha


def verify_intertwining(spec):
    """Max-norm residual of T* E - E T, for the T the spec was built from.

    Returns inf instead of raising when E fails to be positive definite
    hermitian, so a caller can always log the number.
    """
    E = metric_matrix(spec)
    if np.abs(E - E.conj().T).max() > 100 * spec.s.tol * (1 + np.abs(E).max()):
        return math.inf
    if np.linalg.eigvalsh(E).min() <= 0:
        return math.inf
    T = spec.s.interaction.matrix
    return float(np.abs(T.conj().T @ E - E @ T).max())


def cosh_chi_from_poles(spec):
    """cosh(chi) recovered from the two imaginary poles of S.

    Equals |Re gamma| / |(k_minus - k_plus) det T| from the poles of spec.s,
    not spec.chi. Defined in the two-pole case only; raises NotApplicable otherwise.
    """
    if spec.applicability is not Applicability.TWO_IMAGINARY_POLES:
        raise NotApplicable("needs two imaginary poles")
    s = spec.s
    theta_plus, theta_minus = _theta_roots(s)
    k_plus = 1j * (1 - theta_plus / 2)
    k_minus = 1j * (1 - theta_minus / 2)
    norm_u = float(np.linalg.norm(np.array(s.gamma[1:], dtype=complex).real))
    return norm_u / abs((k_minus - k_plus) * s.det_t)


def _theta_roots(s):
    """Roots 1/(gamma0 +- xi) of p in the theta variable, as numpy scalars.

    In the two-pole case neither denominator vanishes: gamma0 = +-xi would
    make det T = gamma0^2 - xi^2 vanish, and the certificate counts one pole
    there.
    """
    g0 = np.complex128(s.gamma.x0)
    return 1 / (g0 + s.xi), 1 / (g0 - s.xi)
