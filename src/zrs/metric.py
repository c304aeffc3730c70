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
from .classifier import _metric_certificate
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
    if any(mult >= 2 for _, mult in s.roots):
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
    u, v = space.real, space.imag
    cross = np.cross(u, v)
    norm_u, norm_v, norm_cross = _norm(u), _norm(v), _norm(cross)
    if norm_cross <= 0.1 * s.tol * (1 + norm_u * norm_v):
        raise DegenerateGamma("Re gamma and Im gamma are collinear")
    kappa = norm_v / norm_u
    return MetricSpec(alpha=-cross / norm_cross, chi=math.atanh(kappa), kappa=kappa, applicability=applicability, s=s)


def _norm(x):
    """np.linalg.norm(x), bit for bit, taken on x scaled by a power of two so that it cannot overflow."""
    scale = 2.0 ** math.frexp(float(np.abs(x).max()))[1]
    return float(np.linalg.norm(x / scale)) * scale


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
    not spec.chi; with k = i(1 - theta/2), it is read off the two roots theta
    that spec.s records, as |Re gamma| / |(theta_minus - theta_plus) det T / 2|.
    Defined in the two-pole case only; raises NotApplicable otherwise.
    """
    if spec.applicability is not Applicability.TWO_IMAGINARY_POLES:
        raise NotApplicable("needs two imaginary poles")
    theta_plus, theta_minus = spec.s.thetas
    norm_u = math.hypot(*(g.real for g in spec.s.gamma[1:]))
    return norm_u / abs((theta_minus - theta_plus) * spec.s.det_t / 2)
