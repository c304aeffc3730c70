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

from .errors import DegenerateGamma, NotApplicable
from .smatrix import build
from .classifier import _metric_certificate
from .interaction import _is_hermitian


class Applicability(Enum):
    TWO_IMAGINARY_POLES = "TwoImaginaryPoles"
    ONE_IMAGINARY_POLE = "OneImaginaryPole"


MetricSpec = namedtuple("MetricSpec", "alpha chi kappa applicability s")
MetricSpec.__doc__ = "Parameters of the metric operator E, and the S and applicability they rest on."


def _applicability(s):
    """The Applicability of the construction on s, or NotApplicable with the reason."""
    if _is_hermitian(s.interaction._entries, s.tol):
        raise NotApplicable("already self-adjoint")
    failure, expected = _metric_certificate(s.interaction.gamma, s.tol)
    if failure is not None:
        raise NotApplicable(failure)
    if any(mult >= 2 for _, mult in s.roots):
        raise NotApplicable("pole of order 2")
    return Applicability.ONE_IMAGINARY_POLE if expected == 1 else Applicability.TWO_IMAGINARY_POLES


def construct(interaction):
    """MetricSpec for an applicable interaction, decided on one build of S.

    Raises
    ------
    NotApplicable
        If the construction does not apply (already self-adjoint, no metric
        certificate, a pole of order 2), or E is not representable because
        kappa rounds to 1 (chi = atanh(kappa) would be infinite), with the
        reason.
    DegenerateGamma
        If the real and imaginary parts of the gamma space part are
        collinear, leaving no axis for sigma_alpha.
    """
    s = build(interaction)
    applicability = _applicability(s)
    (u1, v1), (u2, v2), (u3, v3) = ((g.real, g.imag) for g in s.interaction.gamma[1:])
    cross = (u2 * v3 - u3 * v2, u3 * v1 - u1 * v3, u1 * v2 - u2 * v1)
    norm_u, norm_v, norm_cross = math.hypot(u1, u2, u3), math.hypot(v1, v2, v3), math.hypot(*cross)  # scale inside
    if norm_cross <= 0.1 * s.tol * (1 + norm_u * norm_v):
        raise DegenerateGamma("Re gamma and Im gamma are collinear")
    kappa = norm_v / norm_u
    if kappa >= 1:
        raise NotApplicable("E not representable: kappa rounds to 1")
    alpha = tuple(-x / norm_cross for x in cross)
    return MetricSpec(alpha=alpha, chi=math.atanh(kappa), kappa=kappa, applicability=applicability, s=s)


def _metric_entries(spec):
    """E = cosh(chi) sigma0 + sinh(chi) sigma_alpha as its rows ((e00, e01), (e10, e11)) of Python complex."""
    a1, a2, a3 = spec.alpha
    ch, sh = math.cosh(spec.chi), math.sinh(spec.chi)
    return (ch + sh * a3 + 0j, sh * (a1 - 1j * a2)), (sh * (a1 + 1j * a2), ch - sh * a3 + 0j)


def metric_matrix(spec):
    """E = cosh(chi) sigma0 + sinh(chi) sigma_alpha as a 2x2 ndarray."""
    import numpy as np

    return np.array(_metric_entries(spec))


def verify_intertwining(spec):
    """Max-norm residual of T* E - E T, for the T the spec was built from.

    Returns inf instead of raising when E fails to be positive definite
    hermitian, so a caller can always log the number.
    """
    E = (e00, e01), (e10, e11) = _metric_entries(spec)
    skew = max(2 * abs(e00.imag), abs(e01 - e10.conjugate()), 2 * abs(e11.imag))  # max |(E - E*)_ij|
    if skew > 100 * spec.s.tol * (1 + max(abs(e00), abs(e01), abs(e10), abs(e11))):
        return math.inf
    if not (e00.real > 0 and e00.real * e11.real - abs(e10) ** 2 > 0):  # E00 and det E decide a hermitian 2x2
        return math.inf
    a, b, c, d = spec.s.interaction._entries
    T, H = ((a, b), (c, d)), ((a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate()))  # T and T*
    return max(abs(sum(H[i][n] * E[n][j] - E[i][n] * T[n][j] for n in (0, 1))) for i in (0, 1) for j in (0, 1))


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
    norm_u = math.hypot(*(g.real for g in spec.s.interaction.gamma[1:]))
    return norm_u / abs((theta_minus - theta_plus) * spec.s.det_t / 2)
