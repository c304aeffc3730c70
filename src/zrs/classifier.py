"""Pole location and spectral classification.

The characteristic polynomial p has degree at most two, so everything is
done in closed form. Poles of S are roots of p with the order that
SMatrixFn.orders records: the multiplicity, less the factors the numerator
cancels (one for scalar T, one at the origin for its k).

A pole in the open upper half-plane is an eigenvalue z = k0^2 of the
operator; a pole on the real axis is a spectral singularity; an order-two
pole in the upper half-plane is an exceptional point (certified a second
way through nilpotency of sigma0 - theta_k0 T). When p degenerates to a
constant while T is nonzero, S grows linearly in k: a singularity at
infinity.
"""

from collections import namedtuple
from enum import Enum

from .errors import InternalInconsistency
from .interaction import _is_hermitian
from .pauli import _modulus, _square
from .smatrix import build


class Sheet(Enum):
    PHYSICAL = "Physical"
    REAL_AXIS = "RealAxis"
    NONPHYSICAL = "Nonphysical"
    INFINITY = "Infinity"


class Similarity(Enum):
    SELF_ADJOINT = "SelfAdjoint"
    SIMILAR_TO_SELF_ADJOINT = "SimilarToSelfAdjoint"
    NOT_SIMILAR = "NotSimilar"
    UNDETERMINED = "Undetermined"


class Region(Enum):
    I = "I"
    II = "II"
    III = "III"
    UNDETERMINED = "Undetermined"


PoleReport = namedtuple("PoleReport", "location order sheet z")
PoleReport.__doc__ = "One pole of S. location/z are None for the pole at infinity."

SpectralClassification = namedtuple(
    "SpectralClassification",
    "poles eigenvalues spectral_singularities singularity_at_infinity"
    " exceptional_points similarity region has_negative_eigenvalues",
)


def _is_real(z, tol):
    return abs(z.imag) <= 1000 * tol * (1 + abs(z))


def _sheet_of(k0, tol):
    if _is_real(k0, tol):
        return Sheet.REAL_AXIS
    if k0.imag > 0:
        return Sheet.PHYSICAL
    return Sheet.NONPHYSICAL


def find_poles(s):
    """Poles of S with effective orders, sorted by location.

    Parameters
    ----------
    s : SMatrixFn

    Returns
    -------
    list of PoleReport
        Finite poles first (ordered by real then imaginary part, or on the
        imaginary axis by imaginary part first), then the pole at infinity.
    """
    reports = []
    for (loc, _), order in zip(s.roots, s.orders):
        if not order:  # every factor at this root cancels
            continue
        # adding 0.0 clears the negative zeros that k = i(1 - theta/2) can carry
        loc = complex(loc.real + 0.0, loc.imag + 0.0)
        reports.append(PoleReport(loc, order, _sheet_of(loc, s.tol), loc * loc))
    # on the imaginary axis Re k is rounding noise, so those poles are ordered by Im k first
    reports.sort(
        key=lambda r: (0.0 if _is_real(1j * r.location, s.tol) else r.location.real, r.location.imag, r.location.real)
    )

    # with no factor recorded, S = sigma0 + 4ik T is constant or grows linearly in k
    if not s.roots and not s.constant:
        reports.append(PoleReport(None, 1, Sheet.INFINITY, None))
    return reports


def spectral_singularities(s, poles=None):
    """Real-axis singular spectral points of the operator.

    Returns (values, at_infinity): z = k0^2 for each real-axis pole,
    sorted and deduplicated, plus a flag for the singularity at infinity.
    """
    if poles is None:
        poles = find_poles(s)
    at_infinity = any(p.sheet is Sheet.INFINITY for p in poles)
    raw = sorted(
        float(p.z.real) for p in poles if p.sheet is Sheet.REAL_AXIS
    )
    values = []
    for z in raw:
        if values and abs(z - values[-1]) <= 1000 * s.tol * (1 + abs(z)):
            continue
        values.append(z)
    return values, at_infinity


def exceptional_points(s, poles=None):
    """Degenerate eigenvalues z where the operator has a Jordan block.

    These are z = k0^2 for order-two poles k0 in the upper half-plane, each
    certified at the theta s.thetas records for its root: N = sigma0 - theta T
    must be nonzero with N^2 = 0. Order-one poles, and poles that are no root
    of s, must fail that certificate; a disagreement raises InternalInconsistency.
    """
    if poles is None:
        poles = find_poles(s)
    thetas = {k: theta for (k, _), theta in zip(s.roots, s.thetas)}
    out = []
    for p in poles:
        if p.sheet is not Sheet.PHYSICAL:
            continue
        theta0 = thetas.get(p.location)
        nilpotent = theta0 is not None and _nilpotent(theta0, s.interaction._entries, s.tol)
        if p.order >= 2 and not nilpotent:
            raise InternalInconsistency(f"order-{p.order} pole at {p.location} without a nilpotent residue")
        if p.order == 1 and nilpotent:
            raise InternalInconsistency(f"simple pole at {p.location} with a nilpotent residue")
        if p.order >= 2:
            out.append(p.z)
    return out


def _nilpotent(theta, entries, tol):
    """Whether N = sigma0 - theta T is nonzero and nilpotent; N^2 is taken on N / |N|, so it cannot overflow."""
    t00, t01, t10, t11 = entries
    n00, n01, n10, n11 = 1 - theta * t00, -theta * t01, -theta * t10, 1 - theta * t11
    nmax = max(_modulus(n00), _modulus(n01), _modulus(n10), _modulus(n11))
    scale = 1 + max(abs(t00), abs(t01), abs(t10), abs(t11)) * abs(theta)
    if not nmax > 100 * tol * scale:
        return False
    n00, n01, n10, n11 = n00 / nmax, n01 / nmax, n10 / nmax, n11 / nmax
    n2max = max(
        abs(n00 * n00 + n01 * n10), abs(n00 * n01 + n01 * n11), abs(n10 * n00 + n11 * n10), abs(n10 * n01 + n11 * n11)
    )
    return n2max <= 1000 * tol * (1 + tol * scale / nmax) ** 2


def _metric_certificate(gamma, tol):
    """Whether gamma0 is real and sum gamma_j^2 real and positive.

    Under this certificate S has one imaginary pole when det T vanishes and
    two otherwise. Returns (failure, expected): the first failed condition
    and None, or None and that pole count.
    """
    g0, g1, g2, g3 = gamma
    sq = g1 * g1 + g2 * g2 + g3 * g3
    if abs(g0.imag) > 100 * tol * (1 + abs(g0)):
        return "gamma0 not real", None
    if abs(sq.imag) > 100 * tol * (1 + _modulus(sq)):
        return "sum of gamma_j^2 not real", None
    if sq.real <= 100 * tol:
        return "sum of gamma_j^2 not positive", None
    det = g0 * g0 - sq
    return None, 1 if _modulus(det) <= 100 * tol * _square(1 + abs(g0)) else 2


def _similarity(s, poles, sing_values, sing_at_inf, excs):
    finite = [p for p in poles if p.sheet is not Sheet.INFINITY]
    physical = [p for p in finite if p.sheet is Sheet.PHYSICAL]
    if _is_hermitian(s.interaction._entries, s.tol):
        return Similarity.SELF_ADJOINT
    if sing_values or sing_at_inf or excs:
        return Similarity.NOT_SIMILAR
    if any(not _is_real(p.z, s.tol) for p in physical):
        return Similarity.NOT_SIMILAR
    if not physical:
        # S is holomorphic and bounded on the upper half-plane
        return Similarity.SIMILAR_TO_SELF_ADJOINT
    # the remaining poles are imaginary; the certificate makes their
    # spectrum real and negative when S has exactly the expected ones
    failure, expected = _metric_certificate(s.gamma, s.tol)
    if failure is None:
        # i k0 is real for a pole k0 on the imaginary axis
        on_axis = all(_is_real(1j * p.location, s.tol) and p.order == 1 for p in finite)
        if on_axis and len(finite) == expected:
            return Similarity.SIMILAR_TO_SELF_ADJOINT
    return Similarity.UNDETERMINED


def _region(eigenvalues, sing_values, sing_at_inf, excs, similarity, tol):
    if any(not _is_real(z, tol) for z in eigenvalues):
        return Region.I
    if sing_values or sing_at_inf or excs:
        return Region.II
    if similarity in (Similarity.SELF_ADJOINT, Similarity.SIMILAR_TO_SELF_ADJOINT):
        return Region.III
    return Region.UNDETERMINED


def classify(interaction):
    """Full spectral report for an interaction.

    Returns
    -------
    SpectralClassification
        Poles with sheets and orders, eigenvalues z = k0^2 from the upper
        half-plane, spectral singularities from the real axis, exceptional
        points, the similarity verdict and the parameter-space region.
    """
    s = build(interaction)
    poles = find_poles(s)
    eigenvalues = tuple(p.z for p in poles if p.sheet is Sheet.PHYSICAL)
    sing_values, sing_at_inf = spectral_singularities(s, poles)
    excs = tuple(exceptional_points(s, poles))
    similarity = _similarity(s, poles, sing_values, sing_at_inf, excs)
    region = _region(eigenvalues, sing_values, sing_at_inf, excs, similarity, s.tol)
    has_negative = any(_is_real(z, s.tol) and z.real < 0 for z in eigenvalues)
    return SpectralClassification(
        poles=tuple(poles),
        eigenvalues=eigenvalues,
        spectral_singularities=tuple(sing_values),
        singularity_at_infinity=sing_at_inf,
        exceptional_points=excs,
        similarity=similarity,
        region=region,
        has_negative_eigenvalues=has_negative,
    )
