"""Pole location and spectral classification.

The characteristic polynomial p has degree at most two, so everything is
done in closed form. Poles of S are roots of p with the order that
SMatrixFn.orders records: the multiplicity, less the factors the numerator
cancels (one for scalar T, one at the origin for its k).

A pole in the open upper half-plane is an eigenvalue z = k0^2 of the
operator; a pole on the real axis is a spectral singularity; an order-two
pole in the upper half-plane is an exceptional point, read off the order
that SMatrixFn.orders records. When p degenerates to a constant while T is
nonzero, S grows linearly in k: a singularity at infinity.
"""

from collections import namedtuple
from enum import Enum
from operator import itemgetter

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


def _is_real(z, tol1000):
    """Whether |Im z| is at most 1000 tol (1 + |z|), given tol1000 = 1000 tol."""
    return abs(z.imag) <= tol1000 * (1 + abs(z))


_by_key = itemgetter(0)


def _poles(s):
    """(sort key, report, whether i k0 is real) of each pole of S: classify's first stage.

    Finite poles by location, then the pole at infinity.
    """
    records, tol1000 = [], 1000 * s.tol
    for (loc, _), order in zip(s.roots, s.orders):
        if not order:  # every factor at this root cancels
            continue
        # adding 0.0 clears the negative zeros that k = i(1 - theta/2) can carry
        loc = complex(loc.real + 0.0, loc.imag + 0.0)
        on_real_axis, on_axis = _is_real(loc, tol1000), _is_real(1j * loc, tol1000)
        sheet = Sheet.REAL_AXIS if on_real_axis else Sheet.PHYSICAL if loc.imag > 0 else Sheet.NONPHYSICAL
        # on the imaginary axis Re k is rounding noise, so those poles are ordered by Im k first
        key = (0.0 if on_axis else loc.real, loc.imag, loc.real)
        records.append((key, PoleReport(loc, order, sheet, loc * loc), on_axis))
    if len(records) > 1:
        records.sort(key=_by_key)
    # with no factor recorded, S = sigma0 + 4ik T is constant or grows linearly in k
    if not s.roots and not s.constant:
        records.append((None, PoleReport(None, 1, Sheet.INFINITY, None), False))
    return records


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
    tol1000 = 1000 * s.tol
    poles, eigenvalues, singular, excs = [], [], [], []
    at_infinity = nonreal = negative = False
    simple_on_axis = True
    for _, p, on_axis in _poles(s):
        poles.append(p)
        simple_on_axis = simple_on_axis and on_axis and p.order == 1
        if p.sheet is Sheet.PHYSICAL:
            eigenvalues.append(p.z)
            if p.order >= 2:
                excs.append(p.z)
            real = _is_real(p.z, tol1000)
            nonreal = nonreal or not real
            negative = negative or real and p.z.real < 0
        elif p.sheet is Sheet.REAL_AXIS:
            singular.append(float(p.z.real))
        elif p.sheet is Sheet.INFINITY:
            at_infinity = True
    merged = []  # sorted, less each value within tolerance of the one kept before it
    for z in sorted(singular) if singular else ():
        if not (merged and abs(z - merged[-1]) <= tol1000 * (1 + abs(z))):
            merged.append(z)
    at_singularity = bool(merged) or at_infinity or bool(excs)
    region = Region.I if nonreal else Region.II if at_singularity else Region.III
    if _is_hermitian(interaction._entries, s.tol):
        similarity = Similarity.SELF_ADJOINT
    elif at_singularity or nonreal:
        similarity = Similarity.NOT_SIMILAR
    elif not eigenvalues:
        # S is holomorphic and bounded on the upper half-plane
        similarity = Similarity.SIMILAR_TO_SELF_ADJOINT
    else:
        # the remaining poles are imaginary and finite (a pole at infinity is a singularity); the
        # certificate makes their spectrum real and negative when S has exactly the expected ones
        failure, expected = _metric_certificate(s.interaction.gamma, s.tol)
        if failure is None and simple_on_axis and len(poles) == expected:
            similarity = Similarity.SIMILAR_TO_SELF_ADJOINT
        else:
            similarity, region = Similarity.UNDETERMINED, Region.UNDETERMINED
    # in the order of SpectralClassification's fields
    return SpectralClassification(
        tuple(poles), tuple(eigenvalues), tuple(merged), at_infinity, tuple(excs), similarity, region, negative
    )
