"""Pole location and spectral classification.

The characteristic polynomial p has degree at most two, so everything is
done in closed form. Poles of S are roots of p with the order that
SMatrixFn.orders records: the multiplicity, less the factors the numerator
cancels (one for scalar T, one at the origin for its k).

A pole in the open upper half-plane is an eigenvalue z = k0^2 of the
operator; a pole on the real axis is a spectral singularity; an order-two
pole in the upper half-plane is an exceptional point. When p degenerates to
a constant while T is nonzero, S grows linearly in k: a singularity at
infinity. Each pole's sheet and the reality of its lam are read off
SMatrixFn.k_real and SMatrixFn.lam_real: z = k0^2 is real, and negative,
exactly where lam is. Where the poles leave similarity open,
SMatrixFn._not_similar decides it.
"""

from collections import namedtuple
from enum import Enum
from operator import itemgetter

from .interaction import _is_hermitian
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


_by_key = itemgetter(0)


def _poles(s):
    """(sort key, report, whether its lam is real) of each pole of S: classify's first stage.

    Finite poles by location, then the pole at infinity.
    """
    records = []
    for (loc, _), order, lam_real, k_real in zip(s.roots, s.orders, s.lam_real, s.k_real):
        if not order:  # every factor at this root cancels
            continue
        # adding 0.0 clears the negative zeros that k = i(1 - theta/2) can carry
        loc = complex(loc.real + 0.0, loc.imag + 0.0)
        sheet = Sheet.REAL_AXIS if k_real else Sheet.PHYSICAL if loc.imag > 0 else Sheet.NONPHYSICAL
        # a real lam puts k on the imaginary axis, where Re k is rounding noise: those poles are ordered by Im k first
        key = (0.0 if lam_real else loc.real, loc.imag, loc.real)
        records.append((key, PoleReport(loc, order, sheet, loc * loc), lam_real))
    if len(records) > 1:
        records.sort(key=_by_key)
    # with no factor recorded, S = sigma0 + 4ik T is constant or grows linearly in k
    if not s.roots and not s.constant:
        records.append((None, PoleReport(None, 1, Sheet.INFINITY, None), False))
    return records


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
    poles, eigenvalues, singular, excs = [], [], [], []
    at_infinity = nonreal = negative = False
    for _, p, lam_real in _poles(s):
        poles.append(p)
        if p.sheet is Sheet.PHYSICAL:
            eigenvalues.append(p.z)
            if p.order >= 2:
                excs.append(p.z)
            # z = k^2 is real exactly when lam is, and then negative on this sheet
            nonreal = nonreal or not lam_real
            negative = negative or lam_real
        elif p.sheet is Sheet.REAL_AXIS:
            singular.append(float(p.z.real))
        elif p.sheet is Sheet.INFINITY:
            at_infinity = True
    merged = []  # sorted, less each value within tolerance of the one kept before it
    for z in sorted(singular) if singular else ():
        if not (merged and abs(z - merged[-1]) <= 1000 * s.tol * (1 + abs(z))):
            merged.append(z)
    at_singularity = bool(merged) or at_infinity or bool(excs)
    region = Region.I if nonreal else Region.II if at_singularity else Region.III
    if _is_hermitian(interaction._entries, s.tol):
        similarity = Similarity.SELF_ADJOINT
    elif at_singularity or nonreal:
        similarity = Similarity.NOT_SIMILAR
    elif not eigenvalues or s._not_similar() is None:
        # S is holomorphic and bounded on the upper half-plane, or T has real, distinct eigenvalues
        similarity = Similarity.SIMILAR_TO_SELF_ADJOINT
    else:
        similarity, region = Similarity.UNDETERMINED, Region.UNDETERMINED
    # in the order of SpectralClassification's fields
    return SpectralClassification(
        tuple(poles), tuple(eigenvalues), tuple(merged), at_infinity, tuple(excs), similarity, region, negative
    )
