"""Scattering matrices and spectral classification for 1D Schrodinger
operators with a non-symmetric zero-range potential at the origin."""

from .errors import (
    AtEigenvalue,
    AtPole,
    DegenerateGamma,
    InternalInconsistency,
    NonConvergent,
    NotApplicable,
    NotRepresentable,
    ZrsError,
)
from .pauli import PauliVector, compose, decompose, det_pauli
from .interaction import FRIEDRICHS, KREIN, Interaction, PotentialABCD
from .smatrix import SMatrixFn, build
from .classifier import (
    PoleReport,
    Region,
    Sheet,
    Similarity,
    SpectralClassification,
    classify,
    exceptional_points,
    find_poles,
    spectral_singularities,
)
from .metric import Applicability, MetricSpec
from .resolvent import FTransform, TestFunction

__version__ = "0.1.0"

__all__ = [
    "ZrsError",
    "NotRepresentable",
    "AtPole",
    "InternalInconsistency",
    "DegenerateGamma",
    "NotApplicable",
    "NonConvergent",
    "AtEigenvalue",
    "PauliVector",
    "compose",
    "decompose",
    "det_pauli",
    "PotentialABCD",
    "Interaction",
    "FRIEDRICHS",
    "KREIN",
    "SMatrixFn",
    "build",
    "Sheet",
    "Similarity",
    "Region",
    "PoleReport",
    "SpectralClassification",
    "find_poles",
    "spectral_singularities",
    "exceptional_points",
    "classify",
    "Applicability",
    "MetricSpec",
    "TestFunction",
    "FTransform",
    "__version__",
]
