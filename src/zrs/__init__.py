"""Scattering matrices and spectral classification for 1D Schrodinger
operators with a non-symmetric zero-range potential at the origin."""

from .errors import (
    AtEigenvalue,
    AtPole,
    DegenerateGamma,
    DegenerateSystem,
    InternalInconsistency,
    NonConvergent,
    NotApplicable,
    NotRepresentable,
    OnImaginaryAxis,
    SingularMatrix,
    ZrsError,
)
from .pauli import PauliVector, compose, decompose, det_pauli, inverse_pauli
from .interaction import FRIEDRICHS, KREIN, Interaction, PotentialABCD, gamma_from_abcd
from .smatrix import (
    ScatteringCoefficients,
    SMatrixFn,
    build,
    scattering_coefficients,
    smatrix_from_coefficients,
)
from .classifier import (
    PoleReport,
    Region,
    Sheet,
    Similarity,
    SpectralClassification,
    boundedness_scan,
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
    "SingularMatrix",
    "NotRepresentable",
    "AtPole",
    "DegenerateSystem",
    "OnImaginaryAxis",
    "InternalInconsistency",
    "DegenerateGamma",
    "NotApplicable",
    "NonConvergent",
    "AtEigenvalue",
    "PauliVector",
    "compose",
    "decompose",
    "det_pauli",
    "inverse_pauli",
    "PotentialABCD",
    "Interaction",
    "gamma_from_abcd",
    "FRIEDRICHS",
    "KREIN",
    "SMatrixFn",
    "build",
    "ScatteringCoefficients",
    "scattering_coefficients",
    "smatrix_from_coefficients",
    "Sheet",
    "Similarity",
    "Region",
    "PoleReport",
    "SpectralClassification",
    "find_poles",
    "spectral_singularities",
    "exceptional_points",
    "classify",
    "boundedness_scan",
    "Applicability",
    "MetricSpec",
    "TestFunction",
    "FTransform",
    "__version__",
]
