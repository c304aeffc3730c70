"""Scattering matrices and spectral classification for 1D Schrodinger
operators with a non-symmetric zero-range potential at the origin."""

from .errors import (
    AtEigenvalue,
    AtPole,
    DegenerateGamma,
    NonConvergent,
    NotApplicable,
    NotRepresentable,
    ZrsError,
)
from .pauli import PauliVector
from .interaction import FRIEDRICHS, KREIN, Interaction
from .smatrix import SMatrixFn, build
from .classifier import (
    PoleReport,
    Region,
    Sheet,
    Similarity,
    SpectralClassification,
    classify,
)

__version__ = "0.1.0"

# the modules that classify does not need are loaded when one of their names
# is first read: zrs.resolvent builds ndarrays at import, and loads numpy
_LAZY = {
    "Applicability": "metric",
    "MetricSpec": "metric",
    "FTransform": "resolvent",
    "TestFunction": "resolvent",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "ZrsError",
    "NotRepresentable",
    "AtPole",
    "DegenerateGamma",
    "NotApplicable",
    "NonConvergent",
    "AtEigenvalue",
    "PauliVector",
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
    "classify",
    "Applicability",
    "MetricSpec",
    "TestFunction",
    "FTransform",
    "__version__",
]
