"""Numerical tolerance configuration.

All classification margins in the package derive from a single base tolerance.
The default is 1e-12; set the ZRS_TOLERANCE environment variable to a finite
positive number to override it. The command line reads it once per request, at
start, and every build, Interaction.from_abcd and Interaction.is_hermitian of
that request takes that value. Outside a request it is read when an S-matrix is
built, by Interaction.from_abcd and by Interaction.is_hermitian, so a change
takes effect without re-import.
"""

import math
import os
from contextvars import ContextVar

DEFAULT_TOLERANCE = 1e-12

_ENV_VAR = "ZRS_TOLERANCE"

# the tolerance of the command-line request in progress, None outside one
_REQUEST_TOL = ContextVar("zrs_request_tolerance", default=None)


def base_tol():
    """Current base tolerance: the request's, else from the environment or the default.

    Raises
    ------
    ValueError
        If ZRS_TOLERANCE is set to anything but a finite positive number.
    """
    tol = _REQUEST_TOL.get()
    if tol is not None:
        return tol
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise ValueError(f"{_ENV_VAR} must be a finite positive number, got {raw!r}")
    return value
