"""Numerical tolerance configuration.

All classification margins in the package derive from a single base tolerance.
The default is 1e-12; set the ZRS_TOLERANCE environment variable to a finite
positive number to override it. It is read when an S-matrix is built, and by
other public functions when called, so a change takes effect without re-import.
"""

import math
import os

DEFAULT_TOLERANCE = 1e-12

_ENV_VAR = "ZRS_TOLERANCE"


def base_tol():
    """Current base tolerance, from the environment or the default.

    Raises
    ------
    ValueError
        If ZRS_TOLERANCE is set to anything but a finite positive number.
    """
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
