"""The poles of S as classify's first stage finds them, for tests that iterate them over arbitrary draws.

classifier._poles gives every pole with its sheet and order, before the
similarity and region rules of classify's pass read them.
"""

from zrs.classifier import _poles


def poles(s):
    """PoleReport of each pole of s: finite poles by location, then the pole at infinity."""
    return [p for _, p, _ in _poles(s)]
