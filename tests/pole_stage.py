"""The poles of S as classify's first stage finds them, for tests that iterate them over arbitrary draws.

classifier._poles runs no exceptional-point certificate. On a draw where that
certificate disagrees with the order of a pole, classify raises
InternalInconsistency, while these tests still see the pole.
"""

from zrs.classifier import _poles


def poles(s):
    """PoleReport of each pole of s: finite poles by location, then the pole at infinity."""
    return [p for _, p, _, _ in _poles(s)]
