"""Resolvent-difference norms and the similarity integral probe.

For Im k > 0 the resolvent of the perturbed operator differs from the free
(Dirichlet-decoupled) one by a rank-two term spanned by e^{ik|x|} and the
odd exponential. With F g = (integral of e^{iks} g over (0, inf), integral
of e^{-iks} g over (-inf, 0)) and W = sigma0 + i sigma2, the L2 norm of the
difference applied to g is

    || (A_T - k^2)^{-1} g - (A_F - k^2)^{-1} g ||^2
        = (1 / Im k) | W (T - theta_k D sigma0) F g |^2 / |p(k)|^2.

The probe integrates that quantity for two fixed unit-rate one-sided
exponentials along the line z = xi + i*eps and scales by eps: bounded
values as eps shrinks are consistent with a bounded similarity transform,
while a real spectral singularity makes the probe grow like 1/eps.

Only f_transform with a custom test function loads scipy, when it is
called; the probe integrates without it.
"""

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import AtEigenvalue, NonConvergent
from .smatrix import build

# W = sigma0 + i sigma2
_W = np.array([[1, 1], [-1, 1]], dtype=complex)

_TAIL_THRESHOLD = 1e-8
_TRUNCATION = 40.0
# node triples per block of _simpson: the probe's integrand on a block's
# 2 * _BLOCK + 1 nodes and all of its buffers, about 1.1 MB, stay in cache
_BLOCK = 4096


class TestFunctionKind(Enum):
    __test__ = False  # not a test class, for pytest; a dunder is no member
    PLUS_EXPONENTIAL = "plus_exponential"
    MINUS_EXPONENTIAL = "minus_exponential"
    CUSTOM = "custom"


class TestFunction(namedtuple("TestFunction", "kind k func", defaults=(None, None))):
    """A test function g for the resolvent difference."""

    __slots__ = ()
    __test__ = False  # not a test class, for pytest

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind is TestFunctionKind.PLUS_EXPONENTIAL:
            out = np.where(x > 0, np.exp(-1j * np.conj(self.k) * (x + 0j)), 0)
        elif self.kind is TestFunctionKind.MINUS_EXPONENTIAL:
            out = np.where(x < 0, np.exp(1j * np.conj(self.k) * (x + 0j)), 0)
        else:
            out = self.func(x)
        if np.ndim(out) == 0:
            return complex(out)
        return out


def plus_exponential(k):
    """g(x) = conj(e^{ikx}) on (0, inf), zero elsewhere. Needs Im k > 0."""
    k = complex(k)
    if k.imag <= 0:
        raise ValueError("plus_exponential needs Im k > 0")
    return TestFunction(kind=TestFunctionKind.PLUS_EXPONENTIAL, k=k)


def minus_exponential(k):
    """g(x) = conj(e^{-ikx}) on (-inf, 0), zero elsewhere. Needs Im k > 0."""
    k = complex(k)
    if k.imag <= 0:
        raise ValueError("minus_exponential needs Im k > 0")
    return TestFunction(kind=TestFunctionKind.MINUS_EXPONENTIAL, k=k)


def custom(func):
    """Wrap an arbitrary callable as a test function."""
    return TestFunction(kind=TestFunctionKind.CUSTOM, func=func)


FTransform = namedtuple("FTransform", "plus minus")
FTransform.__doc__ = "One-sided exponential transforms of g at a fixed k."


def f_transform(g, k):
    """F g at k (Im k > 0 required).

    The two exponential families have closed forms; a custom g is
    integrated numerically on |x| <= 40 / Im k after a decay check on
    |g(x) e^{ik|x|}| near the cutoff.

    Raises
    ------
    NonConvergent
        If the custom integrand has not decayed below 1e-8 at the cutoff.
    """
    k = complex(k)
    if k.imag <= 0:
        raise ValueError("transform defined for Im k > 0")
    if g.kind is TestFunctionKind.PLUS_EXPONENTIAL:
        return FTransform(1j / (k - np.conj(g.k)), 0j)
    if g.kind is TestFunctionKind.MINUS_EXPONENTIAL:
        return FTransform(0j, 1j / (k - np.conj(g.k)))
    from scipy.integrate import quad

    cutoff = _TRUNCATION / k.imag
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (0.8 * cutoff, 0.9 * cutoff, cutoff):
            for side in (x, -x):
                tail = abs(complex(g.func(side))) * math.exp(-k.imag * x)
                if not tail <= _TAIL_THRESHOLD:
                    raise NonConvergent(
                        f"|g({side}) e^{{ik|x|}}| = {tail} at the cutoff"
                    )
    plus = quad(
        lambda s: g.func(s) * np.exp(1j * k * s),
        0,
        cutoff,
        complex_func=True,
        epsabs=1e-10,
        limit=200,
    )[0]
    minus = quad(
        lambda s: g.func(s) * np.exp(-1j * k * s),
        -cutoff,
        0,
        complex_func=True,
        epsabs=1e-10,
        limit=200,
    )[0]
    return FTransform(complex(plus), complex(minus))


def resolvent_diff_norm(interaction, k, g):
    """L2 norm of the resolvent difference applied to g, at z = k^2.

    Raises
    ------
    AtEigenvalue
        If k is within tolerance of a pole of S, where the difference is
        unbounded.
    """
    k = complex(k)
    if k.imag <= 0:
        raise ValueError("resolvent difference defined for Im k > 0")
    s = build(interaction)
    F = f_transform(g, k)
    pk = s.p(k)
    if s._near_root(abs(pk), abs(k)):
        raise AtEigenvalue(f"p({k}) within tolerance of zero")
    theta = 2 * (1 + 1j * k)
    M = s.interaction.matrix - theta * s.det_t * np.eye(2)
    vec = _W @ M @ np.array([F.plus, F.minus]) / pk
    return math.sqrt((abs(vec[0]) ** 2 + abs(vec[1]) ** 2) / k.imag)


def probe_nodes(n):
    """Nodes the probe integrates on when asked for n: n rounded up to odd."""
    return n + 1 if n % 2 == 0 else n


def _simpson(x, fill):
    """scipy.integrate.simpson(y, x=x) for an odd number of nodes, bit for bit.

    fill(start, stop, out) writes y[start:stop] into out, a block of _BLOCK
    node triples at a time, so y is never held whole; each block's last node
    is carried over as the next one's first. The terms are those of the
    x-given branch of scipy 1.17.1's _basic_simpson (taken for an odd node
    count) operation for operation; one np.sum adds them in scipy's order.
    """
    m = (len(x) - 1) // 2
    terms = np.empty(m)
    y = np.empty(min(len(x), 2 * _BLOCK + 1))
    bufs = np.empty((7, min(m, _BLOCK)))
    nonzero = np.empty(min(m, _BLOCK), dtype=bool)
    for a in range(0, m, _BLOCK):
        b = min(a + _BLOCK, m)
        h0, h1, hsum, hprod, q, w0, w1 = bufs[:, : b - a]
        mask = nonzero[: b - a]
        first = min(a, 1)
        if first:  # node 2 * a ended the block before, which was whole
            y[0] = y[-1]
        fill(2 * a + first, 2 * b + 1, y[first : 2 * (b - a) + 1])
        xc = x[2 * a : 2 * b + 1]
        np.subtract(xc[1::2], xc[0:-1:2], out=h0)
        np.subtract(xc[2::2], xc[1::2], out=h1)
        np.add(h0, h1, out=hsum)
        np.multiply(h0, h1, out=hprod)
        # h0 / h1, 1 / (h0 / h1) and hsum / hprod are 0 where scipy's divisor is
        q.fill(0)
        np.true_divide(h0, h1, out=q, where=np.not_equal(h1, 0, out=mask))
        w0.fill(0)
        np.true_divide(1.0, q, out=w0, where=np.not_equal(q, 0, out=mask))
        np.subtract(2.0, w0, out=w0)
        w1.fill(0)
        np.true_divide(hsum, hprod, out=w1, where=np.not_equal(hprod, 0, out=mask))
        np.multiply(hsum, w1, out=w1)
        w2 = np.subtract(2.0, q, out=q)
        # hsum / 6.0 * (y0 * w0 + y1 * w1 + y2 * w2)
        np.true_divide(hsum, 6.0, out=hsum)
        np.multiply(y[0 : 2 * (b - a) : 2], w0, out=w0)
        np.multiply(y[1 : 2 * (b - a) : 2], w1, out=w1)
        np.add(w0, w1, out=w0)
        np.multiply(y[2 : 2 * (b - a) + 1 : 2], w2, out=w2)
        np.add(w0, w2, out=w0)
        np.multiply(hsum, w0, out=terms[a:b])
    return np.sum(terms)


def similarity_integral_probe(interaction, epsilon, xi_range, n=200001):
    """eps times the integral of the squared difference norm along z = xi + i eps.

    The test functions are the unit-rate one-sided exponentials e^{-x} on
    (0, inf) and e^{x} on (-inf, 0); k is the principal square root of z.
    The integral is taken on probe_nodes(n) nodes.
    Compare values across decreasing epsilon: a bounded family is evidence
    of similarity to a self-adjoint operator, growth like 1/eps locates a
    spectral singularity. Evidence only, not a certificate.

    Memory: the nodes (8 bytes per node), the (n - 1) / 2 Simpson terms
    (4 bytes per node) and the buffers of one block of _BLOCK node triples,
    about 1.1 MB; the integrand is never held whole.

    Raises
    ------
    ValueError
        If epsilon is not finite and positive, xi_range is not finite with
        A < B and a finite width B - A, or n < 16; or if the arithmetic on
        them overflows, divides by zero or turns invalid.
    AtEigenvalue
        If the sweep line passes through a pole of S.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    lo, hi = xi_range
    if not -math.inf < lo < hi < math.inf:
        raise ValueError("xi_range must be finite with A < B")
    if not hi - lo < math.inf:
        raise ValueError("xi_range must have a finite width B - A")
    if n < 16:
        raise ValueError("need at least 16 quadrature nodes")
    n = probe_nodes(n)
    s = build(interaction)
    c0, c1, c2 = s.p_coeffs
    D = s.det_t
    t00, m01, m10, t11 = s.interaction._entries
    xi = np.linspace(lo, hi, n)
    cbufs = np.empty((5, min(n, 2 * _BLOCK + 1)), dtype=complex)
    fbufs = np.empty((2, min(n, 2 * _BLOCK + 1)))

    def integrand(start, stop, out):
        # the ufuncs of the integrand in their order, into this probe's buffers
        k, ik, u, v, w = cbufs[:, : stop - start]
        abs_p, g = fbufs[:, : stop - start]
        np.sqrt(np.add(xi[start:stop], 1j * epsilon, out=k), out=k)
        np.multiply(1j, k, out=ik)
        theta = np.multiply(2, np.add(1, ik, out=u), out=u)
        p = np.add(c0, np.multiply(np.add(c1, np.multiply(c2, k, out=v), out=v), k, out=v), out=v)
        np.abs(p, out=abs_p)
        if s._near_root(abs_p, np.abs(k, out=g)).any():
            raise AtEigenvalue("sweep line passes through a pole")
        theta_d = np.multiply(theta, D, out=u)
        m00 = np.subtract(t00, theta_d, out=v)
        m11 = np.subtract(t11, theta_d, out=w)
        # Frobenius norm of W M, with F g proportional to each basis vector
        fro2 = np.square(np.abs(np.add(m00, m10, out=u), out=out), out=out)
        np.add(fro2, np.square(np.abs(np.add(m01, m11, out=u), out=g), out=g), out=fro2)
        np.add(fro2, np.square(np.abs(np.subtract(m10, m00, out=u), out=g), out=g), out=fro2)
        np.add(fro2, np.square(np.abs(np.subtract(m11, m01, out=u), out=g), out=g), out=fro2)
        # fro2 / (k.imag * abs_p ** 2 * np.abs(1 - 1j * k) ** 2)
        den = np.multiply(k.imag, np.square(abs_p, out=abs_p), out=abs_p)
        np.multiply(den, np.square(np.abs(np.subtract(1, ik, out=u), out=g), out=g), out=den)
        np.true_divide(fro2, den, out=out)

    # an overflow, an invalid operation or a division by zero would leave a
    # value resting on inf, NaN or zeroed Simpson weights
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return float(epsilon * _simpson(xi, integrand))
    except FloatingPointError as exc:
        # a pole anywhere on the line is reported ahead of the overflow,
        # wherever the blocks end: the blocks are run again, quietly, to find it
        with np.errstate(all="ignore"):
            _simpson(xi, integrand)
        raise ValueError(
            f"probe arithmetic leaves the float range at epsilon = {epsilon}, xi in [{lo}, {hi}] ({exc})"
        ) from None
