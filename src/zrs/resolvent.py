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
while a real spectral singularity makes the probe grow like 1/eps. Their
transforms are i / (k + i) times a basis vector, and W is sqrt(2) times a
unitary, so the two squared norms add up to

    (|p'(k) / 2|^2 + C) / (Im k |p(k)|^2 |k + i|^2),
    C = |t00 - t11|^2 + 2 |t01|^2 + 2 |t10|^2,

as 2 |T - theta_k D sigma0|_F^2 = |2 theta_k D - tr T|^2 + C and
2 theta_k D - tr T = -i p'(k) / 2. p and p' are taken from T's eigenvalues
lam+-, unmerged, not from the coefficients of p, whose constant term
1 - 4 gamma0 + 4 D cancels near a lam of 1/2. Each factor of p,
1 - theta_k lam = (1 - 2 lam) - 2i lam k, is mu (k - r) with r its root, and
p'/2 is, up to a unit, c' + mu' k with |mu'| = |mu+ mu-|, so that

    (|k - r'|^2 + C / |mu+ mu-|^2) / (Im k |k - r+|^2 |k - r-|^2 |k + i|^2)

is the integrand, with the weights |mu|^2 folded into one scalar per probe.
Each |k - r|^2 is (Re k - Re r)^2 + (Im k - Im r)^2, and on the line,
|k|^2 = |z|, so the probe takes |k + i|^2 as (|z| + 1) + 2 Im k, whose
terms are all positive: each within 6 ulp of its complex abs squared. A
root past 2^_FAR, of a tiny lam or D, is taken with k scaled by a power of
two, exactly. The one complex abs per node is numpy's of z, which scales
internally; every other step runs on contiguous float buffers.

Only f_transform with a custom test function loads scipy, when it is
called; the probe integrates without it.
"""

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .errors import AtEigenvalue, NonConvergent
from .smatrix import _factor, build

_TAIL_THRESHOLD = 1e-8
_TRUNCATION = 40.0
# node triples per block of _simpson: the probe's integrand on a block's
# 2 * _BLOCK + 1 nodes and all of its buffers, about 0.58 MB, stay in cache
_BLOCK = 4500
# a root of the integrand's forms past 2^_FAR in modulus is taken with k scaled by a power of two
_FAR = 64


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
        if self.kind is TestFunctionKind.CUSTOM:
            out = self.func(x)
        else:  # the exponential on the support only: off it, it can overflow
            plus = self.kind is TestFunctionKind.PLUS_EXPONENTIAL
            on = x > 0 if plus else x < 0
            out = np.zeros(x.shape, dtype=complex)
            out[on] = np.exp((-1j if plus else 1j) * np.conj(self.k) * (x[on] + 0j))
        return complex(out) if np.ndim(out) == 0 else out


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
        return FTransform(1j / (k - complex(g.k).conjugate()), 0j)
    if g.kind is TestFunctionKind.MINUS_EXPONENTIAL:
        return FTransform(0j, 1j / (k - complex(g.k).conjugate()))
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
    # plus integrates e^{iks} g over (0, cutoff), minus e^{-iks} g over (-cutoff, 0)
    plus, minus = (
        quad(lambda s: g.func(s) * np.exp(sign * 1j * k * s), a, b, complex_func=True, epsabs=1e-10, limit=200)[0]
        for sign, a, b in ((1, 0, cutoff), (-1, -cutoff, 0))
    )
    return FTransform(complex(plus), complex(minus))


def resolvent_diff_norm(interaction, k, g):
    """L2 norm of the resolvent difference applied to g, at z = k^2.

    Raises
    ------
    AtEigenvalue
        If k is within tolerance of a root of p, where the difference, with no
        k to cancel one, is unbounded.
    ValueError
        If the norm is not finite, as F g, p(k) or their products leave the
        float range.
    """
    k = complex(k)
    if k.imag <= 0:
        raise ValueError("resolvent difference defined for Im k > 0")
    s = build(interaction)
    try:
        F = f_transform(g, k)
        if s._at_pole(k, s.lams):
            raise AtEigenvalue(f"k = {k} within tolerance of a root of p")
        e = 2.0 ** max(math.frexp(abs(s.det_t))[1] - 1, 0)  # near |D|: T, theta_k D and p over e in range, exactly
        (a, b, c, d), (lam1, lam2) = (t / e for t in s.interaction._entries), s._eigenvalues
        theta_d, p = 2 * (1 + 1j * k) * (s.det_t / e), _factor(lam1, k) * (_factor(lam2, k) / e)  # inf p: NaN, not 0
        x, y = ((a - theta_d) * F.plus + b * F.minus) / p, (c * F.plus + (d - theta_d) * F.minus) / p
        norm = math.hypot(abs(x + y), abs(y - x)) / math.sqrt(k.imag)  # W (x, y) = (x + y, y - x)
    except (OverflowError, ZeroDivisionError):  # abs() past the float range, or p(k) = 0
        norm = math.nan
    if not math.isfinite(norm):
        raise ValueError(f"resolvent difference leaves the float range at k = {k}")
    return norm


def probe_nodes(n):
    """Nodes the probe integrates on when asked for n: n rounded up to odd."""
    return n + 1 if n % 2 == 0 else n


def _simpson(h, n, fill):
    """Composite Simpson's rule on n equally spaced nodes h apart, n odd.

    fill(start, stop, out) writes y[start:stop] into out, a block of _BLOCK
    node triples at a time, so y is never held whole; each block's last node
    is carried over as the next one's first. Each triple's y0 + 4 y1 + y2 is
    kept and one np.sum adds them all, so where blocks end moves no bit.
    """
    m = (n - 1) // 2
    terms = np.empty(m)
    y = np.empty(min(n, 2 * _BLOCK + 1))
    for a in range(0, m, _BLOCK):
        b = min(a + _BLOCK, m)
        first = min(a, 1)
        if first:  # node 2 * a ended the block before, which was whole
            y[0] = y[-1]
        fill(2 * a + first, 2 * b + 1, y[first : 2 * (b - a) + 1])
        y0, y1, y2 = y[0 : 2 * (b - a) : 2], y[1 : 2 * (b - a) : 2], y[2 : 2 * (b - a) + 1 : 2]
        t = terms[a:b]
        np.add(np.add(y0, np.multiply(y1, 4, out=y1), out=t), y2, out=t)
    return h / 3 * np.sum(terms)


def _sqrt_line(xi, abs_z, epsilon, re, im):
    """The principal k = sqrt(z) into re + i im, for z = xi + i epsilon of modulus abs_z, ascending xi and epsilon > 0.

    k, in real arithmetic, is numpy's complex sqrt within 2 ulp in each
    part, in about a third of its time: with t = sqrt(|z| / 2 + |xi| / 2), k
    is epsilon / (2t) + it where xi < 0, t + i epsilon / (2t) where xi > 0
    and t + it at xi = 0, so no difference cancels. Halving before the sum
    keeps it in range unless |z| overflows. Where xi and epsilon are all
    below 2^-1000, so that |z| / 2 can be subnormal, k is that of the line
    scaled by 2^1000, scaled by 2^-500: both exact. im may be xi itself.
    """
    if max(-xi[0], xi[-1], epsilon) < 2.0**-1000:
        xi, epsilon = xi * 2.0**1000, epsilon * 2.0**1000
        _sqrt_line(xi, np.abs(xi + 1j * epsilon), epsilon, re, im)
        np.multiply(re, 2.0**-500, out=re)
        np.multiply(im, 2.0**-500, out=im)
        return
    # the nodes ascend: xi < 0 before j, xi = 0 from j to j0
    j, j0 = np.searchsorted(xi, 0.0), np.searchsorted(xi, 0.0, "right")
    np.multiply(abs_z, 0.5, out=re)
    np.multiply(xi, 0.5, out=im)
    np.sqrt(np.subtract(re[:j], im[:j], out=im[:j]), out=im[:j])
    np.true_divide(0.5 * epsilon, im[:j], out=re[:j])
    np.sqrt(np.add(re[j:], im[j:], out=re[j:]), out=re[j:])
    np.true_divide(0.5 * epsilon, re[j0:], out=im[j0:])
    im[j:j0] = re[j:j0]


def _form(c, m, f):
    """(e, r 2^-e, |mu| 2^e) of the form c + mu k, mu = m 2^f, and its root r = -c / mu.

    |c + mu k|^2 = (|mu| 2^e)^2 |k 2^-e - r 2^-e|^2 for any integer e. e is
    0 unless |r| passes 2^_FAR, as where lam or D is tiny; then 2^e is near
    |r|, so that r 2^-e and |mu| 2^e stay in range, and every scaling is
    exact. Where |mu| 2^e underflows to 0, r 2^-e is taken as 0.
    """
    e = math.frexp(abs(c))[1] - math.frexp(abs(m))[1] - f if c else 0
    e = e if e > _FAR else 0
    d = complex(math.ldexp(m.real, f + e), math.ldexp(m.imag, f + e))
    return e, -c / d if d else 0j, abs(d)


def _integrand_scalars(lams, C):
    """The scalars of the probe's integrand (slope |k 2^-e' - r'|^2 + A) / (Im k |k + i|^2 prod |k 2^-e - r|^2).

    lams are T's eigenvalues, unmerged. p is the product of the factors
    1 - theta_k lam = (1 - 2 lam) - 2i lam k = mu (k - r) of those that are
    not 0, and p'/2 is, up to a unit, c' + mu' k with
    c' = -(lam+ (1 - 2 lam-) + lam- (1 - 2 lam+)) and mu' = 4i lam+ lam-,
    so that |mu'| = |mu+| |mu-|. The weights |mu|^2 then divide out once per
    probe: returns (roots, slope, root_dp, A) with roots the (e, r 2^-e) of each
    factor's form, root_dp that of p'/2, slope = 2^(2 (e' - e+ - e-)) and
    A = C / (|mu+| 2^e+ |mu-| 2^e-)^2. With one lam at 0, |p'/2|^2 = |lam|^2,
    so the slope is 0 and A = 2^-2e / 4 + C / (|mu| 2^e)^2; with both, A = C.
    Each lam is written m 2^f with |m| in [1/2, 1), exactly, so that no
    product of them leaves the range.
    """
    parts = []
    for lam in lams:
        if lam:
            f = math.frexp(abs(lam))[1]
            parts.append((lam, complex(math.ldexp(lam.real, -f), math.ldexp(lam.imag, -f)), f))
    forms = [_form(1 - 2 * lam, -2j * m, f) for lam, m, f in parts]
    roots = tuple((e, r) for e, r, _ in forms)
    if not forms:
        return roots, 0.0, None, C
    if len(forms) == 1:
        e, _, w = forms[0]
        return roots, 0.0, None, math.ldexp(0.25, -2 * e) + C / w / w
    (lam1, m1, f1), (lam2, m2, f2) = parts
    e, r, w = _form(-(lam1 * (1 - 2 * lam2) + lam2 * (1 - 2 * lam1)), 4j * m1 * m2, f1 + f2)
    (e1, _, w1), (e2, _, w2) = forms
    return roots, math.ldexp(1.0, 2 * (e - e1 - e2)) if w else 0.0, (e, r), C / (w1 * w2) / (w1 * w2)


def _distance2(re, im, e, r, out, tmp):
    """|k 2^-e - r|^2 into out, for k = re + i im, as (Re k 2^-e - Re r)^2 + (Im k 2^-e - Im r)^2."""
    if e:
        re, im = np.multiply(re, math.ldexp(1.0, -e), out=out), np.multiply(im, math.ldexp(1.0, -e), out=tmp)
    np.square(np.subtract(re, r.real, out=out), out=out)
    return np.add(out, np.square(np.subtract(im, r.imag, out=tmp), out=tmp), out=out)


def similarity_integral_probe(interaction, epsilon, xi_range, n=200001):
    """eps times the integral of the squared difference norm along z = xi + i eps.

    The test functions are the unit-rate one-sided exponentials e^{-x} on
    (0, inf) and e^{x} on (-inf, 0); k is the principal square root of z.
    The integral is taken on probe_nodes(n) nodes.
    Compare values across decreasing epsilon: a bounded family is evidence
    of similarity to a self-adjoint operator, growth like 1/eps locates a
    spectral singularity. Evidence only, not a certificate.

    The integrand is that of the module docstring: |p|^2 from the factors
    of p, each as the squared distance of k to its root on float buffers.

    Memory: the (n - 1) / 2 Simpson terms (4 bytes per node) and the
    buffers of one block of _BLOCK node triples, one complex and five float
    node arrays besides the block of the integrand, about 0.58 MB; a default
    probe peaks at 1.38 MB under tracemalloc. A block whose stretch of the
    line is far enough from the root of every recorded factor of p skips the
    per-node pole test, and only a block that does not builds a complex k.

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
    t00, t01, t10, t11 = s.interaction._entries
    lo, hi = float(lo), float(hi)
    h = (hi - lo) / (n - 1)
    # A node passes the pole test of a recorded factor 1 - theta_k lam = -2i lam (k - k_j), k_j its root, where
    # |k - k_j| <= tol (1 / (2 |lam|) + 1 + |k|), and |k| <= kmax = sqrt(max(-A, B) + eps) on the line. As |k - k_j| >=
    # |k^2 - k_j^2| / (|k| + |k_j|), no node of a block whose stretch of the line is farther from every k_j^2 than
    # (kmax + |k_j|) times that bound at kmax passes. 16 ulps on tol cover the rounding of k, of the test and of k_j
    # and the distance, 1e-9 margins that of the bound, and an inf or NaN bound skips no block.
    kmax, window = math.sqrt(max(-lo, hi) + epsilon) * (1 + 1e-9), (s.tol + 16 * math.ulp(1.0)) * (1 + 1e-9)
    poles = [(k_j * k_j, (kmax + abs(k_j)) * window * (0.5 / abs(lam) + 1 + kmax))
             for (k_j, _), lam in zip(s.roots, s.lams)]
    index = np.arange(min(n, 2 * _BLOCK + 1), dtype=float)
    z = np.empty(index.size, dtype=complex)
    z.imag = epsilon
    fbufs = np.empty((4, index.size))
    roots, slope, root_dp, A = (), 0.0, None, 0.0  # set in the try below, where an overflow raises

    def integrand(start, stop, out):
        re, den, u, v = fbufs[:, : stop - start]
        # node i is lo + i h, the last one hi, as np.linspace lays them out; i / (n - 1) (hi - lo) where h is 0
        xi = im = out  # out, contiguous as re, holds the nodes, then Im k, then the integrand
        i = np.add(index[: stop - start], start, out=xi)
        np.add(np.multiply(i, h, out=xi) if h else np.multiply(i / (n - 1), hi - lo, out=xi), lo, out=xi)
        if stop == n:
            xi[-1] = hi
        clear = all(math.hypot(max(xi[0] - z0.real, z0.real - xi[-1], 0), epsilon - z0.imag) > r for z0, r in poles)
        z[: stop - start].real = xi
        _sqrt_line(xi, np.abs(z[: stop - start], out=den), epsilon, re, im)
        if not clear and np.any(s._at_pole(re + 1j * im, s.lams)):
            raise AtEigenvalue("sweep line passes through a pole")
        # Im k |k + i|^2 prod |k 2^-e - r|^2, |k + i|^2 = (|z| + 1) + 2 Im k
        np.multiply(np.add(np.add(den, 1, out=den), np.multiply(im, 2, out=u), out=den), im, out=den)
        for e, r in roots:
            np.multiply(den, _distance2(re, im, e, r, u, v), out=den)
        if slope:  # (slope |k 2^-e' - r'|^2 + A) / den
            num = _distance2(re, im, *root_dp, u, v)
            if slope != 1:
                np.multiply(num, slope, out=num)
            np.true_divide(np.add(num, A, out=num), den, out=out)
        else:
            np.true_divide(A, den, out=out)

    # an overflow, an invalid operation or a division by zero would leave a
    # value resting on inf or NaN
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            C = np.square(np.abs(np.subtract(t00, t11))) + 2 * (np.square(np.abs(t01)) + np.square(np.abs(t10)))
            roots, slope, root_dp, A = _integrand_scalars(s._eigenvalues, C)
            return float(epsilon * _simpson(h, n, integrand))
    except (FloatingPointError, OverflowError) as exc:  # OverflowError: math.ldexp on the scalars
        # a pole anywhere on the line is reported ahead of the overflow,
        # wherever the blocks end: the blocks are run again, quietly, to find it
        with np.errstate(all="ignore"):
            _simpson(h, n, integrand)
        raise ValueError(
            f"probe arithmetic leaves the float range at epsilon = {epsilon}, xi in [{lo}, {hi}] ({exc})"
        ) from None
