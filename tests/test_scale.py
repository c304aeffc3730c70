"""classify, metric, eval and probe across the scales of T, 10^-150 to 10^150.

Every family of T is drawn at a scale 10^U(-150, 150). Each subcommand's
library call must answer or raise one of its documented errors, with every
warning an error: no InternalInconsistency, no RuntimeWarning, no
exceptional point or non-real eigenvalue for a self-adjoint verdict, no
singularity at infinity for a (nearly) hermitian family, a unit
alpha wherever the metric applies, and cosh(chi) read off the poles where
construct's cosh(chi) is, to within the rounding of each route.
"""

import math
import warnings

import numpy as np
import pytest

from oracles import numpy_compose
from zrs.classifier import Region, Similarity, classify
from zrs.errors import AtEigenvalue, AtPole, DegenerateGamma, NotApplicable, NotRepresentable
from zrs.interaction import Interaction
from zrs.metric import Applicability, construct, cosh_chi_from_poles
from zrs.resolvent import similarity_integral_probe
from zrs.smatrix import build

EPS = 2.0**-52
DRAWS = 150


def _cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random(rng):
    return _cnormal(rng, 2, 2)


def _hermitian(rng):
    a = _cnormal(rng, 2, 2)
    return a + a.conj().T


def _hermitian_noise(rng):
    return _hermitian(rng) + _cnormal(rng, 2, 2) * 10.0 ** rng.uniform(-14, -6)


def _certificate(rng):
    # real gamma0, space part u + iv with v orthogonal to u and |v| = r |u|,
    # plus real noise of size 10^U(-15, -8)
    u, v = rng.normal(size=3), rng.normal(size=3)
    v -= (v @ u) / (u @ u) * u
    v *= rng.uniform(0, 0.99) * np.linalg.norm(u) / np.linalg.norm(v)
    return numpy_compose((rng.normal(), *(u + 1j * v))) + rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-15, -8)


def _jordan(rng):
    x = np.exp(2j * np.pi * rng.uniform())
    return np.array([[x, complex(*rng.normal(size=2))], [0, x]])


def _near_scalar(rng):
    s = complex(*rng.normal(size=2))
    return s * np.eye(2) + _cnormal(rng, 2, 2) * abs(s) * 10.0 ** rng.uniform(-14, -4)


def _hermitian_diag(rng):
    a = rng.choice((-1.0, 1.0))
    return np.diag([a, a * (1 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-16, -2))])


FAMILIES = {
    "random": _random,
    "hermitian": _hermitian,
    "hermitian-noise": _hermitian_noise,
    "certificate": _certificate,
    "jordan": _jordan,
    "near-scalar": _near_scalar,
    "hermitian-diag": _hermitian_diag,
}


def _check_classify(i, hermitian):
    c = classify(i)
    if c.similarity is Similarity.SELF_ADJOINT:
        assert c.exceptional_points == ()
        assert c.region is not Region.I
    if hermitian:
        # the eigenvalues of T are real, and both 0 only where T is: S is bounded at infinity
        assert not c.singularity_at_infinity


def _check_metric(i):
    try:
        spec = construct(i)
    except (NotApplicable, DegenerateGamma):
        return 0
    assert np.linalg.norm(spec.alpha) == pytest.approx(1, abs=1e-14)
    if spec.applicability is not Applicability.TWO_IMAGINARY_POLES:
        return 0
    # each theta root carries a few eps of itself, so their gap 2 xi / D
    # carries about eps |gamma0 / xi| of itself; cosh(atanh(kappa)) carries
    # about eps cosh(chi)^2
    g0, xi, want = spec.s.interaction.gamma.x0, spec.s.xi, math.cosh(spec.chi)
    bound = 16 * EPS * (1 + abs(g0 / xi) + want * want) * want
    assert abs(cosh_chi_from_poles(spec) - want) <= bound
    return 1


def _check_eval(i):
    s = build(i)
    for k in (0.5 + 0.25j, 3.0, -2 + 1e-3j):
        try:
            assert np.isfinite(s.evaluate(k)).all()
        except (AtPole, ValueError):
            pass


def _check_probe(i):
    try:
        assert math.isfinite(similarity_integral_probe(i, 0.1, (-1.0, 1.0), n=17))
    except (AtEigenvalue, ValueError):
        pass


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_scale_answers(name):
    rng = np.random.default_rng([2000, sorted(FAMILIES).index(name)])
    answered = two_pole = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(DRAWS):
            m = FAMILIES[name](rng) * 10.0 ** rng.uniform(-150, 150)
            i = Interaction.from_matrix(m)
            try:
                _check_classify(i, name.startswith("hermitian"))
            except NotRepresentable:
                continue
            answered += 1
            two_pole += _check_metric(i)
            _check_eval(i)
            _check_probe(i)
    assert answered == DRAWS
    if name == "certificate":
        assert two_pole > DRAWS // 4
