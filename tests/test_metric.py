import math

import numpy as np
import pytest

from oracles import exact_poles, theta_roots
from zrs.classifier import Region, Sheet, Similarity, classify
from zrs.errors import DegenerateGamma, NotApplicable
from zrs.interaction import Interaction
from zrs.metric import (
    Applicability,
    MetricSpec,
    _applicability,
    construct,
    cosh_chi_from_poles,
    metric_matrix,
    verify_intertwining,
)
from zrs.pauli import PauliVector
from zrs.smatrix import build


GOLDEN = Interaction.from_gamma(PauliVector(1 / 8, 1 / 4, 1j / 8, 0))


def random_applicable(rng):
    # orthogonal u, v with |v| < |u|, real gamma0 away from the
    # one-pole boundary
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(3)
    v -= (v @ u) * u
    v *= rng.uniform(0.05, 0.95) / np.linalg.norm(v)
    g0 = rng.uniform(-2.0, 2.0)
    g = u + 1j * v
    return Interaction.from_gamma(PauliVector(g0, g[0], g[1], g[2]))


def rejection(interaction):
    """The reason construct gives for not applying to interaction."""
    with pytest.raises(NotApplicable) as excinfo:
        construct(interaction)
    return str(excinfo.value)


def test_golden_two_pole_case():
    spec = construct(GOLDEN)
    assert spec.applicability is Applicability.TWO_IMAGINARY_POLES
    assert np.allclose(spec.alpha, [0, 0, -1])
    assert spec.kappa == pytest.approx(0.5)
    assert spec.chi == pytest.approx(math.atanh(0.5))
    E = metric_matrix(spec)
    assert np.allclose(E, np.diag([1.0, 3.0]) / math.sqrt(3), atol=1e-15)
    assert verify_intertwining(spec) < 1e-15
    assert cosh_chi_from_poles(spec) == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    assert cosh_chi_from_poles(spec) == pytest.approx(math.cosh(spec.chi), abs=1e-12)


def test_theta_roots():
    # the roots of p in the theta variable, which SMatrixFn records beside
    # its roots and cosh_chi_from_poles reads; the product-form oracle takes
    # the same roots from gamma
    s = build(GOLDEN)
    theta_minus, theta_plus = s.thetas
    assert np.isclose(theta_plus, 8 / (1 + np.sqrt(3)))
    assert np.isclose(theta_minus, 8 / (1 - np.sqrt(3)))
    assert theta_roots(s.interaction.gamma, s.tol) == pytest.approx((theta_plus, theta_minus), rel=1e-15)
    assert [k for k, _ in s.roots] == [1j * (1 - t / 2) for t in s.thetas]


def test_one_pole_case():
    i = Interaction.from_gamma(PauliVector(0.4, 0.5, 0.3j, 0))
    spec = construct(i)
    assert spec.applicability is Applicability.ONE_IMAGINARY_POLE
    assert verify_intertwining(spec) < 1e-14
    with pytest.raises(NotApplicable):
        cosh_chi_from_poles(spec)


def test_rejects_self_adjoint():
    assert rejection(Interaction.from_abcd(-1, 0, 0, 0)) == "already self-adjoint"


def test_rejects_complex_gamma0():
    i = Interaction.from_gamma(PauliVector(0.1 + 0.2j, 0.5, 0.3j, 0))
    assert rejection(i) == "gamma0 not real"


def test_rejects_complex_square():
    # Re and Im of the space part not orthogonal
    i = Interaction.from_gamma(PauliVector(0.2, 0.5 + 0.1j, 0, 0))
    assert rejection(i) == "sum of gamma_j^2 not real"


def test_rejects_nonpositive_square():
    i = Interaction.from_gamma(PauliVector(0.3, 0.2, 0.5j, 0))
    assert rejection(i) == "sum of gamma_j^2 not positive"
    # |u| = |v| makes the square vanish
    i = Interaction.from_gamma(PauliVector(0.3, 0.3, 0.3j, 0))
    assert rejection(i) == "sum of gamma_j^2 not positive"


def test_rejects_double_pole():
    # T = [[1000.3, b], [-b, -999.7]], b = 1e3 (1 - 5e-15): x^2 = 1e6 and bc = -b^2
    # cancel to xi^2 = 1e-8, 5e-15 of the terms, below 100 tol (|x|^2 + |bc|): a double root
    i = Interaction.from_gamma(PauliVector(0.3, 0, 1e3j * (1 - 5e-15), 1e3))
    assert rejection(i) == "pole of order 2"
    # a scalar T, whose double root S reports as one simple pole, has no gap
    # of two roots to read cosh chi off
    i = Interaction.from_gamma(PauliVector(1e9, 0.05, 0.025j, 0))
    assert rejection(i) == "pole of order 2"


def test_close_simple_poles_are_two_poles():
    # roots 1/(1e4 -+ 4e-5) in theta, 8e-9 apart, relative: two simple
    # imaginary poles, on which classify agrees; cosh chi read off them loses
    # about eps |gamma0 / xi| = 5.5e-8, relative, to the rounding of each root
    i = Interaction.from_gamma(PauliVector(1e4, 5e-5, 3e-5j, 0))
    spec = construct(i)
    assert spec.applicability is Applicability.TWO_IMAGINARY_POLES
    assert cosh_chi_from_poles(spec) == pytest.approx(math.cosh(spec.chi), rel=1e-7)
    c = classify(i)
    assert (c.similarity, c.region) == (Similarity.SIMILAR_TO_SELF_ADJOINT, Region.III)
    assert [(p.order, p.sheet, p.location.real) for p in c.poles] == [(1, Sheet.PHYSICAL, 0.0)] * 2


def test_barely_split_poles_are_two_poles():
    # T = [[100, 200 - 1e-11], [1.0004e-11, 100]] from gamma = (100, 100, 100i (1 - 1e-13), 0):
    # x = 0, so xi^2 = bc = 2.0e-9 cancels nothing, and the distinct real eigenvalues
    # 100 +- 4.5e-5 give two simple imaginary poles, where they are for the exact T
    i = Interaction.from_gamma(PauliVector(100, 100, 100j * (1 - 1e-13), 0))
    assert construct(i).applicability is Applicability.TWO_IMAGINARY_POLES
    c = classify(i)
    assert (c.similarity, c.region) == (Similarity.SIMILAR_TO_SELF_ADJOINT, Region.III)
    assert [(p.order, p.sheet, p.location.real) for p in c.poles] == [(1, Sheet.PHYSICAL, 0.0)] * 2
    assert [p.location for p in c.poles] == sorted(exact_poles(i.matrix.tolist()), key=lambda k: k.imag)
    assert c.exceptional_points == ()


def test_cosh_chi_from_poles_at_large_scale():
    # the gap of the poles in theta, 2 xi / D, does not round away with the
    # scale of T, nor do the norms overflow
    for scale in (1, 100):
        i = Interaction.from_gamma(PauliVector(3e15 * scale, 2e15 * scale, 1.5e15j * scale, 0))
        spec = construct(i)
        assert spec.applicability is Applicability.TWO_IMAGINARY_POLES
        assert math.cosh(spec.chi) == pytest.approx(1.5118578920369088)
        assert cosh_chi_from_poles(spec) == pytest.approx(math.cosh(spec.chi), rel=1e-14)


def test_rejects_kappa_that_rounds_to_one():
    # T = [[0, 0], [c, 1]] has eigenvalues 0 and 1 and kappa = (1 + 1/c^2)^(-1/2): from
    # about c = 1e8 it rounds to 1, and chi = atanh(kappa) would be infinite
    for c in (1e8, 1e9, 1e12):
        assert rejection(Interaction.from_matrix([[0, 0], [c, 1]])) == "E not representable: kappa rounds to 1"
    spec = construct(Interaction.from_matrix([[0, 0], [1e7, 1]]))
    assert spec.kappa < 1 and math.isfinite(spec.chi)


def test_collinear_parts_raise():
    # v parallel to u, small enough that the orthogonality test passes
    # but large enough that the matrix is not hermitian
    i = Interaction.from_gamma(PauliVector(0.5, 0.3 * (1 + 5e-10j), 0, 0))
    # the construction applies; construct raises before it returns a spec
    assert _applicability(build(i)) is Applicability.TWO_IMAGINARY_POLES
    with pytest.raises(DegenerateGamma):
        construct(i)


def test_intertwining_is_exact_relation():
    spec = construct(GOLDEN)
    E = metric_matrix(spec)
    T = GOLDEN.matrix
    assert np.abs(T.conj().T @ E - E @ T).max() < 1e-15
    assert np.linalg.eigvalsh(E).min() > 0


def test_verify_intertwining_is_inf_for_e_not_positive_definite_hermitian():
    # hand-built specs that construct never returns: a complex alpha makes E
    # not hermitian (on the diagonal, and off it), and alpha = (0, 0, 3) at
    # chi = 0.5 gives E = diag(cosh + 3 sinh, cosh - 3 sinh), hermitian with
    # E11 = -0.44, so not positive definite
    spec = construct(GOLDEN)
    for alpha, chi in (((0, 0, 1j), spec.chi), ((0.6, 0.8j, 0), spec.chi), ((0, 0, 3), 0.5)):
        hand_built = MetricSpec(alpha=alpha, chi=chi, kappa=math.tanh(chi), applicability=spec.applicability, s=spec.s)
        assert verify_intertwining(hand_built) == math.inf, alpha
    E = metric_matrix(MetricSpec((0, 0, 3), 0.5, math.tanh(0.5), spec.applicability, spec.s))
    assert np.allclose(E, E.conj().T) and np.linalg.eigvalsh(E).min() < 0


def test_random_applicable_interactions():
    rng = np.random.default_rng(7)
    two_pole = 0
    for _ in range(60):
        i = random_applicable(rng)
        spec = construct(i)  # raises NotApplicable, with its reason, if not applicable
        kind = spec.applicability
        assert verify_intertwining(spec) < 1e-12
        E = metric_matrix(spec)
        assert np.linalg.eigvalsh(E).min() > 0
        if kind is Applicability.TWO_IMAGINARY_POLES:
            two_pole += 1
            got = cosh_chi_from_poles(spec)
            assert got == pytest.approx(math.cosh(spec.chi), abs=1e-10)
    assert two_pole > 40
