import numpy as np
import pytest

from oracles import (
    DegenerateSystem,
    OnImaginaryAxis,
    pauli_components,
    scattering_coefficients,
    smatrix_from_coefficients,
)
from zrs.errors import AtPole
from zrs.interaction import FRIEDRICHS, KREIN, Interaction
from zrs.pauli import compose
from zrs.smatrix import build


def product_form(T, k):
    # [sigma0 - 2(1-ik)T][sigma0 - 2(1+ik)T]^{-1}, assembled with plain numpy
    T = np.asarray(T, dtype=complex)
    return (np.eye(2) - 2 * (1 - 1j * k) * T) @ np.linalg.inv(
        np.eye(2) - 2 * (1 + 1j * k) * T
    )


def random_interaction(rng, scale=1.0):
    m = scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return Interaction.from_matrix(m)


def test_characteristic_polynomial_is_det():
    rng = np.random.default_rng(31)
    for _ in range(50):
        i = random_interaction(rng)
        s = build(i)
        k = complex(rng.normal(), rng.normal())
        want = np.linalg.det(np.eye(2) - 2 * (1 + 1j * k) * i.matrix)
        assert np.isclose(s.p(k), want, atol=1e-10 * (1 + abs(want)))


def test_characteristic_roots():
    s = build(Interaction.from_gamma([1 / 8, 1 / 4, 1j / 8, 0]))
    assert np.isclose(s.det_t, -1 / 32)
    assert np.isclose(s.xi, np.sqrt(3) / 8)
    assert np.isclose(s.theta_plus, 8 / (1 + np.sqrt(3)))
    assert np.isclose(s.theta_minus, 8 / (1 - np.sqrt(3)))


def test_evaluate_matches_product_form():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(300):
        i = random_interaction(rng)
        s = build(i)
        k = complex(rng.normal(), rng.normal())
        if abs(s.p(k)) < 1e-6:
            continue
        got = s.evaluate(k)
        want = product_form(i.matrix, k)
        assert np.abs(got - want).max() <= 1e-10 * (1 + np.abs(want).max())
        checked += 1
    assert checked > 250


def test_delta_smatrix_closed_form():
    s = build(Interaction.from_abcd(1, 0, 0, 0))
    for k in (0.3, 1.0, 2.0 + 0.5j, -1.7):
        want = np.eye(2) + 2j * k / (1 - 2j * k) * np.ones((2, 2))
        assert np.allclose(s.evaluate(k), want, atol=1e-13)


def test_mixed_coupling_smatrix_is_constant():
    s = build(Interaction.from_abcd(0, 1, 0, 0))
    want = -0.5 * np.array([[1, 1], [3, -1]])
    flag, value = s.is_constant()
    assert flag
    assert np.allclose(value, want, atol=1e-15)
    # p(0) = 0 here, but S extends analytically; k = 0 must evaluate
    for k in (0.0, 0.83, -2.0 + 1.1j, 5j):
        assert np.allclose(s.evaluate(k), want, atol=1e-13)


def test_reference_extension_smatrices():
    s0 = build(FRIEDRICHS)
    s1 = build(KREIN)
    for k in (0.0, 1.2, -0.4 + 2j):
        assert np.allclose(s0.evaluate(k), np.eye(2))
        assert np.allclose(s1.evaluate(k), -np.eye(2))
    assert s0.is_constant() == (True, pytest.approx(np.eye(2)))
    flag, value = s1.is_constant()
    assert flag and np.allclose(value, -np.eye(2))


def test_constant_family_with_isotropic_space_part():
    # gamma0 = 1/4 with the space part squaring to 1/16
    g = [0.25, 0.15, 0.2j, np.sqrt(0.0625 - 0.15**2 + 0.04 + 0j)]
    s = build(Interaction.from_gamma(g))
    flag, value = s.is_constant()
    assert flag
    want = compose([0, -4 * g[1], -4 * g[2], -4 * g[3]])
    assert np.allclose(value, want, atol=1e-12)
    assert np.allclose(s.evaluate(1.3), want, atol=1e-12)


def test_nonconstant_for_isotropic_gamma_without_origin_root():
    # gamma0 = 0 with a complex isotropic space part: p is constant but S
    # grows linearly, so it must not be reported constant
    s = build(Interaction.from_matrix([[0, 1], [0, 0]]))
    flag, value = s.is_constant()
    assert not flag and value is None
    assert np.allclose(s.evaluate(1.0), np.eye(2) + 4j * np.array([[0, 1], [0, 0]]))


def test_evaluate_at_pole_raises():
    s = build(Interaction.from_abcd(1, 0, 0, 0))
    with pytest.raises(AtPole):
        s.evaluate(-0.5j)


def test_simple_pole_at_origin():
    # d = i: p has roots {0, 2}; the origin root cancels, k = 2 does not
    s = build(Interaction.from_abcd(0, 0, 0, 1j))
    assert np.allclose(s.evaluate(0.0), product_form_limit_at_zero(s))
    with pytest.raises(AtPole):
        s.evaluate(2.0)


def product_form_limit_at_zero(s, h=1e-7):
    # numerical limit along the imaginary axis
    T = s.interaction.matrix
    return (product_form(T, h * 1j) + product_form(T, -h * 1j)) / 2


def test_pauli_components_match_evaluate():
    rng = np.random.default_rng(23)
    for _ in range(200):
        i = random_interaction(rng)
        s = build(i)
        k = complex(rng.normal(), rng.normal())
        if abs(s.p(k)) < 1e-6:
            continue
        assert np.allclose(
            compose(pauli_components(s, k)), s.evaluate(k), atol=1e-9
        )


def test_pauli_components_degenerate_det():
    # det T = 0 branch
    s = build(Interaction.from_abcd(0, 1, 0, 0))
    assert np.allclose(compose(pauli_components(s, 0.7)), s.evaluate(0.7))
    s = build(Interaction.from_abcd(1, 0, 0, 0))
    assert np.allclose(compose(pauli_components(s, 0.7)), s.evaluate(0.7))


def test_scattering_coefficients_delta():
    # textbook reflection/transmission for the delta potential
    i = Interaction.from_abcd(1, 0, 0, 0)
    for k in (0.5, 1.0, 3.7):
        c = scattering_coefficients(i, k)
        assert np.isclose(c.r_right, 1 / (2j * k - 1))
        assert np.isclose(c.t_right, 2j * k / (2j * k - 1))
        assert np.isclose(c.r_left, c.r_right)
        assert np.isclose(c.t_left, c.t_right)
        assert np.isclose(c.phase, (1 - 1j * k) / (1 + 1j * k))


def test_reconstruction_matches_evaluate():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(200):
        i = random_interaction(rng)
        k = complex(rng.normal(), rng.normal())
        if abs(k.real) < 1e-2:
            continue
        s = build(i)
        try:
            c = scattering_coefficients(i, k)
            want = s.evaluate(k)
        except (DegenerateSystem, AtPole):
            continue
        got = smatrix_from_coefficients(c, k)
        assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())
        checked += 1
    assert checked > 150


def test_coefficients_reject_imaginary_axis():
    i = Interaction.from_abcd(1, 0, 0, 0)
    with pytest.raises(OnImaginaryAxis):
        scattering_coefficients(i, 1j)
    c = scattering_coefficients(i, 1.0)
    with pytest.raises(OnImaginaryAxis):
        smatrix_from_coefficients(c, 2j)


def test_coefficients_degenerate_at_real_pole():
    # d = i puts a pole of S at k = 2, where the linear system is singular
    i = Interaction.from_abcd(0, 0, 0, 1j)
    with pytest.raises(DegenerateSystem):
        scattering_coefficients(i, 2.0)


def test_unitarity_on_real_axis_for_hermitian():
    rng = np.random.default_rng(37)
    for _ in range(50):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        i = Interaction.from_matrix((m + m.conj().T) / 2)
        s = build(i)
        k = rng.normal()
        if abs(s.p(k)) < 1e-6:
            continue
        S = s.evaluate(k)
        assert np.allclose(S @ S.conj().T, np.eye(2), atol=1e-10)


def test_adjoint_symmetry():
    rng = np.random.default_rng(41)
    for _ in range(100):
        i = random_interaction(rng)
        k = complex(rng.normal(), rng.normal())
        s = build(i)
        s_adj = build(i.adjoint())
        if abs(s.p(k)) < 1e-6:
            continue
        assert np.allclose(
            s_adj.evaluate(-np.conj(k)), s.evaluate(k).conj().T, atol=1e-10
        )


def test_det_factorization():
    # det S(k) = p(-k) / p(k)
    rng = np.random.default_rng(43)
    for _ in range(100):
        i = random_interaction(rng)
        s = build(i)
        k = complex(rng.normal(), rng.normal())
        if abs(s.p(k)) < 1e-6:
            continue
        got = np.linalg.det(s.evaluate(k))
        want = s.p(-k) / s.p(k)
        assert np.isclose(got, want, atol=1e-10 * (1 + abs(want)))
