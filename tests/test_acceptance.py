"""Acceptance suite.

One test per advertised guarantee. Each test prints the measured figure
next to the tolerance it must meet, so a verbose run doubles as a report.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import numpy_compose, numpy_decompose, pauli_components
from zrs.classifier import Region, Sheet, Similarity, classify
from zrs.errors import NotRepresentable
from zrs.interaction import Interaction
from zrs.metric import (
    Applicability,
    construct,
    cosh_chi_from_poles,
    metric_matrix,
    verify_intertwining,
)
from zrs.pauli import PauliVector
from zrs.resolvent import custom, resolvent_diff_norm, similarity_integral_probe
from zrs.smatrix import build

I2 = np.eye(2, dtype=complex)


def phase_family(phi):
    return Interaction.from_abcd(-np.exp(1j * phi), -1, 1, np.exp(-1j * phi))


def product_form(t_matrix, k):
    left = I2 - 2 * (1 - 1j * k) * t_matrix
    right = I2 - 2 * (1 + 1j * k) * t_matrix
    return left @ np.linalg.inv(right)


def rel_err(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


def random_k(rng, avoid=(), radius=0.2):
    while True:
        k = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if all(abs(k - bad) > radius for bad in avoid):
            return k


def test_criterion_01_golden_s_matrices():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    t_delta = np.full((2, 2), 1 / 6, dtype=complex)
    t_mixed = np.array([[3, 1], [3, 1]], dtype=complex) / 8
    t_deriv = np.array([[1 - 1j, 1], [1, 1 - 1j]], dtype=complex) / (4 - 2j)
    t_phase = np.array([[(1 + 1j) / 4, 0.5], [0, (1 + 1j) / 4]], dtype=complex)
    cases = [
        (
            Interaction.from_abcd(1, 0, 0, 0),
            t_delta,
            lambda k: np.array([[1, 2j * k], [2j * k, 1]]) / (1 - 2j * k),
            (-0.5j,),
        ),
        (
            Interaction.from_matrix(t_mixed),
            t_mixed,
            lambda k: -0.5 * np.array([[1, 1], [3, -1]], dtype=complex),
            (0,),
        ),
        (
            Interaction.from_abcd(0, 0, 0, 1j),
            t_deriv,
            lambda k: product_form(t_deriv, k),
            (0, 2.0),
        ),
        (
            phase_family(np.pi / 2),
            t_phase,
            lambda k: product_form(t_phase, k),
            (-1.0,),
        ),
    ]
    worst = 0.0
    for interaction, t_frozen, closed, poles in cases:
        assert np.abs(interaction.matrix - t_frozen).max() < 1e-15
        s = build(interaction)
        for _ in range(25):
            k = random_k(rng, avoid=poles)
            worst = max(worst, rel_err(s.evaluate(k), closed(k)))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 1: worst entrywise relative error {worst:.3e}"
        f" (tolerance 1e-12), runtime {elapsed:.2f}s (budget 1s)"
    )
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_phase_diagram_sweep():
    start = time.perf_counter()
    step = 0.005
    phis = np.arange(1, int(6.28 / step) + 1) * step
    half = np.pi / 2
    three_half = 3 * np.pi / 2
    worst_z = 0.0
    similar_phis = []
    for phi in phis:
        c = classify(phase_family(phi))
        near_crossing = min(abs(phi - half), abs(phi - three_half)) <= step
        if c.similarity is Similarity.SIMILAR_TO_SELF_ADJOINT:
            similar_phis.append(phi)
        if near_crossing:
            continue
        if math.cos(phi) > 0:
            assert len(c.poles) == 1
            p = c.poles[0]
            assert p.order == 2 and p.sheet is Sheet.PHYSICAL
            z0 = -np.exp(2j * phi)
            worst_z = max(worst_z, abs(p.z - z0), abs(c.exceptional_points[0] - z0))
            assert len(c.exceptional_points) == 1
        else:
            assert c.similarity is Similarity.SIMILAR_TO_SELF_ADJOINT
            assert c.region is Region.III
            assert not c.spectral_singularities
    # the similarity window opens and closes within one grid step of the
    # crossings
    assert half - step <= min(similar_phis) <= half + step
    assert three_half - step <= max(similar_phis) <= three_half + step
    for phi in (half, three_half):
        c = classify(phase_family(phi))
        assert c.region is Region.II
        assert c.poles[0].order == 2 and c.poles[0].sheet is Sheet.REAL_AXIS
        assert len(c.spectral_singularities) == 1
        assert abs(c.spectral_singularities[0] - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    print(
        f"criterion 2: {len(phis)} grid points, worst |z + e^(2i phi)|"
        f" {worst_z:.3e} (tolerance 1e-10), runtime {elapsed:.2f}s (budget 5s)"
    )
    assert worst_z <= 1e-10
    assert elapsed < 5.0


def test_criterion_03_double_pole_closed_form():
    rng = np.random.default_rng(303)
    accepted = 0
    draws = 0
    worst = 0.0
    while accepted < 100:
        draws += 1
        assert draws < 2000
        b = complex(rng.standard_normal(), rng.standard_normal())
        c = complex(rng.standard_normal(), rng.standard_normal())
        d = complex(rng.standard_normal(), rng.standard_normal())
        root = np.sqrt(-b * c)
        for sgn in (1, -1):
            q = 8 + sgn * 4 * root
            k0 = 1j * q / (4 * d)
            if k0.imag > 1e-3:
                a = (b * c - 4 - sgn * 4 * root) / d
                break
        else:
            continue
        try:
            interaction = Interaction.from_abcd(a, b, c, d)
        except NotRepresentable:
            continue
        result = classify(interaction)
        assert len(result.poles) == 1
        p = result.poles[0]
        assert p.order == 2 and p.sheet is Sheet.PHYSICAL
        z0 = a / d
        err = max(
            abs(p.location - k0) / (1 + abs(k0)),
            abs(p.z - z0) / (1 + abs(z0)),
        )
        assert len(result.exceptional_points) == 1
        err = max(err, abs(result.exceptional_points[0] - z0) / (1 + abs(z0)))
        worst = max(worst, err)
        accepted += 1
    print(
        f"criterion 3: 100 cases from {draws} draws, worst relative error"
        f" {worst:.3e} (tolerance 1e-10)"
    )
    assert worst <= 1e-10


def test_criterion_04_real_axis_singularity_scaling():
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        c = classify(Interaction.from_abcd(0, 0, 0, 1j * t))
        assert len(c.spectral_singularities) == 1
        assert not c.singularity_at_infinity
        worst = max(worst, abs(c.spectral_singularities[0] - 4.0 / t**2))
    print(f"criterion 4: worst |z - 4/t^2| {worst:.3e} (tolerance 1e-12)")
    assert worst <= 1e-12


def test_criterion_05_constant_s_detection():
    rng = np.random.default_rng(505)
    worst = 0.0

    def check_constant(interaction, want):
        nonlocal worst
        assert build(interaction).constant
        for _ in range(10):
            k = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            worst = max(worst, rel_err(build(interaction).evaluate(k), want))

    check_constant(Interaction.from_matrix(np.zeros((2, 2))), I2)
    check_constant(Interaction.from_matrix(0.5 * I2), -I2)
    for _ in range(10):
        g1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        g2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        g3 = np.sqrt(1 / 16 - g1 * g1 - g2 * g2)
        interaction = Interaction.from_gamma(PauliVector(0.25, g1, g2, g3))
        check_constant(interaction, I2 - 4 * interaction.matrix)
    negatives = 0
    while negatives < 1000:
        m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        g = numpy_decompose(m)
        square = g.x1 * g.x1 + g.x2 * g.x2 + g.x3 * g.x3
        margin = min(
            np.abs(m).max(),
            np.abs(m - 0.5 * I2).max(),
            max(abs(g.x0 - 0.25), abs(square - 1 / 16)),
        )
        if margin < 1e-11:
            continue
        assert not build(Interaction.from_matrix(m)).constant
        negatives += 1
    print(
        f"criterion 5: 32 positives, 1000 negatives, worst constant error"
        f" {worst:.3e} (tolerance 1e-12), zero errors"
    )
    assert worst <= 1e-12


def test_criterion_06_metric_construction():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    golden = Interaction.from_gamma(PauliVector(1 / 8, 1 / 4, 1j / 8, 0))
    worst_residual = 0.0
    worst_route = 0.0
    two_pole = 0

    def check(interaction):
        nonlocal worst_residual, worst_route, two_pole
        spec = construct(interaction)  # raises NotApplicable, with its reason, if not applicable
        kind = spec.applicability
        worst_residual = max(worst_residual, verify_intertwining(spec))
        assert np.linalg.eigvalsh(metric_matrix(spec)).min() > 0
        if kind is Applicability.TWO_IMAGINARY_POLES:
            two_pole += 1
            diff = abs(cosh_chi_from_poles(spec) - math.cosh(spec.chi))
            worst_route = max(worst_route, diff)

    check(golden)
    for _ in range(200):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(3)
        v -= (v @ u) * u
        v *= rng.uniform(0.05, 0.95) / np.linalg.norm(v)
        g = u + 1j * v
        check(Interaction.from_gamma(PauliVector(rng.uniform(-2, 2), *g)))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6: {two_pole} two-pole cases of 201, worst residual"
        f" {worst_residual:.3e} (tolerance 1e-12), worst route difference"
        f" {worst_route:.3e} (tolerance 1e-10), runtime {elapsed:.2f}s (budget 1s)"
    )
    assert worst_residual <= 1e-12
    assert worst_route <= 1e-10
    assert elapsed < 1.0


def test_criterion_07_property_suite():
    rng = np.random.default_rng(707)
    worst_forms = 0.0
    worst_adjoint = 0.0
    worst_unitary = 0.0
    worst_det = 0.0
    samples = 0
    while samples < 500:
        m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        interaction = Interaction.from_matrix(m)
        s = build(interaction)
        k = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(s.p(k)) < 1e-6 * (1 + abs(k) ** 2) * max(1.0, abs(s.det_t)):
            continue
        samples += 1
        via_eval = s.evaluate(k)
        via_product = product_form(m, k)
        via_pauli = numpy_compose(pauli_components(s, k))
        worst_forms = max(
            worst_forms,
            rel_err(via_eval, via_product),
            rel_err(via_pauli, via_product),
        )
        adj = build(interaction.adjoint())
        if abs(adj.p(-np.conj(k))) >= 1e-6 * (1 + abs(k) ** 2) * max(1.0, abs(adj.det_t)):
            worst_adjoint = max(
                worst_adjoint,
                rel_err(adj.evaluate(-np.conj(k)), via_eval.conj().T),
            )
        worst_det = max(
            worst_det,
            abs(np.linalg.det(via_eval) - s.p(-k) / s.p(k)) / max(1.0, abs(s.p(-k) / s.p(k))),
        )
    hermitian_checked = 0
    while hermitian_checked < 100:
        m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        m = (m + m.conj().T) / 2
        s = build(Interaction.from_matrix(m))
        k = complex(rng.uniform(-3, 3), 0.0)
        if abs(s.p(k)) < 1e-6 * max(1.0, abs(s.det_t)):
            continue
        hermitian_checked += 1
        sk = s.evaluate(k)
        worst_unitary = max(worst_unitary, float(np.abs(sk @ sk.conj().T - I2).max()))
    print(
        f"criterion 7: forms {worst_forms:.3e} (1e-10), adjoint"
        f" {worst_adjoint:.3e} (1e-12), unitarity {worst_unitary:.3e} (1e-10),"
        f" det factorization {worst_det:.3e} (1e-12)"
    )
    assert worst_forms <= 1e-10
    assert worst_adjoint <= 1e-12
    assert worst_unitary <= 1e-10
    assert worst_det <= 1e-12


def test_criterion_08_resolvent_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    pool = [
        Interaction.from_abcd(-1, 0, 0, 0),
        Interaction.from_abcd(0, 0, 0, 1j),
        Interaction.from_abcd(0.4, 0.2 + 0.1j, -0.3, 0.5),
        Interaction.from_gamma(PauliVector(1 / 8, 1 / 4, 1j / 8, 0)),
    ]
    worst = 0.0
    checked = 0
    while checked < 20:
        interaction = pool[rng.integers(len(pool))]
        s = build(interaction)
        k = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 1.4))
        if abs(s.p(k)) < 1e-3:
            continue
        alpha = rng.uniform(0.6, 1.4)
        beta = rng.uniform(0.0, 0.5)
        omega = rng.uniform(0.5, 3.0)

        def g_func(x):
            return np.exp(-alpha * abs(x)) * (1 + beta * np.sin(omega * x))

        got = resolvent_diff_norm(interaction, k, custom(g_func))
        # oracle: transform by quadrature with a wider cutoff, boundary
        # coefficients by a direct solve, norm by quadrature
        cutoff = 60.0 / k.imag
        f_plus = quad(
            lambda s_: g_func(s_) * np.exp(1j * k * s_), 0, cutoff,
            complex_func=True, epsabs=1e-12, limit=400,
        )[0]
        f_minus = quad(
            lambda s_: g_func(s_) * np.exp(-1j * k * s_), -cutoff, 0,
            complex_func=True, epsabs=1e-12, limit=400,
        )[0]
        theta = 2 * (1 + 1j * k)
        coeff = 2 * np.linalg.solve(
            I2 - theta * interaction.matrix,
            interaction.matrix @ np.array([f_plus, f_minus]),
        )
        norm_sq = quad(
            lambda x: abs(coeff[0]) ** 2 * math.exp(-2 * k.imag * x), 0, cutoff,
            epsabs=1e-14, limit=400,
        )[0]
        norm_sq += quad(
            lambda x: abs(coeff[1]) ** 2 * math.exp(2 * k.imag * x), -cutoff, 0,
            epsabs=1e-14, limit=400,
        )[0]
        want = math.sqrt(norm_sq)
        worst = max(worst, abs(got - want) / want)
        checked += 1
    elapsed = time.perf_counter() - start
    print(
        f"criterion 8: 20 samples, worst relative error {worst:.3e}"
        f" (tolerance 1e-6), runtime {elapsed:.2f}s (budget 30s)"
    )
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_09_similarity_probe_evidence():
    epsilons = (1.0, 0.1, 0.01, 0.001)
    bounded = phase_family(np.pi)
    divergent = Interaction.from_abcd(0, 0, 0, 1j)
    bounded_vals = [
        similarity_integral_probe(bounded, e, (-10, 10)) for e in epsilons
    ]
    divergent_vals = [
        similarity_integral_probe(divergent, e, (-10, 10)) for e in epsilons
    ]
    bounded_ratio = max(bounded_vals) / min(bounded_vals)
    divergent_ratio = max(divergent_vals) / min(divergent_vals)
    print(
        f"criterion 9: bounded ratio {bounded_ratio:.3f} (< 10), divergent"
        f" ratio {divergent_ratio:.1f} (> 100); this probe is evidence, not"
        f" a certificate"
    )
    assert bounded_ratio < 10
    assert divergent_ratio > 100
