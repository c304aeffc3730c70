import cmath
import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    DegenerateSystem,
    OnImaginaryAxis,
    exact_poles,
    exact_s,
    numpy_compose,
    pauli_components,
    scattering_coefficients,
    smatrix_from_coefficients,
)
from pole_stage import poles
from zrs.classifier import Sheet, classify
from zrs.errors import AtEigenvalue, AtPole, NotRepresentable
from zrs.interaction import FRIEDRICHS, KREIN, Interaction
from zrs.resolvent import plus_exponential, resolvent_diff_norm
from zrs.smatrix import _factor, build

EPS = 2.0**-52

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
    assert s.constant
    # p(0) = 0 here, but S extends analytically; k = 0 must evaluate
    for k in (0.0, 0.83, -2.0 + 1.1j, 5j):
        assert np.allclose(s.evaluate(k), want, atol=1e-13)


def test_reference_extension_smatrices():
    s0 = build(FRIEDRICHS)
    s1 = build(KREIN)
    for k in (0.0, 1.2, -0.4 + 2j):
        assert np.allclose(s0.evaluate(k), np.eye(2))
        assert np.allclose(s1.evaluate(k), -np.eye(2))
    assert s0.constant and s1.constant


def test_constant_family_with_isotropic_space_part():
    # gamma0 = 1/4 with the space part squaring to 1/16
    g = [0.25, 0.15, 0.2j, np.sqrt(0.0625 - 0.15**2 + 0.04 + 0j)]
    s = build(Interaction.from_gamma(g))
    assert s.constant
    want = numpy_compose([0, -4 * g[1], -4 * g[2], -4 * g[3]])
    for k in (0.0, 1.3, -0.6 + 2.1j):
        assert np.allclose(s.evaluate(k), want, atol=1e-12)


def test_nonconstant_for_isotropic_gamma_without_origin_root():
    # gamma0 = 0 with a complex isotropic space part: p is constant but S
    # grows linearly, so it must not be reported constant
    s = build(Interaction.from_matrix([[0, 1], [0, 0]]))
    assert not s.constant
    assert np.allclose(s.evaluate(1.0), np.eye(2) + 4j * np.array([[0, 1], [0, 0]]))


def test_evaluate_at_pole_raises():
    s = build(Interaction.from_abcd(1, 0, 0, 0))
    with pytest.raises(AtPole):
        s.evaluate(-0.5j)


def test_evaluate_keeps_theta_d_in_range_past_the_float_range():
    # tools/verdict_diff.py's jordan draw 277: a double eigenvalue near 1e153,
    # so |D| is near 1e306 and theta_k D alone overflows for |k| past about
    # 100, where S is about -sigma0; evaluate scales T and D by a power of 2
    # near |D| and q by its inverse, exactly (5.1 EPS seen)
    x = -6.932492869258423e152 + 7.221070455196e152j
    T = [[x, 8.936232834909765e152 - 2.503091563679214e152j], [0j, x]]
    s = build(Interaction.from_matrix(T))
    for k in (1681.23 - 656.07j, 1e4j, -3e5 + 2e5j, 1e100 + 1e100j):
        want = exact_s(T, k)
        assert abs(want[0][0] + 1) < 2e-3
        assert relative_error(s.evaluate(k), want) <= 8 * EPS, k


def test_not_representable_exactly_where_p_overflows():
    # build raises NotRepresentable exactly where D, xi^2, a coefficient of
    # p(k) = c0 + c1 k + c2 k^2 or max |T_ij|, taken here in float arithmetic,
    # is not finite, across the overflow boundary near |T| = 1e154: for
    # diag(1e154, 1e154), D = 1e308 is finite and c2 = -4D is not
    raised = kept = 0
    for e in np.arange(148, 156.01, 0.25):
        s = 10.0**e
        for T in ([[s, 2 * s], [3 * s, 4 * s]], [[s, 0], [0, s]], [[s, s], [0, s]], [[s, 1e-300], [1e-10, s / 2]]):
            (a, b), (c, d) = [[complex(z) for z in row] for row in T]
            g0, x, D = (a + d) / 2, (a - d) / 2, a * d - b * c
            values = (D, x * x + b * c, 1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D, max(map(abs, (a, b, c, d))))
            if all(map(cmath.isfinite, values)):
                build(Interaction.from_matrix(T))
                kept += 1
            else:
                with pytest.raises(NotRepresentable):
                    build(Interaction.from_matrix(T))
                raised += 1
    assert raised > 30 and kept > 30, (raised, kept)
    D = 1e154 * 1e154
    assert cmath.isfinite(D) and not cmath.isfinite(-4 * D)
    with pytest.raises(NotRepresentable):
        build(Interaction.from_matrix([[1e154, 0], [0, 1e154]]))


def test_not_representable_where_a_modulus_overflows():
    # x^2 = ((a - d)/2)^2 has finite parts and a modulus past the float range, while D and
    # the coefficients of p are finite: build raised a bare OverflowError from abs there
    for T in (
        [[2.68e154 + 4e153j, 0], [0, 0]],
        [[2.6770239483403554e154 - 2.575183112425368e153j, -4.7840485422316355e153 + 5.471804441174003e153j],
         [0, 8.041911602603752e-147 - 1.5185952936927392e-146j]],
    ):
        (a, b), (c, d) = T
        g0, x, D = (a + d) / 2, (a - d) / 2, a * d - b * c
        assert all(map(cmath.isfinite, (D, x * x, 1 - 4 * g0 + 4 * D, 4j * (2 * D - g0), -4 * D)))
        with pytest.raises(OverflowError):
            abs(x * x)
        with pytest.raises(NotRepresentable):
            build(Interaction.from_matrix(T))


def test_evaluate_raises_where_a_factor_overflows():
    # T = diag(1e150, 1e-10) at k = 1e160: the factor 1 - theta_k 1e150 is
    # past the float range, though theta_k D is not; 4ik over it is 0, which
    # made S sigma0 where exact_s is about -sigma0
    T = [[1e150, 0], [0, 1e-10]]
    s = build(Interaction.from_matrix(T))
    for k in (1e160, 1e159 + 1e155j):
        assert np.allclose(exact_s(T, k), -np.eye(2))
        with pytest.raises(ValueError, match="leaves the float range"):
            s.evaluate(k)


def test_evaluate_raises_at_a_pole_the_record_left_out():
    # T = [[1, 1], [1, 1 + 1e-11]] has eigenvalues 2 and 5e-12; the record
    # takes the second as 0 and keeps no pole for it, but S has one at its
    # root, where the unmerged factor the value divides by is exactly 0:
    # evaluate says AtPole there, and a relative 1e-6 off it S is about 1e6,
    # within 1e-9 of exact_s (1.1e-10 seen)
    T = [[1, 1], [1, 1 + 1e-11]]
    s = build(Interaction.from_matrix(T))
    k = -99999991725.21358j
    with pytest.raises(AtPole):
        s.evaluate(k)
    got = s.evaluate(k * (1 + 1e-6))
    assert 1e5 < np.abs(got).max() < 1e7
    assert relative_error(got, exact_s(T, k * (1 + 1e-6))) < 1e-9


def test_far_out_on_the_real_axis_is_not_a_pole():
    # attractive delta: p(k) = -1 - 2ik, S(k) tends to sigma0 - 2T
    s = build(Interaction.from_abcd(-1, 0, 0, 0))
    for k in (1e22, -1e25, 1e200):
        assert np.allclose(s.evaluate(k), [[0, -1], [-1, 0]], rtol=0, atol=1e-15)
    with pytest.raises(AtPole):
        s.evaluate(0.5j)


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
            numpy_compose(pauli_components(s, k)), s.evaluate(k), atol=1e-9
        )


def test_pauli_components_degenerate_det():
    # det T = 0 branch
    s = build(Interaction.from_abcd(0, 1, 0, 0))
    assert np.allclose(numpy_compose(pauli_components(s, 0.7)), s.evaluate(0.7))
    s = build(Interaction.from_abcd(1, 0, 0, 0))
    assert np.allclose(numpy_compose(pauli_components(s, 0.7)), s.evaluate(0.7))


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


def relative_error(got, want):
    want = np.array(want)
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


def _assert_at_exact_pole(k, T):
    # k is where exact_poles puts the (double) root, to a few eps max(1, |k|):
    # 1 - theta / 2 cancels near theta = 2, so that is all k can carry there
    refs = exact_poles(T)
    ref = sum(refs) / len(refs)
    assert abs(k - ref) <= 4 * EPS * max(1.0, abs(ref)), (k, ref)


def test_evaluate_deflates_only_the_origin_root_classify_reports():
    # p = c2 (k - k0)^2 with k0 = 2e-6j and |p(0)| = 4e-12, below the 100 tol
    # at which an origin root is accepted: the eigenvalue 0.500001 is 2e-6
    # from 1/2, so the root is not at the origin, S has its pole at k0, where
    # classify reports it, and is not deflated
    i = Interaction.from_matrix(0.500001 * np.eye(2))
    (pole,) = classify(i).poles
    assert pole.order == 1
    _assert_at_exact_pole(pole.location, i.matrix.tolist())
    s = build(i)
    with pytest.raises(AtPole):
        s.evaluate(pole.location)
    k = 4e-6j
    assert relative_error(s.evaluate(k), exact_s(i.matrix, k)) <= 1e-4


def test_evaluate_raises_at_a_double_pole_near_the_origin():
    T = [[0.5000000920756834, 0.941603211116184 - 5.449963337370771j], [0, 0.5000000920756834]]
    i = Interaction.from_matrix(T)
    ((k0, order),) = [(p.location, p.order) for p in classify(i).poles]
    assert order == 2
    _assert_at_exact_pole(k0, T)
    with pytest.raises(AtPole):
        build(i).evaluate(k0)


def test_evaluate_near_half_identity_matches_exact_s():
    # T = (1/2 + delta) sigma0 puts a double root of p at k0 of about
    # 2i delta, on either side of the threshold of an origin root
    rng = np.random.default_rng(15)
    values = 0
    for _ in range(3000):
        delta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -3)
        if rng.random() < 0.5:
            delta *= complex(*rng.normal(size=2))
        T = (0.5 + delta) * np.eye(2)
        s = build(Interaction.from_matrix(T))
        for pole in poles(s):
            if pole.location is None:
                continue
            with pytest.raises(AtPole):
                s.evaluate(pole.location)
            k = 2 * pole.location * (1 + 1e-3 * rng.uniform(-1, 1))
            try:
                got = s.evaluate(k)
            except AtPole:  # |p(k)| = |p''| |k0|^2 / 2 is within tolerance
                continue
            assert relative_error(got, exact_s(T, k)) <= 1e-3, (T[0, 0], k)
            values += 1
    assert values > 500


def test_small_matrix_is_not_constant():
    # every entry of T = 1e-13 [[1, 2], [3, 4]] is below tol, yet both of its
    # eigenvalues are recorded: S has the two poles classify reports and is
    # not constant, and far out, at k = 1e11, it is not sigma0
    T = (1e-13 * np.array([[1, 2], [3, 4]])).tolist()
    i = Interaction.from_matrix(T)
    s = build(i)
    assert not s.constant
    assert len(classify(i).poles) == 2
    for k in (1e11, 1.0, 1e12 + 1e11j):
        assert relative_error(s.evaluate(k), exact_s(T, k)) <= 1e-15, k


def test_tiny_distinct_eigenvalues_stay_distinct():
    # in diag(1e-152, 1.0000000003e-152), x^2 = 2.25e-324 underflows to 0 on the
    # entries as given; on T divided by a power of two it does not, so the two
    # eigenvalues give two distinct simple roots, where the exact T has them, and
    # S between them reads each eigenvalue (one merged eigenvalue is 225 off there)
    T = [[1e-152, 0], [0, 1.0000000003e-152]]
    s = build(Interaction.from_matrix(T))
    assert s.orders == (1, 1) and s.roots[0][0] != s.roots[1][0]
    refs = sorted(exact_poles(T), key=lambda k: k.imag)
    assert sorted((k for k, _ in s.roots), key=lambda k: k.imag) == pytest.approx(refs, rel=1e-15)
    for k, bound in ((1e151, 1e-15), (-4.9999999992e151j, 1e-5), (3e151 + 1e151j, 1e-15)):
        assert relative_error(s.evaluate(k), exact_s(T, k)) <= bound, k
    # with b or c exactly 0, bc is 0 on T / e too, though b / e or c / e alone, beside a
    # tiny x, leaves the float range: two simple roots at the exact ones, and a finite S
    for T in ([[2e-146, 1e200], [0, 1e-146]], [[1e-146, 0], [1e200, 2e-146]]):
        s = build(Interaction.from_matrix(T))
        refs = sorted(exact_poles(T), key=lambda k: k.imag)
        assert sorted((k for k, _ in s.roots), key=lambda k: k.imag) == pytest.approx(refs, rel=1e-15)
        assert s.orders == (1, 1)
        assert relative_error(s.evaluate(0.3), exact_s(T, 0.3)) <= 1e-15
    T = [[1e-300, 1e10], [0, 0]]  # its root 1e300 is past the float range: none, and S finite
    s = build(Interaction.from_matrix(T))
    assert s.roots == ()
    for k in (0.3, 1e145 + 1e145j):
        assert relative_error(s.evaluate(k), exact_s(T, k)) <= 1e-15, k
    # a subnormal T = [[x, b], [c, -x]] with xi^2 = x^2 + bc cancelled to eps of its
    # terms: a double eigenvalue 0 at gamma0 = 0, though det T, 1 ulp of the
    # subnormals, is not 0 against them. It leaves no root, and D / gamma0 is not taken
    x, b, c = 2.238199011948628e-158, 3.89846591838834e-158, -1.2850015677856178e-158
    s = build(Interaction.from_matrix([[x, b], [c, -x]]))
    assert s.det_t != 0 and s.roots == ()


def test_evaluate_reads_eigenvalues_that_keep_p():
    # the value of S takes the smaller eigenvalue as D / w where w, the
    # larger, is large against the terms D cancels, and as 2 gamma0 - w where
    # it is not: diag(1, 1e-10) keeps 1e-10, which 2 gamma0 - w rounds 8e-7
    # off, and a nearly nilpotent T (from the command-line corpus), whose w
    # the sqrt leaves 1e-9 off, keeps its trace, which D / w would move by
    # 4e-9; each was 1e-8 off exact_s the other way
    nilpotent = [
        [-0.034803310544273845 + 0.29132990354389143j, 0.3207171049711499 + 0.34744165397563864j],
        [0.15152566757064798 - 0.10092333040882735j, 0.03480331054427383 - 0.2913299035438914j],
    ]
    cases = [
        ([[1, 0], [0, 1e-10]], (2.5e9 + 2.5e9j, 1e9, 1 + 1j)),
        (nilpotent, (0.11889919752833622 - 0.8247274781690761j, 1.0, 3 + 1j)),
    ]
    for T, ks in cases:
        s = build(Interaction.from_matrix(T))
        for k in ks:
            assert relative_error(s.evaluate(k), exact_s(T, k)) <= 1e-14, (T, k)


def _verdict_families():
    # the seeded families of tools/verdict_diff.py
    path = Path(__file__).resolve().parents[1] / "tools" / "verdict_diff.py"
    spec = importlib.util.spec_from_file_location("verdict_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _family_draws(vd, name, draws):
    for x in itertools.islice(vd.draws(name), draws):
        try:
            i = Interaction.from_abcd(*x) if name == "abcd" else Interaction.from_matrix(x)
            yield i, build(i)
        except NotRepresentable:
            continue


def test_eval_and_resolvent_raise_at_every_pole_classify_reports():
    # evaluate raises AtPole at every finite pole classify reports, and the
    # resolvent difference AtEigenvalue at every physical one, on the first
    # 1,000 draws of each family of tools/verdict_diff.py
    vd = _verdict_families()
    g = plus_exponential(1j)
    finite = physical = 0
    for name in vd.FAMILIES:
        for i, s in _family_draws(vd, name, 1000):
            for p in poles(s):
                if p.location is None:
                    continue
                finite += 1
                with pytest.raises(AtPole):
                    s.evaluate(p.location)
                if p.sheet is Sheet.PHYSICAL:
                    physical += 1
                    with pytest.raises(AtEigenvalue):
                        resolvent_diff_norm(i, p.location, g)
    assert finite > 15000 and physical > 10000, (finite, physical)


def test_evaluate_matches_exact_s_away_from_the_poles():
    # Where the least recorded factor 1 - theta_k lam is rel times the size
    # of its terms, 1 + 2 |lam| (1 + |k|), evaluate is within tol / rel of
    # exact_s (max entry, relative to max(1, |S|)), and within tol where
    # rel >= 0.01: the value reads the eigenvalues unmerged, so no merge or
    # snap of the record moves it. near-half is held to 1000 tol / rel: a lam
    # snapped to 1/2 takes p(0), up to 100 tol, as 0, and a constant S is
    # sigma0 - 4T. Here err rel / tol is at most 0.024 (abcd) and 196 in
    # near-half, and err at rel >= 0.01 at most 7.1e-14 outside near-half;
    # over the first 1,000 draws of each family, at three points per draw,
    # at most 0.11, 221 and 1.1e-13.
    vd = _verdict_families()
    rng = np.random.default_rng(23)
    values = 0
    for name in vd.FAMILIES:
        for i, s in _family_draws(vd, name, 100):
            ks = [complex(*rng.uniform(-2, 2, 2)) * 10.0 ** rng.uniform(-3, 3)]
            ks += [2 * k0 for k0, _ in s.roots if k0 != 0]
            for k in ks:
                rel = min([abs(_factor(lam, k)) / (1 + 2 * abs(lam) * (1 + abs(k))) for lam in s.lams], default=1.0)
                try:
                    got = s.evaluate(k)
                except (AtPole, ValueError):
                    continue
                T = i.matrix.tolist()
                err = relative_error(got, exact_s(T, k))
                if name == "near-half":
                    assert err <= 1000 * s.tol / rel, (name, T, k)
                else:
                    assert err <= s.tol / rel and (rel < 0.01 or err <= s.tol), (name, T, k, err, rel)
                values += 1
    assert values > 2000, values
