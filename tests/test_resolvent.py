import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

import oracles
import zrs.resolvent
from zrs.errors import AtEigenvalue, NonConvergent
from zrs.interaction import Interaction
from zrs.pauli import SIGMA0, PauliVector
from zrs.resolvent import (
    _BLOCK,
    TestFunctionKind,
    _distance2,
    _integrand_scalars,
    _simpson,
    _sqrt_line,
    custom,
    f_transform,
    minus_exponential,
    plus_exponential,
    resolvent_diff_norm,
    similarity_integral_probe,
)
from zrs.smatrix import SMatrixFn


def boundary_solve_norm(interaction, k, g):
    # independent route: solve the boundary conditions for the
    # coefficients of e^{ikx} on each half-line, then integrate exactly
    F = f_transform(g, k)
    theta = 2 * (1 + 1j * k)
    rhs = interaction.matrix @ np.array([F.plus, F.minus])
    coeff = 2 * np.linalg.solve(SIGMA0 - theta * interaction.matrix, rhs)
    return np.sqrt((abs(coeff[0]) ** 2 + abs(coeff[1]) ** 2) / (2 * k.imag))


def _sqrt_of_line(xi, eps):
    """(k, |z|) for z = xi + i eps as the probe forms them: |z| numpy's complex abs, k from _sqrt_line."""
    z, k = np.empty((2, len(xi)), dtype=complex)
    re, im = np.empty((2, len(xi)))
    z.real, z.imag = xi, eps
    abs_z = np.abs(z)
    _sqrt_line(xi, abs_z, eps, re, im)
    k.real, k.imag = re, im
    return k, abs_z


def test_exponential_transforms_closed_form():
    kg = 1.3 + 0.7j
    k = 0.4 + 1.1j
    F = f_transform(plus_exponential(kg), k)
    assert F.plus == pytest.approx(1j / (k - np.conj(kg)))
    assert F.minus == 0
    F = f_transform(minus_exponential(kg), k)
    assert F.plus == 0
    assert F.minus == pytest.approx(1j / (k - np.conj(kg)))
    # matching k gives the reciprocal of twice the imaginary part
    F = f_transform(plus_exponential(k), k)
    assert F.plus == pytest.approx(1 / (2 * k.imag))


def test_function_evaluation():
    g = plus_exponential(1j)
    vals = g(np.array([-1.0, 0.0, 2.0]))
    assert vals[0] == 0 and vals[1] == 0
    assert vals[2] == pytest.approx(np.exp(-2.0))
    assert g(3.0) == pytest.approx(np.exp(-3.0))
    h = minus_exponential(1j)
    assert h(-2.0) == pytest.approx(np.exp(-2.0))
    assert h(1.0) == 0
    # a custom g evaluates its callable on x as a float array, and gives a complex at a scalar x
    c = custom(lambda x: x * (1 + 1j))
    assert c(2) == 2 + 2j and type(c(2)) is complex
    assert np.array_equal(c([1, -3.0]), [1 + 1j, -3 - 3j])


def test_exponentials_vanish_quietly_off_their_support():
    # off its support each exponential overflows; the suite turns the
    # RuntimeWarning of computing it there into a failure
    assert plus_exponential(1j)(-1000.0) == 0j
    assert minus_exponential(1j)(1000.0) == 0j
    x = np.array([-1000.0, -2.0, -0.0, 0.0, 2.0, 1000.0])
    for g, on in ((plus_exponential(0.3 + 2j), x > 0), (minus_exponential(0.3 + 2j), x < 0)):
        sign = 1 if g.kind is TestFunctionKind.MINUS_EXPONENTIAL else -1
        want = np.exp(sign * 1j * np.conj(g.k) * (x[on] + 0j))
        vals = g(x)
        assert vals.dtype == complex and not vals[~on].any()
        assert vals[on].tobytes() == want.tobytes()


def test_custom_quadrature_matches_closed_form():
    kg = 0.8 + 0.9j
    k = 0.3 + 1.2j
    g = custom(lambda x: np.where(x > 0, np.exp(-1j * np.conj(kg) * (x + 0j)), 0))
    F = f_transform(g, k)
    assert abs(F.plus - 1j / (k - np.conj(kg))) < 1e-8
    assert abs(F.minus) < 1e-10


def test_two_sided_exponential_transform():
    k = 0.5 + 0.8j
    g = custom(lambda x: np.exp(-abs(x)))
    F = f_transform(g, k)
    assert abs(F.plus - 1 / (1 - 1j * k)) < 1e-8
    assert abs(F.minus - 1 / (1 - 1j * k)) < 1e-8


def test_growing_function_rejected():
    g = custom(lambda x: np.exp(0.5 * x))
    with pytest.raises(NonConvergent):
        f_transform(g, 2 + 0.3j)


def test_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        plus_exponential(2.0)
    with pytest.raises(ValueError):
        minus_exponential(1 - 1j)
    with pytest.raises(ValueError):
        f_transform(plus_exponential(1j), 1.0)
    i = Interaction.from_abcd(1, 0, 0, 0)
    with pytest.raises(ValueError):
        resolvent_diff_norm(i, 2 - 1j, plus_exponential(1j))
    with pytest.raises(ValueError):
        similarity_integral_probe(i, 0.0, (-1, 1))
    with pytest.raises(ValueError):
        similarity_integral_probe(i, 0.5, (-1, 1), n=8)
    # finite ranges whose arithmetic overflows, with no RuntimeWarning
    for epsilon in (1e-300, 1.0):
        with pytest.raises(ValueError, match="leaves the float range"):
            similarity_integral_probe(i, epsilon, (-1e300, 1e300), n=2001)
    # p is in range, but 2 |t01|^2 is not
    with pytest.raises(ValueError, match="leaves the float range"):
        similarity_integral_probe(Interaction.from_matrix([[0, 1.5e154], [1e-300, 0]]), 0.5, (-1, 1), n=17)

    # the probe rejects its arguments before it builds S or any array
    def unreachable(interaction):
        raise AssertionError("probe went past its argument checks")

    monkeypatch.setattr(zrs.resolvent, "build", unreachable)
    for epsilon in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            similarity_integral_probe(i, epsilon, (-1, 1))
    for xi_range in (
        (1, -1),
        (1, 1),
        (-math.inf, 1),
        (-1, math.inf),
        (math.nan, 1),
        (-1, math.nan),
        (-1e308, 1e308),
        (-1.7e308, 1e308),
    ):
        with pytest.raises(ValueError):
            similarity_integral_probe(i, 0.1, xi_range)


def test_norm_matches_boundary_solve():
    rng = np.random.default_rng(11)
    cases = [
        Interaction.from_abcd(-1, 0, 0, 0),
        Interaction.from_abcd(0, 0, 0, 1j),
        Interaction.from_abcd(0.4, 0.2 + 0.1j, -0.3, 0.5),
    ]
    for i in cases:
        for _ in range(5):
            k = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            kg = complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
            for g in (plus_exponential(kg), minus_exponential(kg)):
                got = resolvent_diff_norm(i, k, g)
                want = boundary_solve_norm(i, k, g)
                assert got == pytest.approx(want, rel=1e-12)


def test_norm_near_a_root_by_the_origin_matches_boundary_solve():
    # T = (1/2 + delta) sigma0 has its root k0 = 2i delta by the origin, where
    # c0 = 1 - 4 gamma0 + 4D of p's coefficients cancels: at 2 k0 Horner's p
    # put the norm 6e7 times too high for delta = 1e-9, while the factors
    # 1 - theta_k lam of p keep it within what the numerator's own rounding,
    # eps / |1 - theta_k lam|, allows
    g = plus_exponential(1j)
    for delta in (1e-9, 3e-9, 1e-8, 1e-7):
        i = Interaction.from_matrix(((0.5 + delta) * np.eye(2)).tolist())
        ((k0, _),) = SMatrixFn(i).roots
        for k in (2 * k0, 3 * k0 + 1e-9, 10 * k0):
            assert resolvent_diff_norm(i, k, g) == pytest.approx(boundary_solve_norm(i, k, g), rel=1e-7), (delta, k)


def test_decimal_norm_matches_boundary_solve():
    # the 60-digit reference of the module docstring's formula against the
    # boundary solve, an independent route in floats
    rng = np.random.default_rng(27)
    for abcd in ((-1, 0, 0, 0), (0, 0, 0, 1j), (0.4, 0.2 + 0.1j, -0.3, 0.5)):
        i = Interaction.from_abcd(*abcd)
        for _ in range(5):
            k = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
            for g in (plus_exponential(1j), minus_exponential(complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.5)))):
                want = boundary_solve_norm(i, k, g)
                assert oracles.decimal_resolvent_norm(i.matrix, k, g) == pytest.approx(want, rel=1e-12)


def test_norm_keeps_theta_d_and_p_in_range_past_the_float_range():
    # tools/verdict_diff.py's jordan draw 485: a double eigenvalue near 1.4e153,
    # so |D| is near 2e306, and at k = 30i theta_k D (1.1e308) and p(k)
    # overflow though the norm is about 1.44e-4 (200-bit mpmath);
    # resolvent_diff_norm scales T, theta_k D and p by a power of 2 near |D|,
    # as SMatrixFn._value does, exactly (1.9e-16 relative seen)
    x = 9.934443247428363e152 + 9.792435980519389e152j
    T = [[x, 2.3971079235310196e153 - 3.6377463337647795e152j], [0j, x]]
    i = Interaction.from_matrix(T)
    assert oracles.decimal_resolvent_norm(T, 30j, plus_exponential(1j)) == pytest.approx(1.44e-4, rel=3e-3)
    for k in (30j, -30.654255320325362 + 0.09767846938342536j):
        for g in (plus_exponential(1j), minus_exponential(0.5 + 1j)):
            assert resolvent_diff_norm(i, k, g) == pytest.approx(oracles.decimal_resolvent_norm(T, k, g), rel=1e-15)


def test_norm_at_bound_state_rejected():
    i = Interaction.from_abcd(-1, 0, 0, 0)
    with pytest.raises(AtEigenvalue):
        resolvent_diff_norm(i, 0.5j, plus_exponential(1j))


def test_norm_out_of_float_range_is_a_value_error():
    # F g overflows and |k| is past the float range; pyproject makes any
    # RuntimeWarning on the way an error
    i = Interaction.from_abcd(-1, 0, 0, 0)
    with pytest.raises(ValueError, match="leaves the float range at k = "):
        resolvent_diff_norm(i, 1.5e308 + 1.5e308j, plus_exponential(1j))


def test_probe_through_pole_rejected():
    # characteristic roots 1/(2i) and 1/10 put a pole at k = 1 + i,
    # i.e. z = 2i, exactly on the sweep line eps = 2 at xi = 0
    g0 = (1 / 2j + 1 / 10) / 2
    xi = (1 / 2j - 1 / 10) / 2
    i = Interaction.from_gamma(PauliVector(g0, xi, 0, 0))
    with pytest.raises(AtEigenvalue):
        similarity_integral_probe(i, 2.0, (-1, 1), n=17)


def test_probe_through_pole_and_overflow_reports_the_pole():
    # the pole of test_probe_through_pole_rejected at xi = 0, the middle
    # node, and far ends where the integrand overflows: the pole is
    # reported wherever the blocks end, in the first block, on a block's
    # last node, or blocks after an overflow
    g0 = (1 / 2j + 1 / 10) / 2
    xi = (1 / 2j - 1 / 10) / 2
    i = Interaction.from_gamma(PauliVector(g0, xi, 0, 0))
    for n in (17, 2 * _BLOCK + 1, 4 * _BLOCK + 1, 20001):
        assert np.linspace(-1e200, 1e200, n)[n // 2] == 0
        with pytest.raises(AtEigenvalue):
            similarity_integral_probe(i, 2.0, (-1e200, 1e200), n=n)


def test_far_out_on_the_real_axis_is_not_a_pole():
    # the attractive delta's only pole is k = i/2; |p(k)| grows like 2|k|,
    # which a pole test scaled by |k|^2 took for a root once |k|^2 passed
    # about 4e24
    i = Interaction.from_abcd(-1, 0, 0, 0)
    got = similarity_integral_probe(i, 0.1, (-1e25, 1e25), n=17)
    assert got == oracles.similarity_integral_probe(i, 0.1, (-1e25, 1e25), n=17)
    assert 0 < got < math.inf
    g = plus_exponential(1j)
    for k in (1e13 + 1j, -1e13 + 1j):
        assert resolvent_diff_norm(i, k, g) == pytest.approx(boundary_solve_norm(i, k, g), rel=1e-9)


def test_probe_pole_past_first_chunk():
    # the pole of test_probe_through_pole_rejected at xi = 0, eps = 2, on
    # node 5 * _BLOCK, inside the third block of 2 * _BLOCK + 1 nodes: the
    # blocks before it are integrated, and the suite turns any
    # RuntimeWarning from them into a failure
    g0 = (1 / 2j + 1 / 10) / 2
    xi = (1 / 2j - 1 / 10) / 2
    i = Interaction.from_gamma(PauliVector(g0, xi, 0, 0))
    n = 8 * _BLOCK + 1
    assert np.linspace(-5, 3, n)[5 * _BLOCK] == 0
    with pytest.raises(AtEigenvalue):
        similarity_integral_probe(i, 2.0, (-5, 3), n=n)


def test_probe_matches_whole_grid_oracle():
    # block edges move no bit: every n gives the float of the probe built
    # on the whole grid at once; a block spans 2 * _BLOCK + 1 nodes, and the
    # sizes end a block one triple short of, on and one triple past its end
    cases = [
        Interaction.from_abcd(-1, 0, 0, 0),
        Interaction.from_abcd(0, 0, 0, 1j),
        Interaction.from_abcd(0.4, 0.2 + 0.1j, -0.3, 0.5),
    ]
    sizes = (17, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 2 * _BLOCK + 3, 6 * _BLOCK + 5, 200001)
    for i in cases:
        for eps, xi_range in ((0.01, (-10, 10)), (0.5, (0.5, 1.5)), (2.0, (-3, 7))):
            for n in sizes:
                got = similarity_integral_probe(i, eps, xi_range, n=n)
                want = oracles.similarity_integral_probe(i, eps, xi_range, n=n)
                assert got == want, (i.matrix, eps, xi_range, n)


def test_probe_blocks_form_the_nodes_of_linspace(monkeypatch):
    # each block forms its own nodes, and together they are np.linspace's to
    # the bit: over several blocks, near 1e16, across 0 and where the spacing
    # underflows to 0 and numpy divides by n - 1 before it multiplies
    blocks = []

    def spy(xi, abs_z, epsilon, re, im):
        blocks.append(xi.copy())
        return _sqrt_line(xi, abs_z, epsilon, re, im)

    monkeypatch.setattr(zrs.resolvent, "_sqrt_line", spy)
    i = Interaction.from_abcd(0.4, 0.2 + 0.1j, -0.3, 0.5)
    cases = [
        (-10.0, 10.0, 6 * _BLOCK + 5),
        (0.1, 0.7, 2 * _BLOCK + 1),
        (1e16, 1e16 + 4, 3 * _BLOCK + 1),
        (-3.0, 7.0, 17),
        (0.0, 1e-321, 4097),
        (-1e-321, 1e-321, 6 * _BLOCK + 1),
    ]
    for lo, hi, n in cases:
        blocks.clear()
        similarity_integral_probe(i, 0.5, (lo, hi), n=n)
        assert np.concatenate(blocks).tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi, n)
    assert (hi - lo) / (n - 1) == 0


def test_probe_pole_early_out_hides_no_pole(monkeypatch):
    # a pole at a node's k, a distance eps 10^U(-16,-6) off the line: a
    # block skips the node-by-node pole test only when its least |p|
    # clears it, so the probe raises and returns exactly as the oracle does
    calls = []
    at_pole = SMatrixFn._at_pole

    def counted(self, k, lams):
        if isinstance(k, np.ndarray):
            calls.append(k.size)
        return at_pole(self, k, lams)

    monkeypatch.setattr(SMatrixFn, "_at_pole", counted)
    rng = np.random.default_rng(18)
    raised = 0
    for _ in range(300):
        n = int(rng.choice((17, 4097, 20001)))
        eps = 10 ** rng.uniform(-3, 0)
        delta = eps * 10 ** rng.uniform(-16, -6)
        k0 = np.sqrt(complex(np.linspace(-10, 10, n)[rng.integers(n)], eps + delta))
        i = Interaction.from_abcd(2j * k0, 0, 0, 0)
        answers = []
        for probe in (similarity_integral_probe, oracles.similarity_integral_probe):
            try:
                answers.append(probe(i, eps, (-10, 10), n=n))
            except AtEigenvalue:
                answers.append(AtEigenvalue)
        assert answers[0] == answers[1], (n, eps, delta, k0)
        raised += answers[0] is AtEigenvalue
    assert calls and 0 < raised < 300, raised
    # the bounded ExampleV probe of the benchmark never runs the node test
    calls.clear()
    similarity_integral_probe(Interaction.from_abcd(1, -1, 1, -1), 1.0, (-10, 10))
    assert not calls


def test_probe_and_oracle_find_a_pole_of_two_simple_ones_apart():
    # T = P diag(1 / theta_k0, mu) P^-1 has two simple eigenvalues, and k0,
    # the root of the first, is a node's k or 1e-3 eps off the line: the
    # probe, which reads the record, and the oracle, which decides the
    # eigenvalues on numpy scalars, raise at the node and integrate off it
    rng = np.random.default_rng(23)
    for _ in range(20):
        eps, n = 10 ** rng.uniform(-3, 0), 4097
        for delta, raises in ((0.0, True), (1e-3 * eps, False)):
            k0 = np.sqrt(complex(np.linspace(-10, 10, n)[rng.integers(n)], eps + delta))
            P = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            T = P @ np.diag([1 / (2 * (1 + 1j * k0)), complex(*rng.normal(size=2))]) @ np.linalg.inv(P)
            i = Interaction.from_matrix(T.tolist())
            assert len(SMatrixFn(i).roots) == 2
            for probe in (similarity_integral_probe, oracles.similarity_integral_probe):
                if raises:
                    with pytest.raises(AtEigenvalue):
                        probe(i, eps, (-10, 10), n=n)
                else:
                    assert math.isfinite(probe(i, eps, (-10, 10), n=n))


def test_probe_pole_early_out_at_the_edge_of_the_pole_test():
    # a pole off an end node of the line, where |k| comes closest to the
    # bound the early-out takes, at the distance delta where the oracle's
    # test turns: the probe must turn between the same two floats
    def raises(probe, delta):
        i = Interaction.from_abcd(2j * np.sqrt(complex(xi, eps + delta)), 0, 0, 0)
        try:
            probe(i, eps, (-10, 10), n=17)
        except AtEigenvalue:
            return True
        return False

    for xi in (-10.0, 10.0):
        for eps in (1e-12, 1e-3):
            lo, hi = 0.0, 1.0
            while lo < (lo + hi) / 2 < hi:
                if raises(oracles.similarity_integral_probe, (lo + hi) / 2):
                    lo = (lo + hi) / 2
                else:
                    hi = (lo + hi) / 2
            assert raises(similarity_integral_probe, lo) and not raises(similarity_integral_probe, hi)


def test_probe_matches_oracle_where_simpson_guards_act():
    # spacings that round to 0 near 1e16 (in one block and in several) and
    # spacing products that underflow near 0, where scipy's weights for
    # given nodes divide by 0 and its guards zero terms: the nodes were laid
    # out equally spaced, and Simpson's rule on them is the direct solve's
    cases = [
        (Interaction.from_abcd(0.4, 0.2 + 0.1j, -0.3, 0.5), (1e16, 1e16 + 4), 4097),
        (Interaction.from_abcd(0.4, 0.2 + 0.1j, -0.3, 0.5), (1e16, 1e16 + 4), 6 * _BLOCK + 1),
        (Interaction.from_abcd(0.4, 0.2 + 0.1j, -0.3, 0.5), (-1e-300, 1e-300), 4097),
        (Interaction.from_abcd(-1, 0, 0, 0), (-1e-300, 1e-300), 4097),
    ]
    for i, xi_range, n in cases:
        h = np.diff(np.linspace(*xi_range, n))
        assert not (h[::2] * h[1::2]).all()
        got = similarity_integral_probe(i, 0.5, xi_range, n=n)
        assert got == pytest.approx(oracles.direct_solve_probe(i, 0.5, xi_range, n=n), rel=1e-12), (xi_range, n)
        assert 0 < got < 1e-23


def test_probe_arithmetic_against_the_decimal_reference():
    # the probe against its own integrand in 60-digit decimal on its own nodes
    # and Simpson weights, so that only its arithmetic is judged, at n = 2001
    # on the shapes of the benchmark's probes (bench/corpus.probe_entries):
    # the bounded and divergent ladders and a resonance, a mixed, a constant
    # and an ExampleV entry at eps = 0.01, on xi in [-10, 10]. The largest
    # relative error, 8.4e-13, is the divergent one's at eps = 0.001, where
    # k passes next to p's real root and its rounding sets the error; the
    # bounded ones are within 1.3e-16
    e = complex(math.cos(3), math.sin(3))
    shapes = [(Interaction.from_abcd(1, -1, 1, -1), eps) for eps in (1.0, 0.1, 0.01, 0.001)]
    shapes += [(Interaction.from_abcd(0, 0, 0, 1j), eps) for eps in (1.0, 0.1, 0.01, 0.001)]
    shapes += [
        (Interaction.from_abcd(1.5, 0, 0, 0), 0.01),
        (Interaction.from_abcd(0, 0.7 - 1.2j, 0, 0), 0.01),
        (Interaction.from_gamma(PauliVector(0.25, math.cosh(0.5) / 4, 1j * math.sinh(0.5) / 4, 0)), 0.01),
        (Interaction.from_abcd(-e, -1, 1, e.conjugate()), 0.01),
    ]
    errors = []
    for i, eps in shapes:
        want = oracles.decimal_probe(i.matrix, eps, (-10, 10), n=2001)
        errors.append(abs(similarity_integral_probe(i, eps, (-10, 10), n=2001) - want) / want)
    assert max(errors[:4]) <= 1e-15 and max(errors) <= 1e-12, errors


def test_probe_near_a_double_lam_at_a_half_against_the_decimal_reference():
    # T = (1/2 + 1e-8) sigma0 has both roots 2e-8 i off k = 0: p's constant
    # coefficient 1 - 4 gamma0 + 4 D cancels there, and Horner on the
    # coefficients read 8.53e-8 and 4.86e-8, 3.3x and 6.1x low; from the
    # factors the probe is the reference's
    i = Interaction.from_matrix([[0.5 + 1e-8, 0], [0, 0.5 + 1e-8]])
    for eps, value in ((1e-16, 2.7738240383e-7), (1e-17, 2.9526432662e-7)):
        want = oracles.decimal_probe(i.matrix, eps, (-1e-15, 1e-15), n=1001)
        assert want == pytest.approx(value, rel=1e-10)
        assert abs(similarity_integral_probe(i, eps, (-1e-15, 1e-15), n=1001) - want) <= 1e-12 * want


def test_probe_with_degenerate_factors_against_the_decimal_reference():
    # a lam at 0 leaves a constant factor, one at 1/2 a root at k = 0, a
    # double lam a double root, and a tiny lam a root past 2^_FAR, which the
    # probe scales by a power of two: each is the reference's to rounding,
    # and the two whose probe underflows are 0
    cases = [
        [[0, 0], [0, 0]],
        [[0, 1], [0, 0]],
        [[1, 0], [0, 0]],
        [[1, 0], [0, 1e-200]],
        [[1e150, 0], [0, 1]],
        [[0.5, 0], [0, 0.5]],
        [[0.5, 0], [0, 0]],
        [[1e-200, 0], [0, 1e-200]],
        [[1, 1], [0, 1]],
        [[1 + 1j, 0], [0, 1 + 1j]],
    ]
    zeros = []
    for m in cases:
        i = Interaction.from_matrix(m)
        want = oracles.decimal_probe(i.matrix, 0.1, (-10, 10), n=2001)
        got = similarity_integral_probe(i, 0.1, (-10, 10), n=2001)
        assert abs(got - want) <= 1e-15 * want, (m, got, want)
        assert got == oracles.similarity_integral_probe(i, 0.1, (-10, 10), n=2001), m
        zeros += [m] if not want else []
    assert zeros == [cases[0], cases[7]]


def test_probe_memory_is_two_node_arrays():
    # a default probe keeps the (n - 1) / 2 Simpson terms (0.8 MB) and the
    # buffers of one block, its nodes among them (0.58 MB), 1.38 MB at its
    # peak; with three complex buffers per block for p's Horner chain it
    # peaked at 1.53 MB, with all nodes held at 3.00 MB, with scipy's
    # weights for given nodes and their seven buffers at 3.62 MB, with the
    # integrand held whole at 4.8 MB, built on the whole grid at once at
    # 28.9 MB, and with scipy's simpson over the nodes and the integrand at
    # 10.1 MB
    i = Interaction.from_abcd(-1, 0, 0, 0)
    similarity_integral_probe(i, 0.1, (-10, 10), n=17)
    tracemalloc.start()
    try:
        similarity_integral_probe(i, 0.1, (-10, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_600_000, peak


def test_blocked_simpson_matches_the_whole_array_rule():
    # y handed over a block at a time, as the probe hands over its integrand,
    # gives the textbook rule on the whole array to the bit, and scipy's
    # rule for the same equally spaced nodes to rounding; y is positive, as
    # the probe's integrand is, so no sum cancels
    rng = np.random.default_rng(2)
    sizes = (3, 5, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 2 * _BLOCK + 3, 6 * _BLOCK + 1, 200001)
    for n in sizes:
        for scale in (1e-5, 1e-2, 1.0, 1e3, 1e5):
            lo = rng.uniform(-10, 0) * scale
            hi = rng.uniform(0.1, 10) * scale
            y = rng.uniform(0.1, 2, n) * scale
            h = (hi - lo) / (n - 1)
            got = _simpson(h, n, lambda start, stop, out: np.copyto(out, y[start:stop]))
            assert got == h / 3 * np.sum(y[0:-1:2] + 4 * y[1::2] + y[2::2]), (n, scale)
            assert got == pytest.approx(simpson(y, x=np.linspace(lo, hi, n)), rel=1e-13), (n, scale)


def test_integrand_is_the_norm_of_w_m():
    W = np.array([[1, 1], [-1, 1]])  # sigma0 + i sigma2
    # |W (T - theta D sigma0)|_F^2 = |p'(k) / 2|^2 + C with
    # C = |t00 - t11|^2 + 2 |t01|^2 + 2 |t10|^2, for any T and any k, and
    # p'/2 = -(lam+ (1 - 2 lam-) + lam- (1 - 2 lam+)) + 4i lam+ lam- k up to
    # a unit, from T's eigenvalues as the probe takes them
    rng = np.random.default_rng(21)
    for _ in range(2000):
        m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        i = Interaction.from_matrix(m * 10 ** rng.uniform(-6, 6))
        k = 10 ** rng.uniform(-3, 3) * np.exp(1j * rng.uniform(0.001, np.pi - 0.001))
        s = SMatrixFn(i)
        (t00, t01), (t10, t11) = i.matrix
        lam1, lam2 = s._eigenvalues
        theta = 2 * (1 + 1j * k)
        want = np.sum(np.abs(W @ (i.matrix - theta * s.det_t * SIGMA0)) ** 2)
        C = abs(t00 - t11) ** 2 + 2 * abs(t01) ** 2 + 2 * abs(t10) ** 2
        half_dp = -(lam1 * (1 - 2 * lam2) + lam2 * (1 - 2 * lam1)) + 4j * lam1 * lam2 * k
        assert abs(half_dp) ** 2 + C == pytest.approx(want, rel=1e-12), (i.matrix, k)


def _ulps(a, b):
    return np.abs(a.view(np.int64) - b.view(np.int64)).max(initial=0)


# lines (xi, eps) of z = xi + i eps: wide and tiny ranges, a tiny eps, xi = -0.0, the largest floats and subnormals
SQRT_LINES = [
    (np.linspace(-1e200, 1e200, 4097), 1.0),
    (np.linspace(-1e-300, 1e-300, 4097), 0.5),
    (np.linspace(-1e-300, 1e-300, 4097), 1e-300),
    (np.linspace(-10, 10, 4097), 1e-300),
    (np.linspace(-10, 10, 4097), 0.01),
    (np.linspace(-0.0, 1, 17), 0.1),
    (np.array([-1.0, -0.0, 0.0, 1.0]), 2.0),
    (np.linspace(1e308, 1.7e308, 4097), 1.0),
    (np.linspace(-1.7e308, -1e308, 4097), 1e300),
    (np.linspace(-1e-310, 1e-310, 4097), 1e-310),
    (np.linspace(-1e-320, 1e-320, 4097), 1e-320),
]


def test_probe_square_root_is_numpys():
    # the probe's k = sqrt(xi + i eps), in real arithmetic, is numpy's complex
    # sqrt within 2 ulp in each part: over wide and tiny ranges, at a tiny
    # eps, at xi = -0.0, out to the largest floats and on subnormal lines,
    # where k without its exact scaling was 713 ulp off
    for xi, eps in SQRT_LINES:
        got = _sqrt_of_line(xi, eps)[0]
        want = np.sqrt(xi + 1j * eps)
        assert _ulps(got.real, want.real) <= 2 and _ulps(got.imag, want.imag) <= 2, (xi[0], xi[-1], eps)
    # a small nilpotent T keeps the probe in range out there: 0.5 |z| + 0.5 xi
    # is at most 1.7e308 where |z| + xi is not
    i = Interaction.from_matrix([[0, 1e-3], [0, 0]])
    got = similarity_integral_probe(i, 1.0, (1e308, 1.7e308), n=2001)
    assert got == oracles.similarity_integral_probe(i, 1.0, (1e308, 1.7e308), n=2001)
    assert got == pytest.approx(oracles.direct_solve_probe(i, 1.0, (1e308, 1.7e308), n=2001), rel=1e-12)


def test_probe_squared_moduli_are_complex_abs_squared():
    # the probe's |k + i|^2 = (|z| + 1) + 2 Im k, from |k|^2 = |z|, and its
    # |k 2^-e - r|^2 = (Re k 2^-e - Re r)^2 + (Im k 2^-e - Im r)^2 for each
    # root r of p's factors and of p' are abs(k + 1j)**2 and
    # abs(k 2^-e - r)**2 within 6 ulp (5 seen), finite exactly where those
    # are, on the lines of the square root's test and on 300 random lines
    # across 10^+-300; a lam of 1e-200 puts a root past 2^_FAR, scaled
    rng = np.random.default_rng(24)
    lines = list(SQRT_LINES)
    for _ in range(300):
        scale = 10 ** rng.uniform(-300, 300)
        lo = scale * rng.uniform(-1, 1)
        xi = np.linspace(lo, lo + scale * 10 ** rng.uniform(-6, 0.3), 1025)
        lines.append((xi, 10 ** rng.uniform(-300, 300)))
    forms = []
    for i in (Interaction.from_abcd(0.4, 0.2 + 0.1j, -0.3, 0.5), Interaction.from_abcd(-1, 0, 0, 0),
              Interaction.from_matrix([[1, 0], [0, 1e-200]])):
        roots, _, root_dp, _ = _integrand_scalars(SMatrixFn(i)._eigenvalues, 1.0)
        forms += [*roots, root_dp] if root_dp else roots
    assert {e > 0 for e, _ in forms} == {False, True}
    with np.errstate(over="ignore", under="ignore"):
        for xi, eps in lines:
            k, abs_z = _sqrt_of_line(xi, eps)
            pairs = [((abs_z + 1) + 2 * k.imag, np.abs(k + 1j) ** 2)]
            for e, r in forms:
                got = _distance2(k.real.copy(), k.imag.copy(), e, r, np.empty(k.size), np.empty(k.size))
                pairs.append((got, np.abs(k * math.ldexp(1.0, -e) - r) ** 2))
            for got, want in pairs:
                finite = np.isfinite(want)
                assert (np.isfinite(got) == finite).all(), (xi[0], xi[-1], eps)
                assert _ulps(got[finite], want[finite]) <= 6, (xi[0], xi[-1], eps)


def test_probe_matches_pointwise_norms():
    i = Interaction.from_abcd(0, 0, 0, 1j)
    eps = 0.5
    lo, hi = 0.5, 1.5
    n = 17
    grid = np.linspace(lo, hi, n)
    g_right = plus_exponential(1j)
    g_left = minus_exponential(1j)
    vals = []
    for x in grid:
        k = complex(np.sqrt(x + 1j * eps))
        vals.append(
            resolvent_diff_norm(i, k, g_right) ** 2
            + resolvent_diff_norm(i, k, g_left) ** 2
        )
    want = eps * simpson(np.array(vals), x=grid)
    got = similarity_integral_probe(i, eps, (lo, hi), n=n)
    assert got == pytest.approx(want, rel=1e-10)


def test_probe_separates_bounded_from_divergent():
    bounded = Interaction.from_abcd(-1, 0, 0, 0)
    divergent = Interaction.from_abcd(0, 0, 0, 1j)
    b1 = similarity_integral_probe(bounded, 1.0, (-10, 10), n=5001)
    b2 = similarity_integral_probe(bounded, 0.01, (-10, 10), n=5001)
    d1 = similarity_integral_probe(divergent, 1.0, (-10, 10), n=5001)
    d2 = similarity_integral_probe(divergent, 0.01, (-10, 10), n=5001)
    assert b2 / b1 < 10
    assert d2 / d1 > 100
