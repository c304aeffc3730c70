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
    _simpson,
    custom,
    f_transform,
    minus_exponential,
    plus_exponential,
    resolvent_diff_norm,
    similarity_integral_probe,
)


def boundary_solve_norm(interaction, k, g):
    # independent route: solve the boundary conditions for the
    # coefficients of e^{ikx} on each half-line, then integrate exactly
    F = f_transform(g, k)
    theta = 2 * (1 + 1j * k)
    rhs = interaction.matrix @ np.array([F.plus, F.minus])
    coeff = 2 * np.linalg.solve(SIGMA0 - theta * interaction.matrix, rhs)
    return np.sqrt((abs(coeff[0]) ** 2 + abs(coeff[1]) ** 2) / (2 * k.imag))


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


def test_norm_at_bound_state_rejected():
    i = Interaction.from_abcd(-1, 0, 0, 0)
    with pytest.raises(AtEigenvalue):
        resolvent_diff_norm(i, 0.5j, plus_exponential(1j))


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


def test_probe_memory_is_two_node_arrays():
    # a default probe keeps the nodes (1.6 MB), the (n - 1) / 2 Simpson terms
    # (0.8 MB) and the buffers of one block (1.1 MB), 3.69 MB at its peak;
    # with the integrand held whole it peaked at 4.8 MB, built on the whole
    # grid at once at 28.9 MB, and with scipy's simpson over the nodes and
    # the integrand at 10.1 MB
    i = Interaction.from_abcd(-1, 0, 0, 0)
    similarity_integral_probe(i, 0.1, (-10, 10), n=17)
    tracemalloc.start()
    try:
        similarity_integral_probe(i, 0.1, (-10, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_600_000, peak


def block_simpson(y, x):
    # _simpson with y handed over a block at a time, as the probe hands over
    # its integrand
    return _simpson(x, lambda start, stop, out: np.copyto(out, y[start:stop]))


def test_simpson_matches_scipy():
    # _simpson transcribes scipy's arithmetic: every grid gives scipy's
    # float, so this fails first if an installed scipy changes its rule
    rng = np.random.default_rng(2)
    sizes = (3, 5, 2 * _BLOCK - 1, 2 * _BLOCK + 1, 2 * _BLOCK + 3, 6 * _BLOCK + 1, 200001)
    for n in sizes:
        for scale in (1e-5, 1e-2, 1.0, 1e3, 1e5):
            lo = rng.uniform(-10, 0) * scale
            hi = rng.uniform(0.1, 10) * scale
            y = rng.standard_normal(n) * scale
            for x in (np.linspace(lo, hi, n), np.sort(rng.uniform(lo, hi, n))):
                assert block_simpson(y, x) == simpson(y, x=x), (n, scale)
    # at 1e16 the spacing rounds to 0 or 4: scipy's guards on zero
    # spacings decide the terms, in one block and in several
    for n in (4097, 6 * _BLOCK + 1):
        x = np.linspace(1e16, 1e16 + 4, n)
        assert np.count_nonzero(np.diff(x) == 0) > 0
        y = rng.standard_normal(n)
        assert block_simpson(y, x) == simpson(y, x=x), n


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
