import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import exact_invariants, exact_poles, numpy_compose, numpy_nilpotent
from pole_stage import poles
from zrs.classifier import Region, Sheet, Similarity, classify
from zrs.errors import AtPole, NotRepresentable
from zrs.interaction import FRIEDRICHS, KREIN, Interaction
from zrs.pauli import PauliVector
from zrs.smatrix import build


def phase_family(phi):
    return Interaction.from_abcd(
        -np.exp(1j * phi), -1, 1, np.exp(-1j * phi)
    )


def test_attractive_delta_bound_state():
    c = classify(Interaction.from_abcd(-1, 0, 0, 0))
    assert len(c.poles) == 1
    p = c.poles[0]
    assert p.sheet is Sheet.PHYSICAL and p.order == 1
    assert np.isclose(p.location, 0.5j, atol=1e-13)
    assert np.isclose(c.eigenvalues[0], -0.25, atol=1e-13)
    assert c.similarity is Similarity.SELF_ADJOINT
    assert c.region is Region.III
    assert c.has_negative_eigenvalues
    assert not c.spectral_singularities and not c.singularity_at_infinity


def test_repulsive_delta_resonance():
    c = classify(Interaction.from_abcd(1, 0, 0, 0))
    assert len(c.poles) == 1
    assert c.poles[0].sheet is Sheet.NONPHYSICAL
    assert np.isclose(c.poles[0].location, -0.5j, atol=1e-13)
    assert not c.eigenvalues
    assert c.similarity is Similarity.SELF_ADJOINT
    assert c.region is Region.III
    assert not c.has_negative_eigenvalues


def test_reference_extensions_have_no_poles():
    for i in (FRIEDRICHS, KREIN):
        c = classify(i)
        assert not c.poles
        assert c.similarity is Similarity.SELF_ADJOINT
        assert c.region is Region.III


def test_origin_root_cancellation():
    # d = i: p has roots {0, 2}; only k = 2 is a pole, a spectral
    # singularity at z = 4
    c = classify(Interaction.from_abcd(0, 0, 0, 1j))
    assert len(c.poles) == 1
    p = c.poles[0]
    assert p.sheet is Sheet.REAL_AXIS and p.order == 1
    assert np.isclose(p.location, 2.0, atol=1e-12)
    assert c.spectral_singularities == pytest.approx([4.0])
    assert c.similarity is Similarity.NOT_SIMILAR
    assert c.region is Region.II
    assert not c.eigenvalues


def test_derivative_coupling_scaling():
    for t in (0.5, 1.0, 2.0):
        c = classify(Interaction.from_abcd(0, 0, 0, 1j * t))
        assert c.spectral_singularities == pytest.approx([4.0 / t**2], abs=1e-12)


def test_jordan_block_gives_exceptional_point():
    c = classify(Interaction.from_matrix([[1, 1], [0, 1]]))
    assert len(c.poles) == 1
    p = c.poles[0]
    assert p.sheet is Sheet.PHYSICAL and p.order == 2
    assert np.isclose(p.location, 0.5j, atol=1e-13)
    assert len(c.exceptional_points) == 1
    assert np.isclose(c.exceptional_points[0], -0.25, atol=1e-13)
    # the degenerate eigenvalue is real, so this is not region I
    assert c.similarity is Similarity.NOT_SIMILAR
    assert c.region is Region.II


def test_singularity_at_infinity():
    c = classify(Interaction.from_matrix([[0, 1], [0, 0]]))
    assert c.singularity_at_infinity
    assert [p.sheet for p in c.poles] == [Sheet.INFINITY]
    assert c.poles[0].location is None and c.poles[0].order == 1
    assert c.similarity is Similarity.NOT_SIMILAR
    assert c.region is Region.II


def test_two_imaginary_poles_split_across_half_planes():
    # gamma = (1/8, 1/4, i/8, 0): one bound state, one resonance,
    # real gamma0 and a real positive square of the space part
    i = Interaction.from_gamma(PauliVector(1 / 8, 1 / 4, 1j / 8, 0))
    c = classify(i)
    assert len(c.poles) == 2
    sheets = {p.sheet for p in c.poles}
    assert sheets == {Sheet.PHYSICAL, Sheet.NONPHYSICAL}
    assert c.similarity is Similarity.SIMILAR_TO_SELF_ADJOINT
    assert c.region is Region.III
    assert c.has_negative_eigenvalues


def test_resonances_only_is_similar():
    # both characteristic roots in the lower half-plane, non-hermitian
    g1 = np.sqrt(0.0136)
    i = Interaction.from_gamma(PauliVector(0.3, g1, 0.06j, 0))
    c = classify(i)
    assert all(p.sheet is Sheet.NONPHYSICAL for p in c.poles)
    assert c.similarity is Similarity.SIMILAR_TO_SELF_ADJOINT
    assert c.region is Region.III
    assert not c.has_negative_eigenvalues


def test_imaginary_eigenvalue_without_certificate():
    # one imaginary pole in each half-plane but complex gamma0: the
    # eigenvalue is real negative yet no decisive criterion applies
    theta_plus = -2.0
    theta_minus = 3.0 + 1.0j
    g0 = (1 / theta_plus + 1 / theta_minus) / 2
    xi = (1 / theta_plus - 1 / theta_minus) / 2
    i = Interaction.from_gamma(PauliVector(g0, xi, 0, 0))
    c = classify(i)
    assert any(p.sheet is Sheet.PHYSICAL for p in c.poles)
    assert all(abs(z.imag) < 1e-12 for z in c.eigenvalues)
    assert c.similarity is Similarity.UNDETERMINED
    assert c.region is Region.UNDETERMINED


def test_phase_family_regions():
    # non-real eigenvalue wins over the exceptional point
    c = classify(phase_family(0.7))
    assert c.region is Region.I
    assert c.similarity is Similarity.NOT_SIMILAR
    assert len(c.exceptional_points) == 1
    # resonance side
    c = classify(phase_family(np.pi))
    assert c.region is Region.III
    assert c.similarity is Similarity.SIMILAR_TO_SELF_ADJOINT
    assert not c.exceptional_points
    # real-axis crossing
    c = classify(phase_family(np.pi / 2))
    assert c.region is Region.II
    assert c.spectral_singularities == pytest.approx([1.0])
    assert c.poles[0].order == 2 and c.poles[0].sheet is Sheet.REAL_AXIS


def test_scalar_matrix_pole_order_is_capped():
    # scalar non-hermitian boundary matrix: p has a double root but S has
    # a simple pole
    c = classify(Interaction.from_matrix((0.3 + 0.2j) * np.eye(2)))
    assert len(c.poles) == 1
    assert c.poles[0].order == 1
    assert not c.exceptional_points


def test_spectral_singularities_shape():
    c = classify(Interaction.from_abcd(0, 0, 0, 1j))
    assert c.spectral_singularities == pytest.approx([4.0])
    assert c.singularity_at_infinity is False
    c = classify(Interaction.from_matrix([[0, 1], [0, 0]]))
    assert c.spectral_singularities == ()
    assert c.singularity_at_infinity is True


def test_symmetric_real_axis_pair_is_deduplicated():
    # gamma0 = 2 det T kills the linear coefficient of p, so the roots
    # come in a +-k0 pair; both map to the same singular energy
    g0 = 0.2
    D = 0.1
    xi2 = g0 * g0 - D
    i = Interaction.from_gamma(PauliVector(g0, np.sqrt(complex(xi2)), 0, 0))
    c1 = 4j * (2 * build(i).det_t - i.gamma.x0)  # p(k) = c0 + c1 k + c2 k^2
    assert abs(c1) < 1e-14
    c = classify(i)
    locs = sorted(p.location.real for p in c.poles)
    assert np.allclose(locs, [-np.sqrt(1.5), np.sqrt(1.5)], atol=1e-12)
    assert c.spectral_singularities == pytest.approx([1.5])


def test_similarity_class_helper():
    c = classify(Interaction.from_gamma(PauliVector(1 / 8, 1 / 4, 1j / 8, 0)))
    assert c.similarity is Similarity.SIMILAR_TO_SELF_ADJOINT
    assert c.has_negative_eigenvalues is True


def _near_jordan_draws():
    """3000 draws of gamma = (1/(2(1 + i k0)), a + d1, i a + d2, d3), from one seed.

    With d = 0, about one draw in seven, T = [[g0, 2a], [0, g0]] is exactly a
    Jordan block, double as given, with a double pole at k0. Otherwise |d| =
    10^e, e from -11 to -6, pulls it apart: xi^2 = 2a (d1 + i d2) + O(d^2),
    with nothing cancelled, so its eigenvalues are distinct as given.
    """
    rng = np.random.default_rng(7)
    for _ in range(3000):
        k0 = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        a = complex(rng.normal(), rng.normal())
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        e = rng.integers(-12, -5)
        d *= (10.0**e if e > -12 else 0) / np.linalg.norm(d)
        g0 = 1 / (2 * (1 + 1j * k0))
        yield Interaction.from_gamma(PauliVector(g0, a + d[0], 1j * a + d[1], d[2]))


def test_near_jordan_blocks_are_consistent():
    # where xi^2 vanishes against the terms it cancels, the pole has order two
    # and is the one exceptional point; otherwise two simple poles and none
    doubles = simples = 0
    for i in _near_jordan_draws():
        c = classify(i)
        orders = sorted(p.order for p in c.poles if p.sheet is Sheet.PHYSICAL)
        assert orders in ([1, 1], [2])
        assert len(c.exceptional_points) == (orders == [2])
        doubles += orders == [2]
        simples += orders == [1, 1]
    assert doubles > 300 and simples > 300


def test_double_roots_against_the_exact_invariants():
    # the double-eigenvalue rule judged on the exact xi^2 = x^2 + bc of the binary
    # entries: an order-two root only where |xi^2| <= 1000 tol (|x|^2 + |bc|), ten
    # times the rule's band, and two simple roots wherever |xi^2| is above it
    doubles = simples = 0
    for i in _near_jordan_draws():
        s = build(i)
        _, xi2, _, x, bc = (math.hypot(*map(float, v)) for v in exact_invariants(i.matrix.tolist()))
        band = 1000 * s.tol * (x * x + bc)
        mults = [mult for _, mult in s.roots]
        if 2 in mults:
            assert xi2 <= band, (i, xi2, band)
            doubles += 1
        if xi2 > band:
            assert mults == [1, 1], (i, mults)
            simples += 1
    assert doubles > 300 and simples > 300


def test_order_two_poles_have_a_nilpotent_residue():
    # an order-two physical pole of a non-scalar T sits at a double root theta0,
    # where sigma0 - theta0 T is nonzero and nilpotent: the Jordan blocks at two
    # scales and every order-two draw of the near-Jordan family
    jordan = [Interaction.from_matrix([[1, 1], [0, 1]]), Interaction.from_matrix([[1e8, 1], [0, 1e8]])]
    checked = 0
    for i in itertools.chain(jordan, _near_jordan_draws()):
        s = build(i)
        assert not s.scalar
        for (k, _), order, theta in zip(s.roots, s.orders, s.thetas):
            if order == 2 and k.imag > 0:
                assert numpy_nilpotent(i.matrix, theta, s.tol), (i, k)
                checked += 1
    assert checked > 300, checked


def test_eigenvalues_zero_and_one_next_to_a_large_entry():
    # T = [[0, 0], [c, d]] has the exact eigenvalues 0 and d, whatever c: one
    # simple physical pole at k = i (1 - 1 / (2 d)). A large c once made the
    # record's simple pole fail a second nilpotency test, and classify raised
    for c, d, k in [(1e9, 1, 0.5j), (1e9, -1, 1.5j), (1e10, 2, 0.75j)]:
        got = classify(Interaction.from_matrix([[0, 0], [c, d]]))
        assert (got.similarity, got.region) == (Similarity.SIMILAR_TO_SELF_ADJOINT, Region.III)
        assert [(p.location, p.order, p.sheet) for p in got.poles] == [(k, 1, Sheet.PHYSICAL)]
        assert got.eigenvalues == (k * k,) and got.exceptional_points == ()
    got = classify(Interaction.from_matrix([[0, 0], [1e9, 1j]]))
    assert (got.similarity, got.region) == (Similarity.NOT_SIMILAR, Region.I)
    assert [(p.location, p.order, p.sheet) for p in got.poles] == [(-0.5 + 1j, 1, Sheet.PHYSICAL)]
    assert got.exceptional_points == ()


def test_distinct_eigenvalues_next_to_a_large_entry():
    # [[0.3, 0], [c, i]] has the exact eigenvalues 0.3 and i, whatever c: xi^2 = x^2
    # with bc = 0, nothing cancelled, so two simple poles. A normwise double-root test,
    # against |T| and not the terms xi^2 cancels, would merge them at c = 1e11
    for c in (1e10, 1e11):
        got = classify(Interaction.from_matrix([[0.3, 0], [c, 1j]]))
        assert (got.similarity, got.region) == (Similarity.NOT_SIMILAR, Region.I)
        assert [(p.order, p.sheet) for p in got.poles] == [(1, Sheet.PHYSICAL), (1, Sheet.NONPHYSICAL)]
        assert [p.location for p in got.poles] == pytest.approx([-0.5 + 1j, -2j / 3], rel=1e-15)
        assert got.exceptional_points == ()


def test_distinct_eigenvalues_that_round_to_one_float():
    # [[1, 1], [1e-40, 1]] has the distinct eigenvalues 1 +- 1e-20: xi^2 = bc cancels
    # nothing, so two simple roots, but xi is below eps |gamma0| and both round to 1.
    # This pins what classify reports for them today: two simple physical poles at one
    # float, no exceptional point, and Undetermined, as sum gamma_j^2 = 1e-40 fails the
    # metric certificate. A change to any of it should be a stated one
    s = build(Interaction.from_matrix([[1, 1], [1e-40, 1]]))
    assert s.xi == 1e-20 and s.roots == ((0.5j, 1), (0.5j, 1)) and s.orders == (1, 1)
    got = classify(Interaction.from_matrix([[1, 1], [1e-40, 1]]))
    assert got.poles == ((0.5j, 1, Sheet.PHYSICAL, -0.25), (0.5j, 1, Sheet.PHYSICAL, -0.25))
    assert got.eigenvalues == (-0.25, -0.25) and got.exceptional_points == ()
    assert (got.similarity, got.region) == (Similarity.UNDETERMINED, Region.UNDETERMINED)


def test_jordan_block_at_large_scale_is_an_exceptional_point():
    # certified at the merged root's theta0 = gamma0 / D, not at 2(1 + i k0)
    # of the rounded k0, whose rounding times |T| = 1e8 left N far from nilpotent
    c = classify(Interaction.from_matrix([[1e8, 1], [0, 1e8]]))
    assert [(p.location, p.order) for p in c.poles] == [(0.999999995j, 2)]
    assert len(c.exceptional_points) == 1
    assert (c.similarity, c.region) == (Similarity.NOT_SIMILAR, Region.II)


@pytest.mark.parametrize(
    "m",
    [
        [[1, 0], [0, 1.00001]],
        [[1000, 0], [0, 1000.01]],
        [[1005348, 0], [0, 1005352]],
        [[1e4, 5e-5 + 3e-5j], [5e-5 - 3e-5j, 1e4]],
    ],
)
def test_close_hermitian_poles_stay_simple(m):
    # a hermitian T has sum gamma_j^2 = sum |gamma_j|^2, which vanishes only
    # for a scalar T: its close poles are two simple ones, at the exact roots,
    # and no exceptional point
    c = classify(Interaction.from_matrix(m))
    assert (c.similarity, c.region, c.exceptional_points) == (Similarity.SELF_ADJOINT, Region.III, ())
    assert [(p.order, p.sheet) for p in c.poles] == [(1, Sheet.PHYSICAL)] * 2
    refs = sorted(exact_poles(m), key=lambda k: k.imag)
    assert [p.location for p in c.poles] == pytest.approx(refs, rel=1e-15)


def _same_up_to_order(xs, ys):
    return len(xs) == len(ys) and any(
        np.allclose(xs, perm, rtol=0, atol=1e-12) for perm in itertools.permutations(ys)
    )


def test_adjoint_has_conjugate_spectrum_and_same_verdict():
    # A_T* has the conjugated eigenvalues of A_T and is similar to a
    # self-adjoint operator exactly when A_T is
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if rng.uniform() < 0.3:
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            m = (m + m.conj().T) / 2 + 1e-9 * noise
        i = Interaction.from_matrix(m)
        c = classify(i)
        a = classify(i.adjoint())
        assert _same_up_to_order(np.conj(c.eigenvalues), a.eigenvalues)
        assert _same_up_to_order(np.conj(c.exceptional_points), a.exceptional_points)
        assert a.similarity is c.similarity
        assert a.region is c.region


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _boundary_matrix(rng, family):
    """A seeded T from one of four families that sit near the thresholds."""
    if family == 0:  # generic, over six decades of scale
        return _complex_normal(rng, (2, 2)) * 10 ** rng.uniform(-3, 3)
    if family == 1:  # hermitian plus tiny noise
        x = _complex_normal(rng, (2, 2))
        return (x + x.conj().T) / 2 + 10 ** rng.uniform(-14, -6) * _complex_normal(rng, (2, 2))
    if family == 2:  # real gamma0, space part u + iv with v orthogonal to u, |v| < |u|
        u = rng.normal(size=3)
        v = np.cross(u, rng.normal(size=3))
        v *= rng.uniform() * np.linalg.norm(u) / np.linalg.norm(v)
        gamma = PauliVector(complex(rng.normal()), *(u + 1j * v))
        return numpy_compose(gamma) + 10 ** rng.uniform(-15, -8) * rng.normal(size=(2, 2))
    # a pole just off the real axis: p(k) = 0 where 1 / theta_k is an eigenvalue of T
    k = rng.normal() + 1j * rng.choice((-1, 1)) * 10 ** rng.uniform(-14, -6)
    v = _complex_normal(rng, (2, 2))
    eigenvalues = np.diag([1 / (2 * (1 + 1j * k)), complex(_complex_normal(rng, ()))])
    return v @ eigenvalues @ np.linalg.inv(v)


def test_reported_poles_are_poles_of_s():
    rng = np.random.default_rng(3)
    checked = 0
    for draw in range(4000):
        i = Interaction.from_matrix(_boundary_matrix(rng, draw % 4))
        s = build(i)
        for p in classify(i).poles:
            if p.sheet is Sheet.INFINITY:
                continue
            with pytest.raises(AtPole):
                s.evaluate(p.location)
            checked += 1
    assert checked == 8000  # two finite poles in every draw


def _verdict_draws(draws):
    # the first draws of each seeded family of tools/verdict_diff.py, as interactions
    path = Path(__file__).resolve().parents[1] / "tools" / "verdict_diff.py"
    spec = importlib.util.spec_from_file_location("verdict_diff", path)
    vd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(vd)
    for name in vd.FAMILIES:
        for x in itertools.islice(vd.draws(name), draws):
            yield lambda x=x, name=name: Interaction.from_abcd(*x) if name == "abcd" else Interaction.from_matrix(x)


def _sweep_corpus(monkeypatch, seed):
    # every grid point of one round of the benchmark's sweep-mix workload, as interactions
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import corpus

    for spec in corpus.sweep_specs(seed):
        for j in range(spec["count"]):
            point = spec["point"](j)
            if "matrix" in point:
                yield lambda m=point["matrix"]: Interaction.from_matrix(m)
            else:
                yield lambda abcd=point["couplings"]: Interaction.from_abcd(*abcd)


def test_classify_agrees_with_its_pole_stage(monkeypatch):
    # classify reads its poles and eigenvalues off its first stage, classifier._poles, in one pass;
    # that stage on its own gives the same values bit for bit (repr tells -0.0 from 0.0)
    checked = 0
    for make in itertools.chain(_verdict_draws(300), _sweep_corpus(monkeypatch, 1)):
        try:
            i = make()
            c = classify(i)
        except NotRepresentable:
            continue
        found = poles(build(i))
        assert repr(c.poles) == repr(tuple(found))
        assert repr(c.eigenvalues) == repr(tuple(p.z for p in found if p.sheet is Sheet.PHYSICAL))
        checked += 1
    assert checked > 6000, checked
