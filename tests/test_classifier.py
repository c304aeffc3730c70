import itertools

import numpy as np
import pytest

from zrs.classifier import (
    PoleReport,
    Region,
    Sheet,
    Similarity,
    classify,
    exceptional_points,
    find_poles,
    spectral_singularities,
)
from zrs.errors import InternalInconsistency
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
    i = Interaction.from_matrix((0.3 + 0.2j) * np.eye(2))
    poles = find_poles(build(i))
    assert len(poles) == 1
    assert poles[0].order == 1
    assert not exceptional_points(build(i))


def test_spectral_singularities_shape():
    values, at_inf = spectral_singularities(build(Interaction.from_abcd(0, 0, 0, 1j)))
    assert values == pytest.approx([4.0])
    assert at_inf is False
    values, at_inf = spectral_singularities(build(Interaction.from_matrix([[0, 1], [0, 0]])))
    assert values == []
    assert at_inf is True


def test_symmetric_real_axis_pair_is_deduplicated():
    # gamma0 = 2 det T kills the linear coefficient of p, so the roots
    # come in a +-k0 pair; both map to the same singular energy
    g0 = 0.2
    D = 0.1
    xi2 = g0 * g0 - D
    i = Interaction.from_gamma(PauliVector(g0, np.sqrt(complex(xi2)), 0, 0))
    s = build(i)
    c0, c1, c2 = s.p_coeffs
    assert abs(c1) < 1e-14
    poles = find_poles(s)
    locs = sorted(p.location.real for p in poles)
    assert np.allclose(locs, [-np.sqrt(1.5), np.sqrt(1.5)], atol=1e-12)
    values, _ = spectral_singularities(s, poles)
    assert values == pytest.approx([1.5])


def test_similarity_class_helper():
    c = classify(Interaction.from_gamma(PauliVector(1 / 8, 1 / 4, 1j / 8, 0)))
    assert c.similarity is Similarity.SIMILAR_TO_SELF_ADJOINT
    assert c.has_negative_eigenvalues is True


def test_near_jordan_blocks_are_consistent():
    # gamma = (1/(2(1 + i k0)), a + d1, i a + d2, d3): an exact Jordan block
    # with a double pole at k0 when d = 0, pulled apart by |d| = 10^e. Where
    # the discriminant test alone calls the root double, the nilpotency
    # certificate may disagree; the classifier must never raise on these
    rng = np.random.default_rng(7)
    doubles = simples = 0
    for _ in range(3000):
        k0 = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        a = complex(rng.normal(), rng.normal())
        d = rng.normal(size=3) + 1j * rng.normal(size=3)
        d *= 10.0 ** rng.integers(-11, -5) / np.linalg.norm(d)
        g0 = 1 / (2 * (1 + 1j * k0))
        c = classify(Interaction.from_gamma(PauliVector(g0, a + d[0], 1j * a + d[1], d[2])))
        orders = sorted(p.order for p in c.poles if p.sheet is Sheet.PHYSICAL)
        assert orders in ([1, 1], [2])
        assert len(c.exceptional_points) == (orders == [2])
        doubles += orders == [2]
        simples += orders == [1, 1]
    assert doubles > 300 and simples > 300


def test_certificate_rejects_inconsistent_poles():
    # the Jordan block [[1, 1], [0, 1]] has a double pole at k = i/2 with a
    # nilpotent residue
    s = build(Interaction.from_matrix([[1, 1], [0, 1]]))
    k0 = 0.5j
    assert exceptional_points(s, [PoleReport(k0, 2, Sheet.PHYSICAL, k0 * k0)]) == [k0 * k0]
    shifted = k0 + 1e-3
    with pytest.raises(InternalInconsistency, match="without a nilpotent residue"):
        exceptional_points(s, [PoleReport(shifted, 2, Sheet.PHYSICAL, shifted * shifted)])
    with pytest.raises(InternalInconsistency, match="simple pole"):
        exceptional_points(s, [PoleReport(k0, 1, Sheet.PHYSICAL, k0 * k0)])


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
