"""Where SMatrixFn.roots puts the poles of S, against exact references.

exact_poles (tests/oracles.py) gives the roots of p for the binary values of
T. The error of a root k is |k - k_ref| / max(1, |k_ref|): a simple root is
matched with the nearest exact root and a merged double root with the mean
of the two, which is where the merged root stands; roots snapped to the
origin are left out.
"""

import numpy as np
import pytest

from oracles import exact_poles
from zrs.classifier import Region, Sheet, Similarity, classify
from zrs.errors import NotRepresentable
from zrs.interaction import Interaction
from zrs.smatrix import build


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _sign(rng):
    return rng.choice((-1.0, 1.0))


def _random(rng):
    return _complex_normal(rng, 2, 2) * 10.0 ** rng.uniform(-3, 3)


def _hermitian_diag(rng):
    # diag(a, a (1 + delta)), |a| = 10^U(-3, 6), |delta| = 10^U(-16, -2)
    a = _sign(rng) * 10.0 ** rng.uniform(-3, 6)
    return np.diag([a, a * (1 + _sign(rng) * 10.0 ** rng.uniform(-16, -2))])


def _hermitian_random(rng):
    # a real scale keeps the matrix exactly hermitian
    a = _complex_normal(rng, 2, 2)
    return (a + a.conj().T) * 10.0 ** rng.uniform(-3, 6)


def _near_half(rng):
    return np.eye(2) / 2 + _complex_normal(rng, 2, 2) * 10.0 ** rng.uniform(-12, -3)


def _near_jordan(rng):
    # gamma = (1 / (2 (1 + i k0)), a + d1, i a + d2, d3) is a Jordan block with
    # a double pole at k0 when d = 0; |d| = 10^e pulls the pole apart
    k0 = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
    a = complex(*rng.normal(size=2))
    d = _complex_normal(rng, 3)
    d1, d2, d3 = d * 10.0 ** rng.integers(-16, -5) / np.linalg.norm(d)
    g0, g1, g2 = 1 / (2 * (1 + 1j * k0)), a + d1, 1j * a + d2
    return np.array([[g0 + d3, g1 - 1j * g2], [g1 + 1j * g2, g0 - d3]])


def _pole_errors(draw, seed, n=1000):
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n):
        try:
            s = build(Interaction.from_matrix(draw(rng)))
        except NotRepresentable:
            continue
        refs = exact_poles(s.interaction.matrix.tolist())
        for k, mult in s.roots:
            if k == 0j or not refs:  # no exact roots: p is constant
                continue
            ref = min(refs, key=lambda r: abs(k - r)) if mult == 1 else sum(refs) / len(refs)
            errors.append(abs(k - ref) / max(1.0, abs(ref)))
    return np.array(errors)


# family: (draw, seed, p99 bound, max bound). Every family's roots are
# within a few eps, near-Jordan ones too since D and xi^2 come from the
# entries (from the Pauli coefficients they were 1.4e-10 off).
_ACCURACY = {
    "random": (_random, 191, 2e-15, 1e-14),
    "hermitian-diag": (_hermitian_diag, 192, 1e-15, 2e-15),
    "hermitian-random": (_hermitian_random, 193, 5e-15, 1e-12),
    "near-half": (_near_half, 194, 1e-15, 2e-15),
    "near-jordan": (_near_jordan, 195, 1e-15, 2e-15),
}


@pytest.mark.parametrize("family", sorted(_ACCURACY))
def test_poles_match_the_exact_reference(family):
    draw, seed, p99, worst = _ACCURACY[family]
    errors = _pole_errors(draw, seed)
    assert len(errors) > 500
    assert np.percentile(errors, 99) <= p99
    assert errors.max() <= worst


def test_hermitian_diagonal_poles_lie_on_the_axis():
    # a quadratic formula in k took the square root of a discriminant that
    # cancels, and put these poles 1.5e-8 off the axis, with complex
    # eigenvalues, region I and no negative eigenvalue
    T = [[528926.8104022248, 0], [0, 528945.8049787055]]
    c = classify(Interaction.from_matrix(T))
    poles = [0.9999990546896278j, 0.9999990547235742j]
    assert exact_poles(T) == poles
    assert [(p.location, p.order, p.sheet) for p in c.poles] == [(k, 1, Sheet.PHYSICAL) for k in poles]
    assert c.similarity is Similarity.SELF_ADJOINT
    assert c.region is Region.III
    assert c.has_negative_eigenvalues


def test_exactly_hermitian_poles_lie_on_the_axis():
    rng = np.random.default_rng(19)
    answered = 0
    for draw in range(4000):
        T = _hermitian_random(rng) if draw % 2 else _hermitian_diag(rng)
        c = classify(Interaction.from_matrix(T))
        for p in c.poles:
            if p.location is not None:
                assert p.location.real == 0.0, (T, p)
        assert c.region is not Region.I, T
        answered += 1
    assert answered > 3000


def test_small_diagonal_entry_next_to_a_large_one():
    # a + d = 9007199254740997 + 0.0078125i has no float, so gamma0 and the
    # Pauli route to det T lost d and put a pole at k = -64 + i; the entries
    # give the exact root 1 / d in theta
    T = [[9007199254740996, 0], [0, 1 + 0.0078125j]]
    c = classify(Interaction.from_matrix(T))
    poles = [p.location for p in c.poles]
    assert poles == sorted(exact_poles(T), key=lambda k: k.real)
    assert poles[0] == -0.0039060115959719255 + 0.5000305157155935j
    assert (c.similarity, c.region) == (Similarity.NOT_SIMILAR, Region.I)


@pytest.mark.parametrize("x", [-1e-8, 1e-8])
def test_small_jordan_blocks_keep_their_double_pole(x):
    # det T = x^2 is not small against the ad it comes from, so p keeps its
    # degree and its double root 1 / x in theta, an exceptional point for x < 0
    T = [[x, 1], [0, x]]
    c = classify(Interaction.from_matrix(T))
    ((k, order),) = [(p.location, p.order) for p in c.poles]
    refs = exact_poles(T)
    assert order == 2 and refs[0] == refs[1]
    assert abs(k - refs[0]) <= 4 * 2.0**-52 * abs(refs[0])
    assert len(c.exceptional_points) == (1 if x < 0 else 0)


def test_small_hermitian_matrix_has_two_imaginary_poles():
    # T of size 1e-12 has two real eigenvalues that are not 0, so p has
    # degree two and S is bounded at infinity
    T = [[-4e-13, -9e-13 - 5e-13j], [-9e-13 + 5e-13j, 6e-13]]
    c = classify(Interaction.from_matrix(T))
    assert not c.singularity_at_infinity
    assert [(p.location.real, p.order) for p in c.poles] == [(0.0, 1), (0.0, 1)]
    assert (c.similarity, c.region) == (Similarity.SELF_ADJOINT, Region.III)


def test_near_half_snaps_only_an_eigenvalue_at_one_half():
    # a root goes to the origin when its own factor 1 - 2 lam vanishes, not
    # when the product c0 = (1 - 2 lam+)(1 - 2 lam-) is small
    rng = np.random.default_rng(22)
    snapped = 0
    for _ in range(2000):
        s = build(Interaction.from_matrix(_near_half(rng)))
        if any(k == 0j for k, _ in s.roots):
            lams = np.linalg.eigvals(s.interaction.matrix)
            assert np.abs(1 - 2 * lams).min() <= 100 * s.tol + 1e-15, lams
            snapped += 1
    assert snapped > 50
    # an eigenvalue 9.3e-11 from 1/2 puts its root at the origin
    T = [
        [-0.3875390821716302 + 0.8733721674594868j, 0.5446633818762849 + 0.06861976551966886j],
        [0.293283352101677 - 0.6419571694321112j, 0.19772969934064705 + 0.07383456309520044j],
    ]
    assert [k for k, _ in build(Interaction.from_matrix(T)).roots].count(0j) == 1
