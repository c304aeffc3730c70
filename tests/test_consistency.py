"""One theorem, four readers: classify, eval and metric agree on one input.

The eigenvalues, exceptional points, spectral singularities and similarity
all follow from the poles of S, so the commands that read them must agree.
Over a fixed subsample of every family of tools/verdict_diff.py, the
benchmark's cli-calls corpus, tests/test_scale.py's certificate family and
T = [[0, 0], [10^m, 1]] for m = 0 ... 15 and the T of EDGES:

* where the metric construction applies, classify says
  SimilarToSelfAdjoint/III, and the applicability kind counts the roots
  the build recorded;
* where classify says SimilarToSelfAdjoint with eigenvalues, construct
  returns a spec or raises NotApplicable, never DegenerateGamma or another
  error; where it raises, the reason is one of KNOWN_REFUSALS;
* the verdict and the pole structure (the sorted orders and sheets) do not
  move under four exact symmetries of T: the adjoint, the transpose,
  a <-> d with b <-> c, and b -> ib with c -> -ic;
* SMatrixFn._value, what eval runs, raises AtPole at every finite pole
  classify reports.
"""

import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from zrs.classifier import Region, Sheet, Similarity, classify
from zrs.errors import AtPole, NotApplicable, NotRepresentable
from zrs.interaction import Interaction
from zrs.metric import Applicability, _applicability, construct
from zrs.smatrix import build

ROOT = Path(__file__).resolve().parents[1]
STRIDE = 16  # every 16th draw: 250 of each family's 4,000

# the known disagreement: where classify says SimilarToSelfAdjoint with eigenvalues and construct refuses,
# the reason, and how many of the draws below give it, by source. kappa = |v| / |u| rounds to 1 where
# xi^2 = |u|^2 - |v|^2 is below about eps |u|^2, though E is representable (ROADMAP item 15):
# [[0, 0], [c, 1]] from c = 1e8, and near-jordan-tiny-axis, whose real split |xi| = 10^U(-20, -6)
# is below that on most draws
KNOWN_REFUSALS = {"E not representable: kappa rounds to 1": {"near-jordan-tiny-axis": 227, "zero-row": 8}}

# T at the edges of the similarity rule: a non-real split 1 +- 5e-10i that each lam's own test calls real;
# a Jordan block within 100 tol of scalar, one root of multiplicity 2 whose order the scalar rule sets to 1;
# distinct real eigenvalues 1/2 and 1, the root of 1/2 cancelled to order 0
EDGES = ([[1, 5e-10], [-5e-10, 1]], [[1, 5e-11], [0, 1]], [[0.5, 1], [0, 1]])


def _verdict_diff():
    spec = importlib.util.spec_from_file_location("verdict_diff", ROOT / "tools" / "verdict_diff.py")
    vd = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(vd)
    return vd


def _matrices():
    """(source, T) of every draw checked, T as [[a, b], [c, d]] of Python complex."""
    vd = _verdict_diff()
    for name in vd.FAMILIES:
        for x in itertools.islice(vd.draws(name), 0, None, STRIDE):
            yield name, Interaction.from_abcd(*x).matrix.tolist() if name == "abcd" else x
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import corpus
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for seed in range(1, 6):
        for e in corpus.cli_corpus(np.random.default_rng([seed, 2])):
            if e["T"] is not None:
                yield "bench", np.asarray(e["T"]).tolist()
    from test_scale import _certificate

    rng = np.random.default_rng([2000, 36])
    for _ in range(150):
        yield "scale-certificate", (_certificate(rng) * 10.0 ** rng.uniform(-150, 150)).tolist()
    for m in range(16):
        yield "zero-row", [[0, 0], [10.0**m, 1]]
    for T in EDGES:
        yield "edge", T


def _symmetries(T):
    """The adjoint, the transpose, a <-> d with b <-> c, and b -> ib with c -> -ic of T."""
    (a, b), (c, d) = [[complex(t) for t in row] for row in T]
    conj = complex.conjugate
    return (
        [[conj(a), conj(c)], [conj(b), conj(d)]],
        [[a, c], [b, d]],
        [[d, c], [b, a]],
        [[a, 1j * b], [-1j * c, d]],
    )


def _structure(c):
    """The verdict and pole structure of a classification: what the exact symmetries keep."""
    return c.similarity, c.region, sorted((p.order, p.sheet.value) for p in c.poles), len(c.exceptional_points)


@pytest.fixture(scope="module")
def draws():
    """(source, interaction, build, classification) of every draw that is representable."""
    out = []
    for source, T in _matrices():
        i = Interaction.from_matrix(T)
        try:
            out.append((source, i, build(i), classify(i)))
        except NotRepresentable:
            continue
    return out


def test_metric_applies_only_where_classify_says_similar(draws):
    applies = Counter()
    for source, i, s, c in draws:
        try:
            kind = _applicability(s)
        except NotApplicable:
            continue
        applies[source] += 1
        assert (c.similarity, c.region) == (Similarity.SIMILAR_TO_SELF_ADJOINT, Region.III), (source, i)
        assert len(s.roots) == (2 if kind is Applicability.TWO_IMAGINARY_POLES else 1), (source, i)
    assert applies["certificate"] > 200 and applies["bench"] > 10, applies
    assert applies["zero-row"] == 16 and applies["edge"] == 1, applies


def test_similar_with_eigenvalues_gets_a_spec_or_a_known_reason(draws):
    refusals = {reason: Counter() for reason in KNOWN_REFUSALS}
    specs = 0
    for source, i, s, c in draws:
        if c.similarity is not Similarity.SIMILAR_TO_SELF_ADJOINT or not c.eigenvalues:
            continue
        try:
            construct(i)
        except NotApplicable as exc:
            assert str(exc) in refusals, (source, i, exc)
            refusals[str(exc)][source] += 1
            continue
        specs += 1
    assert {reason: dict(n) for reason, n in refusals.items()} == KNOWN_REFUSALS
    assert specs > 400, specs


def test_exact_symmetries_keep_the_verdict_and_the_poles(draws):
    for source, i, _, c in draws:
        for T in _symmetries(i.matrix.tolist()):
            assert _structure(classify(Interaction.from_matrix(T))) == _structure(c), (source, i, T)


def test_eval_is_at_a_pole_at_every_reported_pole(draws):
    checked = 0
    for source, i, s, c in draws:
        for p in c.poles:
            if p.sheet is not Sheet.INFINITY:
                with pytest.raises(AtPole):
                    s._value(p.location)
                checked += 1
    assert checked > 7000, checked
