"""Verdict transitions of `classify` between two checkouts, over seeded families.

    python3 tools/verdict_diff.py ROOT_A ROOT_B

draws every family in FAMILIES at its fixed seed, classifies each draw with
the zrs sources under ROOT_A/src and then under ROOT_B/src, each checkout in
its own subprocess, and prints one block per family:

    family hermitian-diag: 4000 draws, seed 1906; exit 1: 628 -> 628; SelfAdjoint in region I: 37 -> 0;
    SelfAdjoint with an exceptional point: 554 -> 554
         37  SelfAdjoint/I 1P 1P ep0  ->  SelfAdjoint/III 1P 1P ep0

where the family line, printed as one line, is wrapped here. A self-adjoint
operator has neither a non-real eigenvalue nor a Jordan block, so the two
SelfAdjoint counts read 0 on working code.

A verdict is the similarity and region, the order and sheet of each pole
(P physical, R real axis, N nonphysical, inf the pole at infinity) and the
number of exceptional points; a draw that raises gets the error class and
the command line's exit code instead (3 for NotRepresentable, 1 for any
other error). Each row under a family counts the draws whose verdict went
from the left one to the right one. A tree compared with itself prints the
family lines only, and two runs on the same trees print identical output:
the draws depend only on this file and the installed numpy.

    python3 tools/verdict_diff.py --verdicts ROOT

prints the verdict of every draw at one checkout, one tab-separated line
(family, index, verdict) per draw; that is what each subprocess runs.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

DRAWS = 4000
_SHEETS = {"Physical": "P", "RealAxis": "R", "Nonphysical": "N", "Infinity": "inf"}


def _cnormal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _sign(rng):
    return rng.choice((-1.0, 1.0))


def _compose(g0, g1, g2, g3):
    return [[g0 + g3, g1 - 1j * g2], [g1 + 1j * g2, g0 - g3]]


def _random(rng):
    # complex normal T times 10^U(-3, 3)
    return _cnormal(rng, 2, 2) * 10.0 ** rng.uniform(-3, 3)


def _hermitian_noise(rng):
    # hermitian T plus complex noise of size 10^U(-14, -6)
    a = _cnormal(rng, 2, 2)
    return (a + a.conj().T) / 2 + _cnormal(rng, 2, 2) * 10.0 ** rng.uniform(-14, -6)


def _certificate(rng):
    # real gamma0, space part u + iv with v orthogonal to u and |v| = r |u|,
    # r < 1, plus real noise of size 10^U(-15, -8) on T
    u, v = rng.normal(size=3), rng.normal(size=3)
    v -= (v @ u) / (u @ u) * u
    v *= rng.uniform(0, 0.99) * np.linalg.norm(u) / np.linalg.norm(v)
    t = np.array(_compose(rng.normal(), *(u + 1j * v)))
    return t + rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-15, -8)


def _near_axis(rng):
    # a pole k = x + i eta, |eta| = 10^U(-14, -6), from a random space part
    k = complex(rng.uniform(-2, 2), _sign(rng) * 10.0 ** rng.uniform(-14, -6))
    g = _cnormal(rng, 3)
    xi = np.sqrt(g @ g)
    return _compose(1 / (2 * (1 + 1j * k)) - xi, *g)


def _jordan(rng):
    # [[x, y], [0, x]] with |x| = 10^U(-12, 156) and |y| about |x|
    x = 10.0 ** rng.uniform(-12, 156) * np.exp(2j * np.pi * rng.uniform())
    return [[x, abs(x) * complex(*rng.normal(size=2))], [0j, x]]


def _hermitian_diag(rng):
    # diag(a, a (1 + delta)), |a| = 10^U(-3, 6), |delta| = 10^U(-16, -2)
    a = _sign(rng) * 10.0 ** rng.uniform(-3, 6)
    return [[a, 0.0], [0.0, a * (1 + _sign(rng) * 10.0 ** rng.uniform(-16, -2))]]


def _hermitian_random(rng):
    # exactly hermitian: a real scale keeps t10 = conj(t01) and a real diagonal
    a = _cnormal(rng, 2, 2)
    return (a + a.conj().T) * 10.0 ** rng.uniform(-3, 6)


def _near_jordan(rng):
    # gamma = (1 / (2 (1 + i k0)), a + d1, i a + d2, d3) is a Jordan block with
    # a double pole at k0 when d = 0; |d| = 10^e pulls the pole apart
    k0 = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
    a = complex(*rng.normal(size=2))
    d = _cnormal(rng, 3)
    d *= 10.0 ** rng.integers(-16, -5) / np.linalg.norm(d)
    return _compose(1 / (2 * (1 + 1j * k0)), a + d[0], 1j * a + d[1], d[2])


def _near_jordan_tiny(rng):
    # near-jordan's T with |d| = 10^U(-40, -12), its entries written out,
    # [[g0 + d3, 2a + d1 - i d2], [d1 + i d2, g0 - d3]], as composing gamma
    # rounds d away against a: |xi| is about sqrt(2 |a| |d|), below
    # eps |gamma0| where |d| is below about 1e-32
    k0 = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
    a = complex(*rng.normal(size=2))
    d = _cnormal(rng, 3)
    d *= 10.0 ** rng.uniform(-40, -12) / np.linalg.norm(d)
    g0 = 1 / (2 * (1 + 1j * k0))
    return [[g0 + d[2], 2 * a + d[0] - 1j * d[1]], [d[0] + 1j * d[1], g0 - d[2]]]


def _near_half(rng):
    # sigma0 / 2 plus a complex normal matrix of size 10^U(-12, -3)
    return np.eye(2) / 2 + _cnormal(rng, 2, 2) * 10.0 ** rng.uniform(-12, -3)


def _near_scalar(rng):
    # s sigma0, |s| = 10^U(-3, 3), plus a complex normal matrix of size 10^U(-14, -4) |s|
    s = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-3, 3)
    return s * np.eye(2) + _cnormal(rng, 2, 2) * abs(s) * 10.0 ** rng.uniform(-14, -4)


def _hermitian_small_diag(rng):
    # [[a, b], [conj(b), d]] with |a| = 10^U(3, 16), b complex normal and d a
    # real normal plus i |a| 10^U(-16, -12) times a normal: hermitian up to a
    # perturbation that is small against a, not against d
    a = _sign(rng) * 10.0 ** rng.uniform(3, 16)
    b = complex(*rng.normal(size=2))
    d = rng.normal() + 1j * abs(a) * 10.0 ** rng.uniform(-16, -12) * rng.normal()
    return [[a, b], [b.conjugate(), d]]


def _huge(rng):
    # complex normal T times 10^U(146, 156), across the overflow of p's coefficients near |T| = 1e154; one
    # off-diagonal entry is set to 0 in a quarter of the draws and scaled by 1e-300 in another quarter
    t = _cnormal(rng, 2, 2) * 10.0 ** rng.uniform(146, 156)
    j, u = rng.integers(0, 2), rng.uniform()
    t[j, 1 - j] *= 0.0 if u < 0.25 else 1e-300 if u < 0.5 else 1.0
    return t


def _abcd(rng):
    # coupling coefficients (a, b, c, d), each complex normal times 10^U(-1, 1)
    return tuple((_cnormal(rng, 4) * 10.0 ** rng.uniform(-1, 1, size=4)).tolist())


# name: (draw, seed); every draw but abcd's is a 2x2 boundary matrix
FAMILIES = {
    "random": (_random, 1901),
    "hermitian-noise": (_hermitian_noise, 1902),
    "certificate": (_certificate, 1903),
    "near-axis": (_near_axis, 1904),
    "jordan": (_jordan, 1905),
    "hermitian-diag": (_hermitian_diag, 1906),
    "hermitian-random": (_hermitian_random, 1907),
    "near-jordan": (_near_jordan, 1908),
    "near-half": (_near_half, 1909),
    "near-scalar": (_near_scalar, 1910),
    "abcd": (_abcd, 1911),
    "hermitian-small-diag": (_hermitian_small_diag, 2201),
    "huge": (_huge, 3401),
    "near-jordan-tiny": (_near_jordan_tiny, 3402),
}


def draws(name):
    """The DRAWS inputs of one family: 2x2 nested lists of complex, or abcd tuples."""
    draw, seed = FAMILIES[name]
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        x = draw(rng)
        yield x if name == "abcd" else [[complex(z) for z in row] for row in x]


def verdict(name, x):
    """The verdict of classify on one draw, as one line of text."""
    from zrs import Interaction, classify  # from the checkout main puts on sys.path
    from zrs.errors import NotRepresentable

    try:
        c = classify(Interaction.from_abcd(*x) if name == "abcd" else Interaction.from_matrix(x))
    except NotRepresentable:
        return "NotRepresentable (exit 3)"
    except Exception as exc:  # the command line exits 1 on every other error
        return f"{type(exc).__name__} (exit 1)"
    poles = " ".join(f"{p.order}{_SHEETS[p.sheet.value]}" for p in c.poles) or "-"
    return f"{c.similarity.value}/{c.region.value} {poles} ep{len(c.exceptional_points)}"


def _verdicts(root):
    """{family: [verdict of each draw]} at one checkout, from a subprocess."""
    run = subprocess.run(
        [sys.executable, __file__, "--verdicts", str(root)], capture_output=True, text=True, check=True
    )
    out = {name: [] for name in FAMILIES}
    for line in run.stdout.splitlines():
        name, _, v = line.split("\t")
        out[name].append(v)
    return out


def main(argv):
    if len(argv) == 2 and argv[0] == "--verdicts":
        sys.path.insert(0, str(Path(argv[1]).resolve() / "src"))
        for name in FAMILIES:
            for index, x in enumerate(draws(name)):
                print(name, index, verdict(name, x), sep="\t")
        return 0
    if len(argv) != 2:
        print("usage: verdict_diff.py ROOT_A ROOT_B", file=sys.stderr)
        return 2
    roots = [Path(r).resolve() for r in argv]
    for root in roots:
        if not (root / "src" / "zrs" / "classifier.py").is_file():
            print(f"error: no zrs sources under {root / 'src'}", file=sys.stderr)
            return 2
    a, b = (_verdicts(root) for root in roots)
    for name, (_, seed) in FAMILIES.items():
        exit1 = [sum(v.endswith("(exit 1)") for v in side[name]) for side in (a, b)]
        region1 = [sum(v.startswith("SelfAdjoint/I ") for v in side[name]) for side in (a, b)]
        ep = [sum(v.startswith("SelfAdjoint/") and not v.endswith(" ep0") for v in side[name]) for side in (a, b)]
        print(
            f"family {name}: {DRAWS} draws, seed {seed}; exit 1: {exit1[0]} -> {exit1[1]};"
            f" SelfAdjoint in region I: {region1[0]} -> {region1[1]};"
            f" SelfAdjoint with an exceptional point: {ep[0]} -> {ep[1]}"
        )
        moves = Counter((va, vb) for va, vb in zip(a[name], b[name]) if va != vb)
        for (va, vb), n in sorted(moves.items(), key=lambda item: (-item[1], item[0])):
            print(f"  {n:5d}  {va}  ->  {vb}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
