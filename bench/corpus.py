"""Seeded inputs of the three workloads.

Every interaction is built from a closed form, so the verdict it must get is
known before zrs sees it. The seed moves the parameters inside each class; it
never changes how many inputs there are or which classes they belong to, so
every seed runs the same amount of the same kind of work.
"""

import cmath
import json
import math

import numpy as np

import oracle


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def abcd_payload(a, b, c, d):
    return json.dumps(
        {"form": "abcd", "a": _pair(a), "b": _pair(b), "c": _pair(c), "d": _pair(d)}
    )


def matrix_json(T):
    return [[_pair(T[i, j]) for j in range(2)] for i in range(2)]


def frakt_payload(T):
    return json.dumps({"form": "frakT", "t": matrix_json(T)})


def _entry(name, T, expect, abcd=None, **extra):
    return dict(name=name, T=T, expect=expect, abcd=abcd, **extra)


def _from_abcd(name, abcd, expect, **extra):
    return _entry(name, oracle.t_from_abcd(*abcd), expect, abcd=abcd, **extra)


def _dyadic(rng, lo, hi, step=0.25):
    return lo + step * int(rng.integers(0, round((hi - lo) / step) + 1))


# --- one interaction per verdict class --------------------------------------


def eigenvalue(rng):
    s = _dyadic(rng, 0.5, 1.75)  # a = -2 would make Xi = 4 + 2a vanish
    return _from_abcd(
        "eigenvalue",
        (-s, 0, 0, 0),
        {"poles": [(0.5j * s, 1)], "similarity": "SelfAdjoint", "region": "III"},
        pole_k=0.5j * s,
    )


def resonance(rng):
    s = _dyadic(rng, 0.5, 3.0)
    return _from_abcd(
        "resonance",
        (s, 0, 0, 0),
        {"poles": [(-0.5j * s, 1)], "similarity": "SelfAdjoint", "region": "III"},
        pole_k=-0.5j * s,
    )


def real_axis(rng):
    t = float(rng.choice([0.25, 0.5, 1.0, 2.0])) * float(rng.choice([-1.0, 1.0]))
    return _from_abcd(
        "real_axis",
        (0, 0, 0, 1j * t),
        {
            "poles": [(2 / t, 1)],
            "singularities": [4 / t**2],
            "similarity": "NotSimilar",
            "region": "II",
        },
        pole_k=complex(2 / t),
    )


def exceptional(rng):
    phi = float(rng.uniform(0.2, 1.2)) * float(rng.choice([-1.0, 1.0]))
    e = cmath.exp(1j * phi)
    return _from_abcd(
        "exceptional",
        (-e, -1, 1, e.conjugate()),
        {
            "poles": [(1j * e, 2)],
            "exceptional": [-(e * e)],
            "similarity": "NotSimilar",
            "region": "I",
        },
    )


def at_infinity(rng):
    """Nilpotent T: det(I - theta T) = 1, S grows linearly in k."""
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
    n = np.array([[0, complex(*rng.uniform(0.3, 1.0, 2))], [0, 0]])
    T = u @ n @ np.linalg.inv(u)
    return _entry(
        "at_infinity",
        T,
        {"poles": [], "similarity": "NotSimilar", "region": "II"},
    )


def constant(rng):
    """gamma0 = 1/4 with (gamma1^2 + gamma2^2 + gamma3^2) = 1/16: S = I - 4T."""
    w = float(rng.uniform(0.2, 1.0))
    T = oracle.t_from_gamma(0.25, math.cosh(w) / 4, 1j * math.sinh(w) / 4, 0)
    return _entry(
        "constant",
        T,
        {"poles": [], "similarity": "SimilarToSelfAdjoint", "region": "III"},
    )


def krein(rng):
    return _entry(
        "krein",
        np.eye(2, dtype=complex) / 2,
        {"poles": [], "similarity": "SelfAdjoint", "region": "III"},
    )


def _well_separated(T):
    c0, c1, c2 = oracle.char_coeffs(T)
    roots = np.roots([c2, c1, c0])
    return (
        abs(c2) > 1e-3
        and abs(roots[0] - roots[1]) > 1e-2
        and all(abs(r) > 1e-2 and abs(r.imag) > 1e-2 * (1 + abs(r)) for r in roots)
    )


def self_adjoint(rng):
    while True:
        m = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        T = (m + m.conj().T) / 2
        if _well_separated(T):
            return _entry("self_adjoint", T, {"similarity": "SelfAdjoint", "region": "III"})


def generic(rng):
    while True:
        T = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        if _well_separated(T):
            return _entry("generic", T, {})


def _orthogonal_pair(rng, norm_u, kappa):
    u = rng.normal(size=3)
    u *= norm_u / np.linalg.norm(u)
    v = rng.normal(size=3)
    v -= u * np.dot(u, v) / np.dot(u, u)
    v *= kappa * norm_u / np.linalg.norm(v)
    return u, v


def similar_one(rng):
    """Real gamma0, (Re gamma) . (Im gamma) = 0 and det T = 0: one imaginary pole."""
    g0 = float(rng.uniform(0.35, 0.8))
    kappa = float(rng.uniform(0.1, 0.7))
    u, v = _orthogonal_pair(rng, g0 / math.sqrt(1 - kappa**2), kappa)
    T = oracle.t_from_gamma(g0, *(u + 1j * v))
    k = 1j * (4 * g0 - 1) / (4 * g0)
    return _entry(
        "similar_one",
        T,
        {"poles": [(k, 1)], "similarity": "SimilarToSelfAdjoint", "region": "III"},
    )


def similar_two(rng):
    """Real gamma0 and a real positive square of the space part: two imaginary poles."""
    while True:
        g0 = float(rng.uniform(0.05, 0.2))
        kappa = float(rng.uniform(0.2, 0.7))
        u, v = _orthogonal_pair(rng, float(rng.uniform(0.2, 0.4)), kappa)
        root = math.sqrt(np.dot(u, u) - np.dot(v, v))
        thetas = [1 / (g0 + root), 1 / (g0 - root)]
        if all(abs(th - 2) > 0.1 for th in thetas):
            break
    T = oracle.t_from_gamma(g0, *(u + 1j * v))
    poles = [(1j * (1 - th / 2), 1) for th in thetas]
    return _entry(
        "similar_two",
        T,
        {"poles": poles, "similarity": "SimilarToSelfAdjoint", "region": "III"},
    )


def not_similar(rng):
    s = float(rng.uniform(0.5, 2.5))
    r = float(rng.uniform(0.3, 1.5)) * float(rng.choice([-1.0, 1.0]))
    a = -complex(s, r)
    return _from_abcd(
        "not_similar",
        (a, 0, 0, 0),
        {"poles": [(-0.5j * a, 1)], "similarity": "NotSimilar", "region": "I"},
    )


def undetermined(rng):
    """A real negative eigenvalue with complex gamma0: no criterion decides."""
    theta_plus = -float(rng.uniform(1.5, 3.0))
    theta_minus = complex(3.0, float(rng.uniform(0.5, 1.5)))
    g0 = (1 / theta_plus + 1 / theta_minus) / 2
    xi = (1 / theta_plus - 1 / theta_minus) / 2
    T = oracle.t_from_gamma(g0, xi, 0, 0)
    poles = [(1j * (1 - th / 2), 1) for th in (theta_plus, theta_minus)]
    return _entry(
        "undetermined",
        T,
        {"poles": poles, "similarity": "Undetermined", "region": "Undetermined"},
    )


def not_representable(rng):
    """Couplings with Xi = 4 - (ad - bc) + 2(a - d) = 0."""
    b, c = _dyadic(rng, -1, 1, 0.125), _dyadic(rng, -1, 1, 0.125)
    d = _dyadic(rng, -1, 1, 0.125)
    a = -(4 + b * c - 2 * d) / (2 - d)
    return dict(name="not_representable", T=None, abcd=(a, b, c, d), expect={})


# --- cli-calls ----------------------------------------------------------------


def _random_k(rng, T):
    """An evaluation point well away from every pole and from k = 0."""
    c0, c1, c2 = oracle.char_coeffs(T)
    scale = max(1.0, abs(c0), abs(c1), abs(c2))
    while True:
        k = complex(*rng.uniform(-2, 2, 2))
        if abs(k) > 0.2 and abs(c0 + (c1 + c2 * k) * k) > 0.05 * scale * (1 + abs(k) ** 2):
            return k


def _k_arg(k):
    return f"--k={k.real!r},{k.imag!r}"


def cli_corpus(rng):
    """Interactions for cli-calls, each class once, several in both forms."""
    both = [eigenvalue, resonance, real_axis, exceptional, not_similar]
    matrix_only = [
        at_infinity, constant, krein, self_adjoint, similar_one, similar_two,
        similar_two, undetermined,
    ]
    entries = []
    for make in both:
        e = make(rng)
        entries.append(dict(e, form="abcd", payload=abcd_payload(*e["abcd"])))
        entries.append(dict(e, form="frakT", payload=frakt_payload(e["T"])))
    for make in matrix_only:
        e = make(rng)
        entries.append(dict(e, form="frakT", payload=frakt_payload(e["T"])))
    e = not_representable(rng)
    entries.append(dict(e, form="abcd", payload=abcd_payload(*e["abcd"])))
    return entries


def cli_ops(seed):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for e in cli_corpus(rng):
        T, payload = e["T"], e["payload"]
        if T is None:
            for argv in (["classify"], ["eval", "--k=1.0,0.5"], ["metric"]):
                ops.append(dict(kind=argv[0], argv=argv, payload=payload, answers=1, entry=e,
                                check=oracle.check_not_representable))
            continue
        ops.append(
            dict(
                kind="classify", argv=["classify"], payload=payload, answers=1, entry=e,
                check=lambda code, out, err, T=T, x=e["expect"]: oracle.check_classify(T, x, code, out),
            )
        )
        k = _random_k(rng, T)
        ops.append(
            dict(
                kind="eval", argv=["eval", _k_arg(k)], payload=payload, answers=1, entry=e,
                check=lambda code, out, err, T=T, k=k: oracle.check_eval(T, k, False, code, out),
            )
        )
        if "pole_k" in e and e["form"] == "abcd":
            k = e["pole_k"]
            ops.append(
                dict(
                    kind="eval", argv=["eval", _k_arg(k)], payload=payload, answers=1, entry=e,
                    check=lambda code, out, err, T=T, k=k: oracle.check_eval(T, k, True, code, out),
                )
            )
        ops.append(
            dict(
                kind="metric", argv=["metric"], payload=payload, answers=1, entry=e,
                check=lambda code, out, err, T=T: oracle.check_metric(T, code, out),
            )
        )
    return ops


# --- sweep-mix ----------------------------------------------------------------


def _param_arg(start, step, count):
    return f"--param={start!r}:{start + (count - 1) * step!r}:{step!r}"


def _family(name, start, step, count, direction=None):
    """Sweep spec of a coupling family; grid points are made on demand."""
    argv = ["--family", name, _param_arg(start, step, count)]
    if direction is None:
        def point(j):
            return oracle.family_point(name, j, complex(start + j * step))
    else:
        argv.append(f"--dir={direction.real!r},{direction.imag!r}")

        def point(j):
            return oracle.family_point(name, j, (start + j * step) * direction)
    return dict(family=name, argv=argv, payload="", count=count, point=point)


def example_v(rng, count):
    """ExampleV over one full period of phi, with phi = 0 (Xi = 0) on the grid."""
    h = 2 * math.pi / count
    m = int(rng.integers(count // 4, 3 * count // 4))
    return _family("ExampleV", -m * h, h, count)


def sweep_specs(seed):
    """The sweeps of one sweep-mix round; each runs once as CSV and once as JSON."""
    rng = np.random.default_rng([seed, 1])
    specs = [
        example_v(rng, 1000),
        # Delta along the real axis crosses a = -2, where Xi = 4 + 2a vanishes
        _family("Delta", -2 - int(rng.integers(100, 200)) / 64, 1 / 64, 513, 1 + 0j),
        # Delta along a tilted direction: non-real eigenvalues, region I
        _family("Delta", -3.0, 1 / 64, 385, cmath.exp(1j * float(rng.uniform(0.3, 1.2)))),
        # DeltaPrime with d = i t: a real-axis singularity at 4 / t^2
        _family("DeltaPrime", 0.25 + int(rng.integers(0, 64)) / 128, 1 / 128, 513, 1j),
        _family("Mixed", -4.0, 1 / 64, 513, cmath.exp(1j * float(rng.uniform(0.2, 1.3)))),
    ]
    # FrakTPath: a seeded mix of classes, so that regions I, II, III and
    # Undetermined all occur (uniform random matrices are region I)
    makers = [generic] * 6 + [
        real_axis, at_infinity, similar_two, similar_one, self_adjoint,
        undetermined, not_similar, exceptional, constant, resonance,
    ]
    entries = [makers[j % len(makers)](rng) for j in range(320)]
    payload = json.dumps({"form": "frakT_path", "ts": [matrix_json(e["T"]) for e in entries]})

    def point(j):
        e = entries[j]
        return dict(index=j, param=complex(j), matrix=e["T"], expect=e["expect"])

    specs.append(dict(family="FrakTPath", argv=["--family", "FrakTPath"], payload=payload,
                      count=len(entries), point=point))
    return specs


def long_sweep(seed, count=30000):
    """One long ExampleV sweep, long enough that a grid built up front shows in memory."""
    return example_v(np.random.default_rng([seed, 4]), count)


# --- probe-ladder -------------------------------------------------------------

EPSILONS = (1.0, 0.1, 0.01, 0.001)
XI_RANGE = (-10.0, 10.0)
PROBE_N = 200001


def probe_entries(seed):
    """(label, entry, epsilons): the two ladders and a few corpus entries."""
    rng = np.random.default_rng([seed, 3])
    bounded = _from_abcd("bounded", (1, -1, 1, -1), {})  # ExampleV at phi = pi
    divergent = _from_abcd("divergent", (0, 0, 0, 1j), {})  # d = i
    phi = float(rng.uniform(2.0, 4.2))
    e = cmath.exp(1j * phi)
    extra = [
        resonance(rng),
        _from_abcd("mixed", (0, complex(*rng.uniform(-2, 2, 2)), 0, 0), {}),
        constant(rng),
        _from_abcd("example_v", (-e, -1, 1, e.conjugate()), {}),
    ]
    out = [("bounded", bounded, EPSILONS), ("divergent", divergent, EPSILONS)]
    out += [(x["name"], x, (0.01,)) for x in extra]
    return out
