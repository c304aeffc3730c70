"""Independent checks of zrs output.

Nothing here imports zrs. Boundary matrices come from the couplings through
the normalised map T = M / (4 Xi); poles are the roots of det(I - 2(1+ik)T),
expanded here from the entries of T rather than from its Pauli
coefficients; S(k) is the
product form (I - 2(1-ik)T)(I - 2(1+ik)T)^-1; the probe integrand comes from
a direct 2x2 solve for the boundary coefficients. Every check returns a list
of problems, empty when the output is right.
"""

import cmath
import json
import math

import numpy as np

I2 = np.eye(2, dtype=complex)

CSV_COLUMNS = (
    "index,param_re,param_im,pole1_k_re,pole1_k_im,pole1_order,pole1_sheet,"
    "pole2_k_re,pole2_k_im,pole2_order,pole2_sheet,pole_at_infinity,"
    "eig1_re,eig1_im,eig2_re,eig2_im,sing1,sing2,singularity_at_infinity,"
    "exc1_re,exc1_im,similarity,region,has_negative_eigenvalues,error"
).split(",")

SIMILARITIES = ("SelfAdjoint", "SimilarToSelfAdjoint", "NotSimilar", "Undetermined")
REGIONS = ("I", "II", "III", "Undetermined")

# A pole whose |Im k| / (1 + |k|) falls between these two is too close to
# the real axis to say which sheet it is on; no input is built there.
REAL_AXIS = 1e-9
OFF_AXIS = 1e-6


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def strict_json(text):
    """Parse one JSON value, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def close(got, want, rel):
    return abs(got - want) <= rel * (1 + abs(want))


# --- boundary matrices and the characteristic polynomial -------------------


def xi_of(a, b, c, d):
    """Normalisation Xi = 4 - (ad - bc) + 2(a - d) of the couplings."""
    return 4 - (a * d - b * c) + 2 * (a - d)


def representable(a, b, c, d):
    scale = (1 + abs(a) + abs(b) + abs(c) + abs(d)) ** 2
    return abs(xi_of(a, b, c, d)) > 1e-9 * scale


def t_from_abcd(a, b, c, d):
    xi = xi_of(a, b, c, d)
    det = a * d - b * c
    m = np.array(
        [
            [xi - 2 * (a + d) + 2 * (b + c), 4 + det - 2 * (b - c)],
            [4 + det + 2 * (b - c), xi - 2 * (a + d) - 2 * (b + c)],
        ],
        dtype=complex,
    )
    return m / (4 * xi)


def t_from_gamma(g0, g1, g2, g3):
    """Boundary matrix g0 I + g1 sigma1 + g2 sigma2 + g3 sigma3."""
    return np.array(
        [[g0 + g3, g1 - 1j * g2], [g1 + 1j * g2, g0 - g3]], dtype=complex
    )


def gamma_of(T):
    return (
        (T[0, 0] + T[1, 1]) / 2,
        (T[0, 1] + T[1, 0]) / 2,
        1j * (T[0, 1] - T[1, 0]) / 2,
        (T[0, 0] - T[1, 1]) / 2,
    )


def char_coeffs(T):
    """(c0, c1, c2) with det(I - 2(1+ik)T) = c0 + c1 k + c2 k^2."""
    (t00, t01), (t10, t11) = T.tolist()
    tr = t00 + t11
    det = t00 * t11 - t01 * t10
    # theta = 2 + 2ik, det(I - theta T) = 1 - theta tr + theta^2 det
    return 1 - 2 * tr + 4 * det, -2j * tr + 8j * det, -4 * det


def _max_abs(T):
    return max(abs(x) for row in T.tolist() for x in row)


def is_hermitian(T):
    (t00, t01), (t10, t11) = T.tolist()
    diff = max(abs(t00.imag), abs(t11.imag), abs(t01 - t10.conjugate()))
    return diff <= 1e-12 * (1 + _max_abs(T))


def is_scalar(T):
    (t00, t01), (t10, t11) = T.tolist()
    off = max(abs(t01), abs(t10), abs(t00 - t11))
    return off <= 1e-10 * (1 + _max_abs(T))


def sheet_of(k):
    """'RealAxis', 'Physical', 'Nonphysical', or None when too close to call."""
    y = k.imag / (1 + abs(k))
    if abs(y) <= REAL_AXIS:
        return "RealAxis"
    if abs(y) < OFF_AXIS:
        return None
    return "Physical" if y > 0 else "Nonphysical"


def quadratic_roots(c2, c1, c0):
    """Both roots of c2 k^2 + c1 k + c0, the small one through Vieta's c0 / (c2 r)."""
    sq = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
    big = (-c1 - sq if abs(-c1 - sq) >= abs(-c1 + sq) else -c1 + sq) / (2 * c2)
    if big == 0:
        return 0j, 0j
    return big, c0 / (c2 * big)


def expected_poles(T):
    """Finite poles of S as [(k, order)], and whether S has a pole at infinity.

    A root at k = 0 loses one order to the factor k in the numerator of
    S - I, and a scalar T makes every pole simple.
    """
    c0, c1, c2 = char_coeffs(T)
    scale = max(1.0, abs(c0), abs(c1), abs(c2))
    if abs(c2) > 1e-9 * scale:
        r0, r1 = quadratic_roots(c2, c1, c0)
        if abs(r0 - r1) <= 1e-6 * (1 + abs(r0)):
            roots = [((r0 + r1) / 2, 2)]
        else:
            roots = [(r0, 1), (r1, 1)]
    elif abs(c1) > 1e-9 * scale:
        roots = [(-c0 / c1, 1)]
    else:
        return [], _max_abs(T) > 1e-12
    scalar = is_scalar(T)
    poles = []
    for k, order in roots:
        if scalar:
            order = 1
        if abs(k) <= 1e-9:
            order -= 1
            k = 0j
        if order > 0:
            poles.append((k, order))
    return poles, False


# --- classification ---------------------------------------------------------


def _z_list_close(got, want, rel):
    """Multiset equality of complex numbers within rel."""
    if len(got) != len(want):
        return False
    left = list(want)
    for z in got:
        hit = next((i for i, w in enumerate(left) if close(z, w, rel)), None)
        if hit is None:
            return False
        left.pop(hit)
    return True


def check_classification(T, got, expect=None):
    """Check a classification against T and, when given, closed forms.

    got holds poles [(k, order, sheet)], at_infinity, eigenvalues,
    singularities, sing_at_infinity, exceptional, similarity, region,
    has_negative. expect may give closed-form 'poles' [(k, order)],
    'singularities', 'exceptional', 'similarity' and 'region'.
    """
    expect = expect or {}
    problems = []
    want_poles, want_inf = expected_poles(T)
    poles = got["poles"]
    if len(poles) != len(want_poles):
        problems.append(f"{len(poles)} finite poles, expected {len(want_poles)}")
    else:
        left = list(want_poles)
        for k, order, sheet in poles:
            rel = 1e-6 if order >= 2 else 1e-9
            hit = next(
                (i for i, (w, o) in enumerate(left) if o == order and close(k, w, rel)),
                None,
            )
            if hit is None:
                problems.append(f"pole {k} (order {order}) is not a root of det(I - theta T)")
                continue
            left.pop(hit)
            want_sheet = sheet_of(k)
            if want_sheet is not None and sheet != want_sheet:
                problems.append(f"pole {k} on sheet {sheet}, expected {want_sheet}")
    for k, order in expect.get("poles", ()):
        rel = 1e-7 if order >= 2 else 1e-9
        if not any(o == order and close(p, k, rel) for p, o, _ in poles):
            problems.append(f"closed-form pole {k} (order {order}) missing")
    if got["at_infinity"] != want_inf:
        problems.append(f"pole at infinity {got['at_infinity']}, expected {want_inf}")

    physical = [k * k for k, _, s in poles if s == "Physical"]
    if not _z_list_close(got["eigenvalues"], physical, 1e-9):
        problems.append("eigenvalues are not k^2 of the physical poles")
    real_axis = []
    for z in sorted((k * k).real for k, _, s in poles if s == "RealAxis"):
        if not (real_axis and close(z, real_axis[-1], 1e-9)):
            real_axis.append(z)
    if not _z_list_close(got["singularities"], real_axis, 1e-9):
        problems.append("spectral singularities are not k^2 of the real-axis poles")
    if got["sing_at_infinity"] != got["at_infinity"]:
        problems.append("singularity at infinity disagrees with the pole at infinity")
    doubles = [k * k for k, o, s in poles if s == "Physical" and o >= 2]
    if not _z_list_close(got["exceptional"], doubles, 1e-9):
        problems.append("exceptional points are not k^2 of the double physical poles")
    for key in ("singularities", "exceptional"):
        if key in expect and not _z_list_close(got[key], expect[key], 1e-9):
            problems.append(f"{key} {got[key]}, closed form {expect[key]}")

    similarity, region = got["similarity"], got["region"]
    if similarity not in SIMILARITIES or region not in REGIONS:
        problems.append(f"unknown verdict {similarity} / {region}")
    if (similarity == "SelfAdjoint") != bool(is_hermitian(T)):
        problems.append(f"similarity {similarity} but T hermitian is {is_hermitian(T)}")
    singular = bool(got["singularities"] or got["sing_at_infinity"] or got["exceptional"])
    if singular and similarity == "SimilarToSelfAdjoint":
        problems.append("similar to self-adjoint despite a singularity")
    nonreal = any(not close(z.imag, 0, 1e-9 * (1 + abs(z))) for z in got["eigenvalues"])
    if nonreal:
        want_region = "I"
    elif singular:
        want_region = "II"
    elif similarity in ("SelfAdjoint", "SimilarToSelfAdjoint"):
        want_region = "III"
    else:
        want_region = "Undetermined"
    if region != want_region:
        problems.append(f"region {region}, the verdict fields give {want_region}")
    negative = any(
        abs(z.imag) <= 1e-9 * (1 + abs(z)) and z.real < 0 for z in got["eigenvalues"]
    )
    if got["has_negative"] != negative:
        problems.append("has_negative_eigenvalues disagrees with the eigenvalues")
    for key in ("similarity", "region"):
        if key in expect and got[key] != expect[key]:
            problems.append(f"{key} {got[key]}, expected {expect[key]}")
    return problems


def _pair(v):
    if (
        not isinstance(v, list)
        or len(v) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        raise ValueError(f"not a [re, im] pair: {v!r}")
    return complex(v[0], v[1])


def classification_from_json(obj):
    poles = []
    at_inf = False
    for p in obj["poles"]:
        if p["sheet"] == "Infinity":
            if p["k"] is not None or p["z"] is not None:
                raise ValueError("pole at infinity with a location")
            at_inf = True
            continue
        k = _pair(p["k"])
        if not close(_pair(p["z"]), k * k, 1e-9):
            raise ValueError(f"pole z {p['z']} is not k^2 for k {k}")
        poles.append((k, p["order"], p["sheet"]))
    return {
        "poles": poles,
        "at_infinity": at_inf,
        "eigenvalues": [_pair(z) for z in obj["eigenvalues"]],
        "singularities": [float(x) for x in obj["spectral_singularities"]],
        "sing_at_infinity": obj["singularity_at_infinity"],
        "exceptional": [_pair(z) for z in obj["exceptional_points"]],
        "similarity": obj["similarity"],
        "region": obj["region"],
        "has_negative": obj["has_negative_eigenvalues"],
    }


def check_not_representable(code, out, err):
    problems = []
    if code != 3:
        problems.append(f"exit {code}, expected 3 for NotRepresentable")
    if out:
        problems.append("output on stdout for a NotRepresentable payload")
    if "error" not in err:
        problems.append("no error message on stderr")
    return problems


def check_classify(T, expect, code, out):
    if code != 0:
        return [f"exit {code}"]
    try:
        got = classification_from_json(strict_json(out))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc}"]
    return check_classification(T, got, expect)


# --- eval -------------------------------------------------------------------


def product_form(T, k):
    return (I2 - 2 * (1 - 1j * k) * T) @ np.linalg.inv(I2 - 2 * (1 + 1j * k) * T)


def check_eval(T, k, at_pole, code, out):
    if code != 0:
        return [f"exit {code}"]
    try:
        obj = strict_json(out)
        if _pair(obj["k"]) != k:
            return [f"echoed k {obj['k']} for {k}"]
        if at_pole:
            return [] if obj.get("pole") is True and "s" not in obj else ["no pole reported at a root of det(I - theta T)"]
        if "pole" in obj:
            return [f"pole reported at k = {k}, away from every root"]
        s = np.array([[_pair(x) for x in row] for row in obj["s"]])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc}"]
    want = product_form(T, k)
    err = np.abs(s - want).max() / max(1.0, np.abs(want).max())
    return [] if err <= 1e-9 else [f"S(k) differs from the product form by {err:.3e}"]


# --- metric -----------------------------------------------------------------


def expected_metric(T):
    """'TwoImaginaryPoles', 'OneImaginaryPole', or None when not applicable.

    The construction needs a non-hermitian T with real gamma0 whose gamma
    space part has a real positive square, and no double pole.
    """
    if is_hermitian(T):
        return None
    g0, g1, g2, g3 = gamma_of(T)
    sq = g1 * g1 + g2 * g2 + g3 * g3
    if abs(g0.imag) > 1e-10 * (1 + abs(g0)) or abs(sq.imag) > 1e-10 * (1 + abs(sq)):
        return None
    if sq.real <= 1e-10:
        return None
    if any(order >= 2 for _, order in expected_poles(T)[0]):
        return None
    if abs(g0 * g0 - sq) <= 1e-10 * (1 + abs(g0)) ** 2:
        return "OneImaginaryPole"
    return "TwoImaginaryPoles"


def check_metric(T, code, out):
    if code != 0:
        return [f"exit {code}"]
    try:
        obj = strict_json(out)
        kind = expected_metric(T)
        if kind is None:
            ok = obj.get("applicable") is False and isinstance(obj.get("reason"), str)
            if ok and is_hermitian(T) and obj["reason"] != "already self-adjoint":
                ok = False
            return [] if ok else [f"construction reported applicable, expected not: {obj}"]
        if obj.get("applicable") is not True or obj.get("applicability") != kind:
            return [f"applicability {obj.get('applicability')}, expected {kind}"]
        E = np.array([[_pair(x) for x in row] for row in obj["e"]])
        chi = float(obj["chi"])
        residual = float(obj["intertwining_residual"])
        cosh_poles = obj["cosh_chi_from_poles"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc}"]
    problems = []
    if np.abs(E - E.conj().T).max() > 1e-12 * (1 + np.abs(E).max()):
        problems.append("e is not hermitian")
    elif np.linalg.eigvalsh(E).min() <= 0:
        problems.append("e is not positive definite")
    recomputed = float(np.abs(T.conj().T @ E - E @ T).max())
    if recomputed > 1e-12 or residual > 1e-12:
        problems.append(f"T*E - E T is {recomputed:.3e} (printed {residual:.3e})")
    g = gamma_of(T)
    u = np.array([x.real for x in g[1:]])
    v = np.array([x.imag for x in g[1:]])
    kappa = np.linalg.norm(v) / np.linalg.norm(u)
    if not close(math.tanh(chi), kappa, 1e-9):
        problems.append(f"tanh(chi) {math.tanh(chi)} is not |Im gamma| / |Re gamma| {kappa}")
    if not close(np.trace(E).real / 2, math.cosh(chi), 1e-9):
        problems.append("e does not have cosh(chi) on its diagonal mean")
    if kind == "TwoImaginaryPoles":
        if cosh_poles is None or not close(float(cosh_poles), math.cosh(chi), 1e-10):
            problems.append(f"cosh_chi_from_poles {cosh_poles} differs from cosh(chi) {math.cosh(chi)}")
    elif cosh_poles is not None:
        problems.append("cosh_chi_from_poles given with one imaginary pole")
    return problems


# --- sweep rows ---------------------------------------------------------------


def _csv_text(value):
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def row_cells(line, fmt):
    """One sweep output line as its list of CSV cell strings."""
    if fmt == "csv":
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"row with {len(cells)} cells")
        return cells
    obj = strict_json(line)
    if sorted(obj) != sorted(CSV_COLUMNS):
        raise ValueError("JSON row with the wrong keys")
    return [_csv_text(obj[c]) for c in CSV_COLUMNS]


def check_sweep(lines, fmt, count, point, keep=False, reference=None):
    """Check a sweep output, streamed line by line.

    Returns (failed rows, problems, cells): every row is checked against
    point(index); a row count other than `count` fails every row; with
    `reference` (the cells of the same sweep in the other format) each row
    must have the same cells. cells is the list of rows when keep is set.
    """
    problems = []
    failed = 0
    kept = [] if keep else None
    rows = 0
    lines = iter(lines)
    if fmt == "csv":
        header = next(lines, "").rstrip("\n")
        if header.split(",") != CSV_COLUMNS:
            return count, ["missing or wrong CSV header"], None
    for line in lines:
        try:
            cells = row_cells(line, fmt)
        except ValueError as exc:
            cells, bad = None, [f"row {rows}: {exc}"]
        else:
            bad = check_row(cells, point(rows)) if rows < count else []
            if reference is not None and rows < len(reference) and cells != reference[rows]:
                bad = bad + [f"row {rows}: CSV and JSON cells differ"]
        if bad:
            failed += 1
            problems.extend(bad[:2])
        if keep:
            kept.append(cells)
        rows += 1
    if rows != count:
        return count, problems + [f"{rows} rows for a grid of {count}"], None
    return failed, problems, kept


def _num(cell):
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"non-finite cell {cell!r}")
    return x


def _flag(cell):
    if cell not in ("true", "false"):
        raise ValueError(f"boolean cell {cell!r}")
    return cell == "true"


def classification_from_row(cells):
    r = dict(zip(CSV_COLUMNS, cells))
    poles = []
    for slot in ("1", "2"):
        if r[f"pole{slot}_k_re"]:
            k = complex(_num(r[f"pole{slot}_k_re"]), _num(r[f"pole{slot}_k_im"]))
            poles.append((k, int(r[f"pole{slot}_order"]), r[f"pole{slot}_sheet"]))
    return {
        "poles": poles,
        "at_infinity": _flag(r["pole_at_infinity"]),
        "eigenvalues": [
            complex(_num(r[f"eig{s}_re"]), _num(r[f"eig{s}_im"]))
            for s in ("1", "2")
            if r[f"eig{s}_re"]
        ],
        "singularities": [_num(r[f"sing{s}"]) for s in ("1", "2") if r[f"sing{s}"]],
        "sing_at_infinity": _flag(r["singularity_at_infinity"]),
        "exceptional": [complex(_num(r["exc1_re"]), _num(r["exc1_im"]))] if r["exc1_re"] else [],
        "similarity": r["similarity"],
        "region": r["region"],
        "has_negative": _flag(r["has_negative_eigenvalues"]),
    }


def check_row(cells, point):
    """Check one sweep row against its grid point.

    point holds 'index', 'param', and either 'couplings' (a, b, c, d) or
    'matrix', plus an optional closed-form 'expect'.
    """
    try:
        if int(cells[0]) != point["index"]:
            return [f"index {cells[0]}, expected {point['index']}"]
        param = complex(_num(cells[1]), _num(cells[2]))
        if not close(param, point["param"], 1e-12):
            return [f"param {param}, expected {point['param']}"]
        error = cells[-1]
        if "couplings" in point and not representable(*point["couplings"]):
            if error != "NotRepresentable" or any(cells[3:-1]):
                return [f"row {point['index']}: Xi = 0 but error is {error!r}"]
            return []
        if error:
            return [f"row {point['index']}: unexpected error {error}"]
        got = classification_from_row(cells)
    except ValueError as exc:
        return [f"row {point['index']}: {exc}"]
    T = point["matrix"] if "matrix" in point else t_from_abcd(*point["couplings"])
    return check_classification(T, got, point.get("expect"))


# --- closed forms of the sweep families --------------------------------------


def family_point(family, index, param):
    """Couplings and closed-form expectations of one sweep grid point."""
    if family == "ExampleV":
        phi = param.real
        e = cmath.exp(1j * phi)
        point = {"couplings": (-e, -1, 1, e.conjugate())}
        if abs(math.cos(phi)) > 1e-3 and abs(math.sin(phi / 2)) > 1e-3:
            if math.cos(phi) > 0:
                point["expect"] = {
                    "poles": [(1j * e, 2)],
                    "exceptional": [-(e * e)],
                    "similarity": "NotSimilar",
                }
            else:
                point["expect"] = {
                    "similarity": "SimilarToSelfAdjoint",
                    "region": "III",
                    "singularities": [],
                }
    elif family == "Delta":
        a = param
        point = {"couplings": (a, 0, 0, 0)}
        if abs(a) > 1e-9:
            point["expect"] = {"poles": [(-0.5j * a, 1)]}
    elif family == "DeltaPrime":
        d = param
        point = {"couplings": (0, 0, 0, d)}
        t = d.imag
        if d.real == 0 and abs(t) > 1e-9:
            point["expect"] = {
                "poles": [(2 / t, 1)],
                "singularities": [4 / t**2],
                "similarity": "NotSimilar",
                "region": "II",
            }
    elif family == "Mixed":
        b = param
        point = {"couplings": (0, b, 0, 0), "expect": {"poles": [], "region": "III"}}
    else:
        raise ValueError(family)
    point["index"] = index
    point["param"] = param
    return point


# --- probe --------------------------------------------------------------------


def probe_value(T, epsilon, xi_range, n, chunk=20000):
    """eps * integral of the squared resolvent-difference norms along xi + i eps.

    For each node, k = sqrt(xi + i eps); each of the two test functions
    e^{-|x|} on one half-line has F g = i/(k + i) e_j; the boundary
    coefficients solve (I - theta T) c = 2 T F g directly, and the
    difference has squared norm (|c1|^2 + |c2|^2) / (2 Im k). Composite
    Simpson's rule over the n nodes.
    """
    if n % 2 == 0:
        n += 1
    xi = np.linspace(xi_range[0], xi_range[1], n)
    h = (xi_range[1] - xi_range[0]) / (n - 1)
    weights_total = 0.0
    for lo in range(0, n, chunk):
        x = xi[lo : lo + chunk]
        k = np.sqrt(x + 1j * epsilon)
        theta = 2 * (1 + 1j * k)
        a00 = 1 - theta * T[0, 0]
        a01 = -theta * T[0, 1]
        a10 = -theta * T[1, 0]
        a11 = 1 - theta * T[1, 1]
        det = a00 * a11 - a01 * a10
        f = 1j / (k + 1j)
        total = np.zeros(len(x))
        for j in (0, 1):
            r0 = 2 * T[0, j] * f
            r1 = 2 * T[1, j] * f
            c0 = (a11 * r0 - a01 * r1) / det
            c1 = (a00 * r1 - a10 * r0) / det
            total += (np.abs(c0) ** 2 + np.abs(c1) ** 2) / (2 * k.imag)
        idx = np.arange(lo, lo + len(x))
        w = np.where((idx == 0) | (idx == n - 1), 1.0, np.where(idx % 2 == 1, 4.0, 2.0))
        weights_total += float(np.dot(w, total))
    return epsilon * h / 3 * weights_total


def check_probe(T, epsilon, xi_range, n, code, out):
    if code != 0:
        return [f"exit {code}"], None
    try:
        obj = strict_json(out)
        value = obj["value"]
        if not isinstance(value, float) or obj["epsilon"] != epsilon or obj["n"] != n:
            return [f"malformed probe output {out!r}"], None
        if obj["xi"] != list(xi_range) or obj["label"] != "evidence":
            return [f"malformed probe output {out!r}"], None
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc}"], None
    want = probe_value(T, epsilon, xi_range, n)
    if not abs(value - want) <= 1e-8 * abs(want):
        return [f"probe {value} differs from the direct-solve quadrature {want}"], value
    return [], value
