"""Command line interface.

Subcommands: classify, eval, metric, sweep, probe. Interactions come in as
JSON on stdin or from --input FILE:

    {"form": "abcd", "a": [re, im], "b": [re, im], "c": [re, im], "d": [re, im]}
    {"form": "frakT", "t": [[[re, im], [re, im]], [[re, im], [re, im]]]}

and, for sweep --family FrakTPath only,

    {"form": "frakT_path", "ts": [t, t, ...]}   (each t shaped like "frakT")

Output is canonical single-line JSON (sorted keys, no whitespace, complex
numbers as [re, im]) or CSV for sweeps. Exit codes: 0 success including
structured pole / not-applicable answers, 2 malformed input (including
non-finite numbers, bad probe ranges and a malformed ZRS_TOLERANCE), 3
coefficients with no boundary matrix, 4 sweep grid guard violations.
"""

import argparse
import cmath
import csv
import json
import math
import sys

from .classifier import Sheet, classify
from .errors import AtPole, NotApplicable, NotRepresentable, ZrsError
from .interaction import Interaction
from .smatrix import build
from .tolerances import base_tol

MAX_GRID = 10_000_000

CSV_COLUMNS = [
    "index",
    "param_re",
    "param_im",
    "pole1_k_re",
    "pole1_k_im",
    "pole1_order",
    "pole1_sheet",
    "pole2_k_re",
    "pole2_k_im",
    "pole2_order",
    "pole2_sheet",
    "pole_at_infinity",
    "eig1_re",
    "eig1_im",
    "eig2_re",
    "eig2_im",
    "sing1",
    "sing2",
    "singularity_at_infinity",
    "exc1_re",
    "exc1_im",
    "similarity",
    "region",
    "has_negative_eigenvalues",
    "error",
]

PROBE_NOTE = (
    "evidence, not a certificate: values bounded across decreasing epsilon "
    "are consistent with similarity to a self-adjoint operator; growth like "
    "1/epsilon indicates a real spectral singularity"
)


class SchemaError(Exception):
    """Input does not match the documented JSON schema."""


def _f(x):
    # adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is
    return float(x) + 0.0


def _pair(z):
    z = complex(z)
    return [_f(z.real), _f(z.imag)]


# json.dumps with these options builds a new encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _dump(obj):
    return _ENCODER.encode(obj)


def _emit(obj):
    sys.stdout.write(_dump(obj) + "\n")


def _read_payload(args):
    if getattr(args, "input", None):
        try:
            with open(args.input) as f:
                raw = f.read()
        except OSError as exc:
            raise SchemaError(f"cannot read {args.input}: {exc}")
    else:
        raw = sys.stdin.read()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    return data


def _cell(value, where):
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
        )
    ):
        raise SchemaError(f"{where} must be [re, im]")
    try:
        z = complex(value[0], value[1])
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(f"{where} must be finite")
    if not cmath.isfinite(z):
        raise SchemaError(f"{where} must be finite")
    return z


def _parse_matrix(raw, where):
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(f"{where} must be a 2x2 matrix of [re, im] pairs")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(f"{where} must be a 2x2 matrix of [re, im] pairs")
        out.append([_cell(cell, f"{where}[{i}][{j}]") for j, cell in enumerate(row)])
    return out


def _interaction_from(data):
    form = data.get("form")
    if form == "abcd":
        missing = [key for key in "abcd" if key not in data]
        if missing:
            raise SchemaError(f"missing field(s): {', '.join(missing)}")
        return Interaction.from_abcd(*(_cell(data[key], f"field {key!r}") for key in "abcd"))
    if form == "frakT":
        if "t" not in data:
            raise SchemaError("missing field 't'")
        return Interaction.from_matrix(_parse_matrix(data["t"], "field 't'"))
    raise SchemaError("field 'form' must be 'abcd' or 'frakT'")


def _path_from(data):
    if data.get("form") != "frakT_path":
        raise SchemaError("FrakTPath sweeps need input with form 'frakT_path'")
    ts = data.get("ts")
    if not isinstance(ts, list) or not ts:
        raise SchemaError("field 'ts' must be a non-empty list of 2x2 matrices")
    return [_parse_matrix(t, f"field 'ts'[{i}]") for i, t in enumerate(ts)]


def _parse_numbers(text, option, form):
    """Finite floats from an option value shaped like form, e.g. "A:B"."""
    sep = "," if "," in form else ":"
    parts = text.split(sep)
    if len(parts) != form.count(sep) + 1:
        raise SchemaError(f"{option} must be {form}")
    try:
        values = [float(part) for part in parts]
    except ValueError:
        raise SchemaError(f"{option} must be {form}")
    if not all(math.isfinite(x) for x in values):
        raise SchemaError(f"{option} must be finite")
    return values


def _parse_complex(text, option):
    re, im = _parse_numbers(text, option, "RE,IM")
    return complex(re, im)


def _classification_payload(c):
    poles = []
    for p in c.poles:
        poles.append(
            {
                "k": None if p.location is None else _pair(p.location),
                "order": p.order,
                "sheet": p.sheet.value,
                "z": None if p.z is None else _pair(p.z),
            }
        )
    return {
        "eigenvalues": [_pair(z) for z in c.eigenvalues],
        "exceptional_points": [_pair(z) for z in c.exceptional_points],
        "has_negative_eigenvalues": c.has_negative_eigenvalues,
        "poles": poles,
        "region": c.region.value,
        "similarity": c.similarity.value,
        "singularity_at_infinity": c.singularity_at_infinity,
        "spectral_singularities": [_f(x) for x in c.spectral_singularities],
    }


def _cmd_classify(args):
    interaction = _interaction_from(_read_payload(args))
    _emit(_classification_payload(classify(interaction)))
    return 0


def _cmd_eval(args):
    k = _parse_complex(args.k, "--k")
    interaction = _interaction_from(_read_payload(args))
    s = build(interaction)
    try:
        m = s.evaluate(k)
    except AtPole:
        _emit({"k": _pair(k), "pole": True})
        return 0
    except ValueError as exc:  # a finite k whose S(k) overflows
        raise SchemaError(str(exc))
    _emit({"k": _pair(k), "s": [[_pair(z) for z in row] for row in m]})
    return 0


def _cmd_metric(args):
    from .metric import Applicability, construct, cosh_chi_from_poles, metric_matrix, verify_intertwining

    interaction = _interaction_from(_read_payload(args))
    try:
        spec = construct(interaction)
    except NotApplicable as exc:
        _emit({"applicable": False, "reason": str(exc)})
        return 0
    E = metric_matrix(spec)
    two_poles = spec.applicability is Applicability.TWO_IMAGINARY_POLES
    _emit(
        {
            "alpha": [_f(x) for x in spec.alpha],
            "applicable": True,
            "applicability": spec.applicability.value,
            "chi": _f(spec.chi),
            "cosh_chi_from_poles": _f(cosh_chi_from_poles(spec)) if two_poles else None,
            "e": [[_pair(z) for z in row] for row in E],
            "intertwining_residual": _f(verify_intertwining(spec)),
            "kappa": _f(spec.kappa),
        }
    )
    return 0


def _grid_size(start, stop, step):
    if step <= 0:
        raise _GuardError("--param step must be positive")
    span = (stop - start) / step
    if math.isinf(span):
        raise _GuardError(f"parameter grid from {start} to {stop} by {step} overflows")
    count = math.floor(span + 1 + 1e-9)
    if count < 1:
        raise _GuardError("empty parameter grid")
    if count > MAX_GRID:
        raise _GuardError(f"parameter grid has {count} points, limit is {MAX_GRID}")
    return count


class _GuardError(Exception):
    pass


# the columns of each numbered slot of a row
_POLE_SLOTS = [tuple(f"pole{i}_{name}" for name in ("k_re", "k_im", "order", "sheet")) for i in (1, 2)]
_EIG_SLOTS = [(f"eig{i}_re", f"eig{i}_im") for i in (1, 2)]
_SING_SLOTS = ["sing1", "sing2"]
_EXC_SLOTS = [("exc1_re", "exc1_im")]


def _row_from(index, param, classification, error):
    row = dict.fromkeys(CSV_COLUMNS)
    row["index"] = index
    row["param_re"] = _f(param.real)
    row["param_im"] = _f(param.imag)
    row["error"] = error
    if classification is None:
        return row
    finite = [p for p in classification.poles if p.sheet is not Sheet.INFINITY]
    for (k_re, k_im, order, sheet), p in zip(_POLE_SLOTS, finite):
        row[k_re] = _f(p.location.real)
        row[k_im] = _f(p.location.imag)
        row[order] = p.order
        row[sheet] = p.sheet.value
    row["pole_at_infinity"] = len(finite) < len(classification.poles)
    for (re, im), z in zip(_EIG_SLOTS, classification.eigenvalues):
        row[re] = _f(z.real)
        row[im] = _f(z.imag)
    for column, x in zip(_SING_SLOTS, classification.spectral_singularities):
        row[column] = _f(x)
    row["singularity_at_infinity"] = classification.singularity_at_infinity
    for (re, im), z in zip(_EXC_SLOTS, classification.exceptional_points):
        row[re] = _f(z.real)
        row[im] = _f(z.imag)
    row["similarity"] = classification.similarity.value
    row["region"] = classification.region.value
    row["has_negative_eigenvalues"] = classification.has_negative_eigenvalues
    return row


# csv writes None as an empty cell and every other value but a bool as str()
_CSV_BOOLS = {True: "true", False: "false"}


_COUPLINGS = {  # abcd coefficients of each coupling family's swept coupling z
    "Delta": lambda z: (z, 0, 0, 0),
    "Mixed": lambda z: (0, z, 0, 0),
    "DeltaPrime": lambda z: (0, 0, 0, z),
}


def _example_v_point(t):
    phase = complex(math.cos(t), math.sin(t))
    return complex(t), Interaction.from_abcd, (-phase, -1, 1, phase.conjugate())


def _sweep_points(args):
    """Lazy (param, constructor, arguments) of each sweep point.

    Whatever rejects the sweep as a whole is checked before this returns.
    """
    if args.family == "FrakTPath":
        matrices = _path_from(_read_payload(args))
        return ((complex(i), Interaction.from_matrix, (m,)) for i, m in enumerate(matrices))
    if not args.param:
        raise SchemaError("--param is required for this family")
    start, stop, step = _parse_numbers(args.param, "--param", "START:STOP:STEP")
    direction = _parse_complex(args.dir, "--dir")
    count = _grid_size(start, stop, step)
    ts = (start + j * step for j in range(count))
    if args.family == "ExampleV":
        return map(_example_v_point, ts)
    # the couplings are linear in t: finite at both ends, finite throughout
    for t in (start, start + (count - 1) * step):
        if not cmath.isfinite(t * direction):
            raise _GuardError(f"coupling t * dir is not finite at t = {t}")
    couplings = _COUPLINGS[args.family]
    zs = (t * direction for t in ts)
    return ((z, Interaction.from_abcd, couplings(z)) for z in zs)


def _cmd_sweep(args):
    points = _sweep_points(args)
    writer = None
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
    for index, (param, constructor, arguments) in enumerate(points):
        try:
            row = _row_from(index, param, classify(constructor(*arguments)), None)
        except ZrsError as exc:
            row = _row_from(index, param, None, type(exc).__name__)
        if writer is not None:
            # the row's keys are CSV_COLUMNS in order
            writer.writerow([_CSV_BOOLS[v] if v.__class__ is bool else v for v in row.values()])
        else:
            _emit(row)
    return 0


def _cmd_probe(args):
    from .resolvent import probe_nodes, similarity_integral_probe

    interaction = _interaction_from(_read_payload(args))
    xi_range = _parse_numbers(args.xi, "--xi", "A:B")
    if not xi_range[0] < xi_range[1]:
        raise SchemaError("--xi must be A:B with A < B")
    if not xi_range[1] - xi_range[0] < math.inf:
        raise SchemaError("--xi must have a finite width B - A")
    if not 0 < args.epsilon < math.inf:
        raise SchemaError("--epsilon must be positive and finite")
    if not 16 <= args.n <= MAX_GRID:
        raise SchemaError(f"--n must be between 16 and {MAX_GRID}")
    n = probe_nodes(args.n)
    try:
        value = similarity_integral_probe(interaction, args.epsilon, xi_range, n=n)
    except ValueError as exc:  # ranges that pass the checks above but overflow its arithmetic
        raise SchemaError(str(exc))
    _emit(
        {
            "epsilon": _f(args.epsilon),
            "label": "evidence",
            "n": n,
            "note": PROBE_NOTE,
            "value": _f(value),
            "xi": [_f(xi_range[0]), _f(xi_range[1])],
        }
    )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zrs",
        description="Scattering matrices and spectral reports for zero-range interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--input", help="read the interaction JSON from FILE instead of stdin")

    p = sub.add_parser("classify", help="poles, spectrum and similarity verdict")
    add_input(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("eval", help="evaluate S(k)")
    add_input(p)
    p.add_argument("--k", required=True, help="evaluation point as RE,IM")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("metric", help="metric operator, when applicable")
    add_input(p)
    p.set_defaults(handler=_cmd_metric)

    p = sub.add_parser("sweep", help="classify along a parameter family")
    add_input(p)
    p.add_argument(
        "--family",
        required=True,
        choices=["Delta", "Mixed", "DeltaPrime", "ExampleV", "FrakTPath"],
    )
    p.add_argument("--param", help="grid as START:STOP:STEP (ignored for FrakTPath)")
    p.add_argument("--dir", default="1,0", help="complex direction RE,IM for the swept coefficient")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("probe", help="similarity integral probe along z = xi + i*epsilon")
    add_input(p)
    p.add_argument("--epsilon", required=True, type=float)
    p.add_argument("--xi", required=True, help="integration range as A:B")
    p.add_argument("--n", type=int, default=200001, help="quadrature nodes")
    p.set_defaults(handler=_cmd_probe)
    return parser


# Built once: parse_args keeps no state between calls, and building the
# parser costs several times what a classify request does.
_PARSER = _build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        base_tol()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotRepresentable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ZrsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
