"""Command line interface.

Subcommands: classify, eval, metric, sweep, probe. Interactions come in as
JSON on stdin or from --input FILE:

    {"form": "abcd", "a": [re, im], "b": [re, im], "c": [re, im], "d": [re, im]}
    {"form": "frakT", "t": [[[re, im], [re, im]], [[re, im], [re, im]]]}

and, for sweep --family FrakTPath only,

    {"form": "frakT_path", "ts": [t, t, ...]}   (each t shaped like "frakT")

A command line of a subcommand and whole option names is read from the
_COMMANDS table directly; any other (help, abbreviations, option errors) goes
to argparse, imported only then, so its text and exit status are argparse's.

Output is canonical single-line JSON (sorted keys, no whitespace, complex
numbers as [re, im]) or CSV for sweeps. Exit codes: 0 success including
structured pole / not-applicable answers, 2 malformed input (including
non-finite numbers, an unreadable or non-UTF-8 --input file or stdin, JSON
nested too deeply, bad probe ranges and a malformed ZRS_TOLERANCE), 3
coefficients with no boundary matrix, 4 sweep grid guard violations.
"""

import cmath
import json
import math
import operator
import sys
from types import SimpleNamespace

from .classifier import Sheet, classify
from .errors import AtPole, NotApplicable, NotRepresentable, ZrsError
from .interaction import Interaction
from .smatrix import build
from .tolerances import _REQUEST_TOL, base_tol

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
    # x is a Python float: adding 0.0 turns -0.0 into 0.0 and leaves every other float as it is
    return x + 0.0


def _pair(z):
    # z is a Python complex, each part a float that _f would take
    return [z.real + 0.0, z.imag + 0.0]


# json.dumps with these options builds a new encoder on every call. Every
# payload is a tree built fresh for one answer, so it holds no cycle to check.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False)


def _dump(obj):
    return _ENCODER.encode(obj)


def _emit(obj):
    sys.stdout.write(_dump(obj) + "\n")


def _read_payload(args):
    path = getattr(args, "input", None)
    try:
        if path:
            with open(path) as f:
                raw = f.read()
        else:
            raw = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path or 'stdin'}: {exc}")
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise SchemaError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise SchemaError("top-level JSON value must be an object")
    return data


_NUMBER = (int, float)  # a cell's parts by exact type: bool, a subclass of int, is its own type


def _field(name, index):
    """The field name of an error text, e.g. field 't'[1][0] for name "t" and index (1, 0)."""
    return f"field {name!r}" + "".join(f"[{i}]" for i in index)


def _cell(value, name, *index):
    """The finite complex of an [re, im] cell; an error text names it as field name at index."""
    if not isinstance(value, list) or len(value) != 2 or type(value[0]) not in _NUMBER or type(value[1]) not in _NUMBER:
        raise SchemaError(f"{_field(name, index)} must be [re, im]")
    try:
        z = complex(value[0], value[1])
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(f"{_field(name, index)} must be finite")
    if not cmath.isfinite(z):
        raise SchemaError(f"{_field(name, index)} must be finite")
    return z


def _parse_matrix(raw, name, *index):
    if not isinstance(raw, list) or len(raw) != 2:
        raise SchemaError(f"{_field(name, index)} must be a 2x2 matrix of [re, im] pairs")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != 2:
            raise SchemaError(f"{_field(name, index)} must be a 2x2 matrix of [re, im] pairs")
        out.append([_cell(row[0], name, *index, i, 0), _cell(row[1], name, *index, i, 1)])
    return out


def _interaction_from(data):
    form = data.get("form")
    if form == "abcd":
        missing = [key for key in "abcd" if key not in data]
        if missing:
            raise SchemaError(f"missing field(s): {', '.join(missing)}")
        return Interaction.from_abcd(*[_cell(data[key], key) for key in "abcd"])
    if form == "frakT":
        if "t" not in data:
            raise SchemaError("missing field 't'")
        return Interaction.from_matrix(_parse_matrix(data["t"], "t"))
    raise SchemaError("field 'form' must be 'abcd' or 'frakT'")


def _path_from(data):
    if data.get("form") != "frakT_path":
        raise SchemaError("FrakTPath sweeps need input with form 'frakT_path'")
    ts = data.get("ts")
    if not isinstance(ts, list) or not ts:
        raise SchemaError("field 'ts' must be a non-empty list of 2x2 matrices")
    return [_parse_matrix(t, "ts", i) for i, t in enumerate(ts)]


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
    # an enum's value as _value_, which skips the property behind .value
    poles = [
        {
            "k": None if p.location is None else _pair(p.location),
            "order": p.order,
            "sheet": p.sheet._value_,
            "z": None if p.z is None else _pair(p.z),
        }
        for p in c.poles
    ]
    return {
        "eigenvalues": [_pair(z) for z in c.eigenvalues],
        "exceptional_points": [_pair(z) for z in c.exceptional_points],
        "has_negative_eigenvalues": c.has_negative_eigenvalues,
        "poles": poles,
        "region": c.region._value_,
        "similarity": c.similarity._value_,
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
    try:
        m = build(interaction)._value(k)
    except AtPole:
        _emit({"k": _pair(k), "pole": True})
        return 0
    except ValueError as exc:  # a finite k whose S(k) overflows
        raise SchemaError(str(exc))
    _emit({"k": _pair(k), "s": [[_pair(z) for z in row] for row in m]})
    return 0


def _cmd_metric(args):
    from .metric import Applicability, _metric_entries, construct, cosh_chi_from_poles, verify_intertwining

    interaction = _interaction_from(_read_payload(args))
    try:
        spec = construct(interaction)
    except NotApplicable as exc:
        _emit({"applicable": False, "reason": str(exc)})
        return 0
    two_poles = spec.applicability is Applicability.TWO_IMAGINARY_POLES
    _emit(
        {
            "alpha": [_f(x) for x in spec.alpha],
            "applicable": True,
            "applicability": spec.applicability.value,
            "chi": _f(spec.chi),
            "cosh_chi_from_poles": _f(cosh_chi_from_poles(spec)) if two_poles else None,
            "e": [[_pair(z) for z in row] for row in _metric_entries(spec)],
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


_BLANK = ("",) * 21  # the cells between an error row's parameter and its error
_BOOL = {True: "true", False: "false"}
_NON_FINITE = {"nan", "inf", "-inf"}  # repr of the floats json.JSONEncoder(allow_nan=False) rejects


def _row_cells(index, param, c, error):
    """The text of each cell of one sweep row in CSV_COLUMNS order, "" for an empty cell.

    A float is its repr (adding 0.0 turns -0.0 into 0.0), an int its repr, a
    bool true or false and an enum its value (as _value_, which skips the
    property behind .value). A float that is not finite raises the ValueError
    json.JSONEncoder raises for it, in either format.
    """
    cells = [repr(index), repr(param.real + 0.0), repr(param.imag + 0.0)]
    if c is None:
        cells += _BLANK
        cells.append(error)
    else:
        finite = [p for p in c.poles if p.sheet is not Sheet.INFINITY]
        for p in finite[:2]:
            cells += repr(p.location.real + 0.0), repr(p.location.imag + 0.0), repr(p.order), p.sheet._value_
        cells += _BLANK[4 * len(finite) : 8]
        cells.append(_BOOL[len(finite) < len(c.poles)])
        for z in c.eigenvalues[:2]:
            cells += repr(z.real + 0.0), repr(z.imag + 0.0)
        cells += _BLANK[2 * len(c.eigenvalues) : 4]
        for x in c.spectral_singularities[:2]:
            cells.append(repr(x + 0.0))
        cells += _BLANK[len(c.spectral_singularities) : 2]
        cells.append(_BOOL[c.singularity_at_infinity])
        for z in c.exceptional_points[:1]:
            cells += repr(z.real + 0.0), repr(z.imag + 0.0)
        cells += _BLANK[2 * len(c.exceptional_points) : 2]
        cells += c.similarity._value_, c.region._value_, _BOOL[c.has_negative_eigenvalues], ""
    if not _NON_FINITE.isdisjoint(cells):
        raise ValueError("Out of range float values are not JSON compliant")
    return cells


# A JSON row: keys sorted, text cells quoted, empty cells null. No cell text
# needs escaping or is "null", so a quoted "null" is an empty text cell.
_JSON_KEYS = sorted(CSV_COLUMNS)
_JSON_ROW = "{%s}\n" % ",".join(
    f'"{key}":"%s"' if key.endswith("sheet") or key in ("similarity", "region", "error") else f'"{key}":%s'
    for key in _JSON_KEYS
)
_JSON_ORDER = operator.itemgetter(*map(CSV_COLUMNS.index, _JSON_KEYS))


def _json_line(cells):
    return (_JSON_ROW % tuple([cell or "null" for cell in _JSON_ORDER(cells)])).replace('"null"', "null")


_COUPLINGS = {  # abcd coefficients of each coupling family's swept coupling z, complex for from_abcd's fast path
    "Delta": lambda z: (z, 0j, 0j, 0j),
    "Mixed": lambda z: (0j, z, 0j, 0j),
    "DeltaPrime": lambda z: (0j, 0j, 0j, z),
}


def _example_v_point(t):
    phase = complex(math.cos(t), math.sin(t))
    return complex(t), Interaction.from_abcd, (-phase, -1 + 0j, 1 + 0j, phase.conjugate())


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
    write = sys.stdout.write
    if args.format == "csv":
        write(",".join(CSV_COLUMNS) + "\n")
    for index, (param, constructor, arguments) in enumerate(points):
        try:
            cells = _row_cells(index, param, classify(constructor(*arguments)), None)
        except ZrsError as exc:
            cells = _row_cells(index, param, None, type(exc).__name__)
        write(",".join(cells) + "\n" if args.format == "csv" else _json_line(cells))
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


_INPUT = ("--input", False, None, None, None, "read the interaction JSON from FILE instead of stdin")

# Each subcommand's handler, help and options as (flag, required, type,
# choices, default, help); _build_parser and _plain_args both read them here.
_COMMANDS = {
    "classify": (_cmd_classify, "poles, spectrum and similarity verdict", [_INPUT]),
    "eval": (_cmd_eval, "evaluate S(k)", [_INPUT, ("--k", True, None, None, None, "evaluation point as RE,IM")]),
    "metric": (_cmd_metric, "metric operator, when applicable", [_INPUT]),
    "sweep": (_cmd_sweep, "classify along a parameter family", [
        _INPUT,
        ("--family", True, None, ["Delta", "Mixed", "DeltaPrime", "ExampleV", "FrakTPath"], None, None),
        ("--param", False, None, None, None, "grid as START:STOP:STEP (ignored for FrakTPath)"),
        ("--dir", False, None, None, "1,0", "complex direction RE,IM for the swept coefficient"),
        ("--format", False, None, ["json", "csv"], "json", None),
    ]),
    "probe": (_cmd_probe, "similarity integral probe along z = xi + i*epsilon", [
        _INPUT,
        ("--epsilon", True, float, None, None, None),
        ("--xi", True, None, None, None, "integration range as A:B"),
        ("--n", False, int, None, 200001, "quadrature nodes"),
    ]),
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="zrs",
        description="Scattering matrices and spectral reports for zero-range interactions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag, required, type, choices, default, help in options:
            p.add_argument(flag, required=required, type=type, choices=choices, default=default, help=help)
        p.set_defaults(handler=handler)
    return parser


def _plain_args(argv):
    """The namespace argparse gives argv, or None where argparse must read argv.

    Reads a subcommand and whole option names, each given once as --opt=V or
    --opt V with V not starting with "-". Help, abbreviations and every
    option error are left to argparse, so their text is its own.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, options = _COMMANDS[argv[0]]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        value = value if eq else next(tokens, "-")
        if (not eq and value[:1] == "-") or flag in given:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], handler=handler)
    for flag, required, type, choices, value, _ in options:  # value starts as the default
        if flag in given:
            try:
                value = (type or str)(given.pop(flag))
            except ValueError:
                return None
            if choices and value not in choices:
                return None
        elif required:
            return None
        setattr(args, flag[2:], value)
    return None if given else args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    try:
        token = _REQUEST_TOL.set(base_tol())
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
    finally:
        _REQUEST_TOL.reset(token)


if __name__ == "__main__":
    sys.exit(main())
