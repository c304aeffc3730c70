"""Digest of the zrs command line's answers to the benchmark's command lines.

    python3 tools/cli_digest.py ROOT

runs every command line of the benchmark corpus for seeds 1 to 5 (the
cli-calls requests, each sweep in CSV and in JSON, and each probe of the
probe ladder), then the probes of EDGE_PROBES, each sweep of EDGE_SWEEPS
in CSV and in JSON, the classify lines of EDGE_CLASSIFY and the command
lines of EDGE_INPUTS, through
zrs.cli.main() in this process, on the zrs sources under ROOT/src, with its
payload on stdin. It prints one line per
command line: the seed ("edge" for a command line of an edge list),
the argv, the exit code and the sha256 of stdout and of stderr. Two
checkouts answer byte for byte alike exactly when their digests are
identical:

    python3 tools/cli_digest.py . > new.txt
    python3 tools/cli_digest.py ../parent > old.txt
    cmp old.txt new.txt

With two roots it compares the answers of two checkouts instead, each run
in its own subprocess:

    python3 tools/cli_digest.py ROOT_A ROOT_B

It prints every command line, with its payload, whose exit code, stderr or
any non-numeric field differs: the JSON values and CSV fields of stdout
other than floats, integers included. Then, per subcommand, the number of command lines whose
floats differ and the largest |b - a| / max(1, |a|) over their floats.
For the probe lines whose value differs it also solves each probe node by
node with tests/oracles.direct_solve_probe of this checkout, prints each
such line with its relative error |value - ref| / |ref| at each root, and
then how many values moved closer to that reference and how many farther,
and the largest relative error at each root over them.
It exits 1 when a command line differs in more than floats. Each
subprocess runs `python3 tools/cli_digest.py --answers ROOT`, which prints
the seed, argv, payload, exit code, stdout and stderr of each command line
as one JSON line.

The command lines come from bench/corpus.py of the checkout this script is
in, so both runs send the same requests.
"""

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
BENCH = HERE / "bench"
SEEDS = range(1, 6)


def _abcd(*abcd):
    """The payload of the couplings abcd, as bench/corpus.abcd_payload writes it."""
    return json.dumps({"form": "abcd", **{name: [complex(v).real, complex(v).imag] for name, v in zip("abcd", abcd)}})


def _frakt(T):
    """The payload of the 2x2 boundary matrix T."""
    return json.dumps({"form": "frakT", "t": [[[complex(t).real, complex(t).imag] for t in row] for row in T]})


_MIXED = _abcd(0.4, 0.2 + 0.1j, -0.3, 0.5)
# (argv, payload) of probes at the edges of the probe's arithmetic
EDGE_PROBES = [
    # through the pole k = 1 + i of a = 2i (1 + i), at the node xi = 0
    (["probe", "--epsilon=2.0", "--xi=-1:1", "--n=17"], _abcd(-2 + 2j, 0, 0, 0)),
    # spacings that round to 0, in one block and in several
    (["probe", "--epsilon=0.5", f"--xi={1e16!r}:{1e16 + 4!r}", "--n=4097"], _MIXED),
    (["probe", "--epsilon=0.5", f"--xi={1e16!r}:{1e16 + 4!r}", "--n=24577"], _MIXED),
    # spacing products that underflow to 0
    (["probe", "--epsilon=0.5", "--xi=-1e-300:1e-300", "--n=4097"], _MIXED),
    # a few triples, then one triple short of a block, a whole block, one past it
    *((["probe", "--epsilon=0.01", "--xi=-10:10", f"--n={n}"], _abcd(0, 0, 0, 1j)) for n in (17, 8191, 8193, 8195)),
    # arithmetic that overflows on the range
    (["probe", "--epsilon=1", "--xi=-1e300:1e300", "--n=2001"], _abcd(-1, 0, 0, 0)),
    # a lam of 1e-200, whose root the probe scales by a power of two, beside a lam of 1, and two of them
    (["probe", "--epsilon=0.1", "--xi=-10:10", "--n=2001"], _frakt([[1, 0], [0, 1e-200]])),
    (["probe", "--epsilon=0.1", "--xi=-10:10", "--n=2001"], _frakt([[1e-200, 0], [0, 1e-200]])),
]

# (argv, payload) of sweeps whose rows the benchmark corpus never writes, each run in CSV and in JSON
_OVERFLOW_T = [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]
_NILPOTENT_T = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
_SCALAR_T = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
EDGE_SWEEPS = [
    # a coupling too large to normalise: a NotRepresentable row at t = 1e200
    (["sweep", "--family=Delta", "--param=0:1e200:1e200"], ""),
    # characteristic coefficients that overflow: a NotRepresentable row
    (["sweep", "--family=FrakTPath"], json.dumps({"form": "frakT_path", "ts": [_SCALAR_T, _OVERFLOW_T]})),
    # a pole at infinity (nilpotent T) and no pole at all (scalar T)
    (["sweep", "--family=FrakTPath"], json.dumps({"form": "frakT_path", "ts": [_NILPOTENT_T, _SCALAR_T]})),
    # real-axis singularities either side of t = 0, and none at it
    (["sweep", "--family=DeltaPrime", "--param=-2:2:0.5", "--dir=0,1"], ""),
]

# (argv, payload) of classify lines that show the rule for a double eigenvalue, xi^2 = x^2 + bc against
# |x^2| + |bc|. Exact, distinct eigenvalues beside a large entry: T = [[0, 0], [1e9, d]] (eigenvalues 0 and d)
# for d = 1 and i, one simple physical pole each, and T = [[0.3, 0], [c, i]] (eigenvalues 0.3 and i), two
# simple poles at c = 1e10 and 1e11. diag(1e-152, 1.0000000003e-152), whose x^2 underflows on the entries as
# given: two distinct simple poles. The near-Jordan T = [[1 + i, 1], [1e-12, 1 + i]], where xi^2 = bc = 1e-12
# cancels nothing: two simple poles and no exceptional point
EDGE_CLASSIFY = [
    (["classify"], json.dumps({"form": "frakT", "t": [[[0, 0], [0, 0]], [[1e9, 0], [1, 0]]]})),
    (["classify"], json.dumps({"form": "frakT", "t": [[[0.3, 0], [0, 0]], [[1e11, 0], [0, 1]]]})),
    (["classify"], json.dumps({"form": "frakT", "t": [[[0, 0], [0, 0]], [[1e9, 0], [0, 1]]]})),
    (["classify"], json.dumps({"form": "frakT", "t": [[[0.3, 0], [0, 0]], [[1e10, 0], [0, 1]]]})),
    (["classify"], json.dumps({"form": "frakT", "t": [[[1e-152, 0], [0, 0]], [[0, 0], [1.0000000003e-152, 0]]]})),
    (["classify"], json.dumps({"form": "frakT", "t": [[[1, 1], [1, 0]], [[1e-12, 0], [1, 1]]]})),
    # either side of the overflow of D, xi^2 or a coefficient of p near |T| = 1e154: s [[1, 2], [3, 4]],
    # diag(1e154, 1e154) (D = 1e308 is finite, c2 = -4D is not) and a Jordan block whose D overflows
    *((["classify"], _frakt([[s, 2 * s], [3 * s, 4 * s]])) for s in (1e149, 1e150, 1e151, 1e153, 1e154)),
    (["classify"], _frakt([[1e154, 0], [0, 1e154]])),
    (["classify"], _frakt([[1.5e154, 1.5e154], [0, 1.5e154]])),
]


def _cells(**cells):
    """The abcd payload of zero couplings with the cells given put in as they are."""
    return json.dumps({"form": "abcd", **dict.fromkeys("abcd", [0, 0]), **cells})


# (argv, payload) of malformed inputs, one for each error text of the input schema, and of metric on
# T = [[0, 0], [c, 1]] (eigenvalues 0 and 1), where kappa = (1 + 1/c^2)^(-1/2) rounds to 1 from about c = 1e8
_ZERO_T = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
EDGE_INPUTS = [
    (["classify"], _cells(a=[1])),
    (["classify"], _cells(a=1)),
    (["classify"], _cells(b=[True, 0])),
    (["classify"], _cells(c=[1, "0"])),
    (["classify"], _cells(a=[math.nan, 0])),
    (["classify"], _cells(d=[math.inf, 0])),
    (["classify"], _cells(b=[0, 10**400])),
    (["classify"], json.dumps({"form": "abcd", "a": [0, 0], "c": [0, 0]})),
    (["classify"], json.dumps({"form": "frakT", "t": [[[0, 0], [0, 0]], [[0, False], [0, 0]]]})),
    (["classify"], json.dumps({"form": "frakT", "t": [[[0, 0], [0, 0]], [[0, 0]]]})),
    (["sweep", "--family=FrakTPath"], json.dumps({"form": "frakT_path", "ts": [[[[0, 0], [0, 0]], [[0, 0, 0], [0, 0]]]]})),
    (["sweep", "--family=FrakTPath"], json.dumps({"form": "frakT_path", "ts": [_ZERO_T, [[[0, 0], [0, 0]]]]})),
    *((["metric"], _frakt([[0, 0], [c, 1]])) for c in (1e7, 1e8, 1e9)),
]


def command_lines(corpus, seed):
    """(argv, payload) of every benchmark command line of one seed."""
    for op in corpus.cli_ops(seed):
        yield op["argv"], op["payload"]
    for spec in corpus.sweep_specs(seed):
        for fmt in ("csv", "json"):
            yield ["sweep", *spec["argv"], "--format", fmt], spec["payload"]
    lo, hi = corpus.XI_RANGE
    for _, entry, epsilons in corpus.probe_entries(seed):
        abcd = entry["abcd"]
        payload = corpus.abcd_payload(*abcd) if abcd else corpus.frakt_payload(entry["T"])
        for eps in epsilons:
            yield ["probe", f"--epsilon={eps!r}", f"--xi={lo!r}:{hi!r}"], payload


def run(main, argv, payload):
    """(exit code, stdout, stderr) of one in-process call of main."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(payload), out, err
    try:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def answers(root):
    """(seed, argv, payload, exit code, stdout, stderr) of every command line, at one checkout."""
    src = Path(root).resolve() / "src"
    sys.path[:0] = [str(src), str(BENCH)]
    import corpus
    import zrs.cli

    for seed in SEEDS:
        for cmd, payload in command_lines(corpus, seed):
            yield (seed, cmd, payload, *run(zrs.cli.main, cmd, payload))
    for cmd, payload in EDGE_PROBES:
        yield ("edge", cmd, payload, *run(zrs.cli.main, cmd, payload))
    for cmd, payload in EDGE_SWEEPS:
        for argv in ([*cmd, "--format", fmt] for fmt in ("csv", "json")):
            yield ("edge", argv, payload, *run(zrs.cli.main, argv, payload))
    for cmd, payload in EDGE_CLASSIFY + EDGE_INPUTS:
        yield ("edge", cmd, payload, *run(zrs.cli.main, cmd, payload))


def _floats_apart(value, floats):
    """value with every float moved into floats and replaced by None."""
    if isinstance(value, float):
        floats.append(value)
        return None
    if isinstance(value, list):
        return [_floats_apart(v, floats) for v in value]
    if isinstance(value, dict):
        return {k: _floats_apart(v, floats) for k, v in value.items()}
    return value


def _csv_field(field, floats):
    try:
        int(field)
        return field
    except ValueError:
        pass
    try:
        x = float(field)
    except ValueError:
        return field
    if not math.isfinite(x):
        return field
    floats.append(x)
    return None


def fields(out):
    """(the non-numeric fields of one stdout, its floats in order)."""
    floats = []
    try:
        rest = [_floats_apart(json.loads(line), floats) for line in out.splitlines()]
    except ValueError:  # not JSON lines: CSV
        floats.clear()
        rest = [[_csv_field(f, floats) for f in row] for row in csv.reader(io.StringIO(out))]
    return rest, floats


def _probe_errors(probes):
    """(error at root_a, error at root_b) of each (payload, stdout a, stdout b) of a probe line.

    Each error is relative to tests/oracles.direct_solve_probe, run with the
    zrs of this checkout.
    """
    sys.path[:0] = [str(HERE / "src"), str(HERE / "tests")]
    import oracles
    from zrs.cli import _interaction_from

    for payload, out_a, out_b in probes:
        a, b = json.loads(out_a), json.loads(out_b)
        ref = oracles.direct_solve_probe(_interaction_from(json.loads(payload)), a["epsilon"], a["xi"], n=a["n"])
        yield abs(a["value"] - ref) / abs(ref), abs(b["value"] - ref) / abs(ref)


def compare(root_a, root_b):
    """Print how the answers at root_b differ from those at root_a; the number of differences."""
    sides = []
    for root in (root_a, root_b):
        run = subprocess.run(
            [sys.executable, __file__, "--answers", str(root)], capture_output=True, text=True, check=True
        )
        sides.append([json.loads(line) for line in run.stdout.splitlines()])
    differences = 0
    lines, moved, worst = defaultdict(int), defaultdict(int), defaultdict(float)
    probes = []  # (payload, stdout a, stdout b) of the probe lines whose value differs
    for (seed, cmd, payload, code_a, out_a, err_a), (_, _, _, code_b, out_b, err_b) in zip(*sides):
        sub = cmd[0]
        lines[sub] += 1
        (rest_a, floats_a), (rest_b, floats_b) = fields(out_a), fields(out_b)
        what = [
            name
            for name, same in (
                (f"exit {code_a} -> {code_b}", code_a == code_b),
                ("stderr", err_a == err_b),
                ("non-numeric fields", rest_a == rest_b and len(floats_a) == len(floats_b)),
            )
            if not same
        ]
        if what:
            differences += 1
            print(seed, json.dumps(cmd), payload, "differs:", ", ".join(what))
            continue
        delta = max((abs(b - a) / max(1.0, abs(a)) for a, b in zip(floats_a, floats_b)), default=0.0)
        if delta:
            moved[sub] += 1
            worst[sub] = max(worst[sub], delta)
            if sub == "probe":
                probes.append((seed, cmd, payload, out_a, out_b))
    for sub in sorted(lines):
        print(f"{sub}: {lines[sub]} command lines, {moved[sub]} with floats that differ,"
              f" largest |b - a| / max(1, |a|) = {worst[sub]:.2g}")
    if probes:
        errors = list(_probe_errors([probe[2:] for probe in probes]))
        for (seed, cmd, payload, _, _), (a, b) in zip(probes, errors):
            print(f"probe {seed} {json.dumps(cmd)} {payload}: error against direct_solve_probe {a:.3g} -> {b:.3g}")
        closer, farther = sum(b < a for a, b in errors), sum(b > a for a, b in errors)
        print(f"probe against direct_solve_probe: {closer} of {len(errors)} closer, {farther} farther;"
              f" largest relative error {max(a for a, _ in errors):.3g} -> {max(b for _, b in errors):.3g}")
    print(f"{sum(lines.values())} command lines, {differences} differ in more than floats")
    return differences


def main(argv):
    if len(argv) == 2 and argv[0] == "--answers":
        for answer in answers(argv[1]):
            print(json.dumps(answer))
        return 0
    if len(argv) not in (1, 2):
        print("usage: cli_digest.py ROOT [ROOT_B]", file=sys.stderr)
        return 2
    for root in argv:
        src = Path(root).resolve() / "src"
        if not (src / "zrs" / "cli.py").is_file():
            print(f"error: no zrs sources under {src}", file=sys.stderr)
            return 2
    if len(argv) == 2:
        return 1 if compare(*argv) else 0
    for seed, cmd, _, code, out, err in answers(argv[0]):
        print(seed, json.dumps(cmd), code, _sha(out), _sha(err))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
