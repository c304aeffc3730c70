"""Benchmark of the zrs command line.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep-mix --seed 1 --seconds 20 --trace 0

Workloads: sweep-mix, cli-calls, probe-ladder (see bench/README.md). Each
workload is one process and a closed loop: requests go one at a time through
zrs.cli.main() in this process, each with its payload on stdin, and every
output is checked against bench/oracle.py before the next request. The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of the
traced run for --trace 1. The line before it holds the raw figures.
"""

import argparse
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread for the numeric libraries, here and in every child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-mix", "cli-calls", "probe-ladder")

# Host speed drifts by tens of percent within minutes. Every request is
# timed between two runs of a fixed reference kernel, and its time is scaled
# by (the kernel's nominal time) / (mean of the two kernel times): the
# figures are those of a host on which the kernel takes its nominal time.
# The kernel matches the workload's kind of work: for sweeps and single
# requests the same mix of interpreter work, numpy calls on 2x2 arrays and
# JSON that a request or a row does (a pure-Python loop tracked them worse),
# for the probe array arithmetic on probe-sized arrays. The raw figures are
# printed beside the scaled ones.
COLD_STARTS = 5
# cold starts are scaled the same way by a child that only imports numpy
REF_CHILD_S = 0.15


def interpreter_kernel():
    out = []
    for i in range(20):
        z = complex(i * 0.37, 1.0 - i * 0.01)
        m = np.array([[z, 1.0], [2.0, z.conjugate()]], dtype=complex)
        out.append(json.dumps({"i": i, "re": z.real, "im": z.imag, "a": float(np.abs(m).max())}, sort_keys=True))
    return len("".join(out))


def numpy_kernel():
    x = np.linspace(-10.0, 10.0, corpus.PROBE_N)
    return float(np.abs(x + 0.01j).sum())


# workload -> (kernel, nominal seconds)
REFERENCES = {
    "sweep-mix": (interpreter_kernel, 300e-6),
    "cli-calls": (interpreter_kernel, 300e-6),
    "probe-ladder": (numpy_kernel, 4000e-6),
}


def kernel_seconds(kernel):
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


# --- one request through main() ----------------------------------------------


class Cli:
    def __init__(self, module):
        self.module = module
        self.sink = OUT / "sweep.out"

    def invoke(self, op):
        """Run one request; returns (seconds, exit code, stdout or None, stderr).

        Sweep output goes to a file, as a user's would, and is read back
        from it by the check; other output is kept in memory.
        """
        to_file = op["kind"].startswith("sweep")
        out = open(self.sink, "w") if to_file else io.StringIO()
        err = io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(op["payload"]), out, err
        try:
            start = time.perf_counter()
            try:
                code = self.module.main(op["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed request, not a benchmark error
                code = f"{type(exc).__name__}: {exc}"
            out.flush()
            elapsed = time.perf_counter() - start
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        if to_file:
            out.close()
            return elapsed, code, None, err.getvalue()
        return elapsed, code, out.getvalue(), err.getvalue()

    def check(self, op, code, text, err, state):
        """Failed answers and problems of one request."""
        if op["kind"].startswith("sweep"):
            fmt = op["kind"][len("sweep_"):]
            if not isinstance(code, int) or code != 0:
                return op["answers"], [f"exit {code}"]
            if text is None:
                with open(self.sink) as lines:
                    return self._check_sweep(op, fmt, lines, state)
            return self._check_sweep(op, fmt, text.splitlines(True), state)
        if op["kind"] == "probe":
            problems, value = op["check"](code, text, err)
            state.setdefault("ladder", {})[op["key"]] = value
            return len(problems) and op["answers"], problems
        problems = op["check"](code, text, err)
        return len(problems) and op["answers"], problems

    @staticmethod
    def _check_sweep(op, fmt, lines, state):
        spec = op["spec"]
        keep = fmt == "csv" and op.get("paired", False)
        reference = None if fmt == "csv" else state.get(("cells", id(spec)))
        failed, problems, cells = oracle.check_sweep(
            lines, fmt, spec["count"], spec["point"], keep=keep, reference=reference
        )
        if keep:
            state[("cells", id(spec))] = cells
        return failed, problems


# --- the ops of each workload ---------------------------------------------------


def sweep_ops(seed):
    ops = []
    for spec in corpus.sweep_specs(seed):
        for fmt in ("csv", "json"):
            ops.append(
                dict(
                    kind=f"sweep_{fmt}",
                    argv=["sweep", *spec["argv"], "--format", fmt],
                    payload=spec["payload"],
                    answers=spec["count"],
                    spec=spec,
                    paired=True,
                )
            )
    return ops


def probe_ops(seed):
    ops = []
    for label, entry, epsilons in corpus.probe_entries(seed):
        T = entry["T"]
        payload = corpus.abcd_payload(*entry["abcd"]) if entry["abcd"] else corpus.frakt_payload(T)
        for eps in epsilons:
            ops.append(
                dict(
                    kind="probe",
                    argv=["probe", f"--epsilon={eps!r}", f"--xi={corpus.XI_RANGE[0]!r}:{corpus.XI_RANGE[1]!r}"],
                    payload=payload,
                    answers=1,
                    key=(label, eps),
                    check=lambda code, out, err, T=T, eps=eps: oracle.check_probe(
                        T, eps, corpus.XI_RANGE, corpus.PROBE_N, code, out
                    ),
                )
            )
    return ops


def workload_ops(workload, seed):
    if workload == "sweep-mix":
        return sweep_ops(seed)
    if workload == "cli-calls":
        return corpus.cli_ops(seed)
    return probe_ops(seed)


def ladder_problems(ladder):
    """Criterion 9: the bounded ladder stays within 10x, the divergent grows past 100x."""
    problems = []
    for label, test in (("bounded", lambda r: r < 10), ("divergent", lambda r: r > 100)):
        values = [v for (name, _), v in ladder.items() if name == label]
        if len(values) != len(corpus.EPSILONS) or None in values:
            continue  # a failed probe is already counted
        ratio = max(values) / min(values)
        if not test(ratio):
            problems.append(f"{label} ladder max/min = {ratio:.3g}")
    return problems


# --- rounds -------------------------------------------------------------------


def run_round(cli, ops, reference, keep_text=False, tracer=None):
    """One pass over ops; returns per-op records, the round's problems and outputs.

    Each record is (op, raw seconds, scaled seconds, failed answers, and
    with a tracer the per-name (calls, total ns, self ns) of the request).
    """
    kernel, nominal = reference
    state = {}
    records = []
    problems = []
    texts = []
    before = kernel_seconds(kernel)
    for op in ops:
        if tracer:
            spans_before = tracer.snapshot()
        elapsed, code, text, err = cli.invoke(op)
        layers = tracing.delta(tracer.snapshot(), spans_before) if tracer else None
        if keep_text and text is None:
            text = cli.sink.read_text()
        failed, bad = cli.check(op, code, text, err, state)
        problems.extend(bad[:3])
        after = kernel_seconds(kernel)
        scaled = elapsed * nominal / ((before + after) / 2)
        records.append((op, elapsed, scaled, failed, layers))
        if keep_text:
            texts.append((code, text, err))
        before = after
    ladder = ladder_problems(state.get("ladder", {}))
    if ladder:
        problems.extend(ladder)
        # each probe of the two ladders is one answer of the ladder verdict
        records = [
            (op, raw, scaled, op["answers"] if op.get("key", ("",))[0] in ("bounded", "divergent") else failed, layers)
            for op, raw, scaled, failed, layers in records
        ]
    return records, problems, texts


# --- checker self-test ----------------------------------------------------------


def _corrupt_json(text, edit):
    obj = oracle.strict_json(text)
    edit(obj)
    return json.dumps(obj, allow_nan=True)


def self_test(cli, ops, texts):
    """Each check must reject a deliberately corrupted output.

    Returns the corruptions that passed unnoticed.
    """
    cases = []  # (description, op, corrupted text)
    by_kind = {}
    for op, (code, text, err) in zip(ops, texts):
        by_kind.setdefault(op["kind"], []).append((op, text))

    def first(kind, pred):
        return next(((op, t) for op, t in by_kind.get(kind, []) if pred(op, t)), (None, None))

    op, text = first("classify", lambda op, t: op["entry"]["name"] == "eigenvalue")
    if op:
        def move(o):
            o["poles"][0]["k"][1] += 1e-6

        def flip(o):
            o["similarity"] = "SimilarToSelfAdjoint"

        def drop(o):
            o["poles"].pop()
        cases += [
            ("classify pole moved by 1e-6", op, _corrupt_json(text, move)),
            ("classify verdict flipped", op, _corrupt_json(text, flip)),
            ("classify pole dropped", op, _corrupt_json(text, drop)),
        ]
    op, text = first("eval", lambda op, t: '"s"' in (t or ""))
    if op:
        cases.append(("eval NaN cell", op, _corrupt_json(text, lambda o: o["s"][0].__setitem__(0, [float("nan"), 0.0]))))
    op, text = first("metric", lambda op, t: '"applicable":true' in (t or ""))
    if op:
        cases.append(("metric chi moved", op, _corrupt_json(text, lambda o: o.__setitem__("chi", o["chi"] + 1e-6))))

    op, text = first("sweep_csv", lambda op, t: op["spec"]["family"] == "Delta")
    if op:
        lines = text.splitlines(True)
        header = lines[0].split(",")
        k_im = header.index("pole1_k_im")
        row = next(i for i, line in enumerate(lines[1:], 1) if line.split(",")[k_im])

        def edit(cells_edit):
            cells = lines[row].rstrip("\n").split(",")
            cells_edit(cells)
            return "".join(lines[:row] + [",".join(cells) + "\n"] + lines[row + 1:])
        cases += [
            ("sweep row dropped", op, "".join(lines[:-1])),
            ("sweep NaN cell", op, edit(lambda c: c.__setitem__(k_im, "nan"))),
            ("sweep pole moved by 1e-6", op, edit(lambda c: c.__setitem__(k_im, repr(float(c[k_im]) + 1e-6)))),
        ]
    op, text = first("sweep_csv", lambda op, t: op["spec"]["family"] == "ExampleV")
    if op:
        cases.append(("sweep verdict flipped", op, text.replace("SimilarToSelfAdjoint,III", "NotSimilar,III", 1)))

    op, text = first("probe", lambda op, t: True)
    if op:
        cases += [
            ("probe value NaN", op, _corrupt_json(text, lambda o: o.__setitem__("value", float("nan")))),
            ("probe value moved by 1e-6", op, _corrupt_json(text, lambda o: o.__setitem__("value", o["value"] * (1 + 1e-6)))),
            ("probe output dropped", op, ""),
        ]

    missed = []
    for description, op, text in cases:
        failed, _ = cli.check(op, 0, text, "", {})
        if not failed:
            missed.append(description)
    return [c[0] for c in cases], missed


# --- cold start ---------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def ref_child_seconds(env):
    start = time.perf_counter()
    # output is captured, as for the timed child: then the wait ends on the
    # pipes closing instead of polling the process every 50 ms
    subprocess.run(
        [sys.executable, "-c", "import numpy"], env=env, cwd=ROOT, check=True, capture_output=True, timeout=120
    )
    return time.perf_counter() - start


def cold_starts(cli, op, count):
    """Scaled and raw wall times of fresh `python -m zrs.cli` processes.

    Each child runs the workload's first request and is timed from spawn
    to its correct answer; children run one at a time, each between two
    reference children that only import numpy, by whose mean time it is
    scaled to a host on which they take REF_CHILD_S.
    """
    scaled, raw, problems = [], [], []
    env = child_env()
    before = ref_child_seconds(env)
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "zrs.cli", *op["argv"]],
            input=op["payload"], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        elapsed = time.perf_counter() - start
        failed, bad = cli.check(op, proc.returncode, proc.stdout, proc.stderr, {})
        if failed:
            problems.extend(bad[:3] or ["cold start failed"])
        after = ref_child_seconds(env)
        raw.append(elapsed)
        scaled.append(elapsed * REF_CHILD_S / ((before + after) / 2))
        before = after
    return scaled, raw, problems


def import_times():
    """import.zrs_cli_ms and import.scipy_ms from `python -X importtime`."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import zrs.cli"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
    )
    zrs_us = scipy_us = 0
    scipy_depth = None
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(1)), len(m.group(2)), m.group(3)
        if name == "zrs.cli":
            zrs_us = cumulative
        if name == "scipy" or name.startswith("scipy."):
            # count only the outermost scipy imports: the rest are inside them
            if scipy_depth is None or depth < scipy_depth:
                scipy_depth, scipy_us = depth, cumulative
            elif depth == scipy_depth:
                scipy_us += cumulative
    return zrs_us / 1000, scipy_us / 1000


# --- figures ------------------------------------------------------------------


def percentile_report(values):
    """Median and the highest of p90/p99 with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"p50": statistics.median(values), "n": n}
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            out[f"p{q}"] = values[min(n - 1, int(n * q / 100))]
            break
    return out


def kind_figures(records):
    """Figures of each request kind, scaled and raw, from all timed records."""
    out = {}
    kinds = sorted({op["kind"] for op, *_ in records})
    for kind in kinds:
        mine = [(op, raw, scaled) for op, raw, scaled, *_ in records if op["kind"] == kind]
        if kind.startswith("sweep"):
            rows = sum(op["answers"] for op, _, _ in mine)
            out[f"{kind}_rows_per_s"] = rows / sum(s for _, _, s in mine)
            out[f"{kind}_rows_per_s_raw"] = rows / sum(r for _, r, _ in mine)
        else:
            unit = 1e3 if kind == "probe" else 1e6
            suffix = "ms" if kind == "probe" else "us"
            for label, idx in (("", 2), ("_raw", 1)):
                rep = percentile_report([m[idx] * unit for m in mine])
                for key, value in rep.items():
                    name = f"{kind}_{key}" if key == "n" else f"{kind}_{key}_{suffix}{label}"
                    out[name] = value
    return out


def per_answer_us(rounds):
    """Median over rounds of the round's scaled microseconds per answer."""
    per_round = [
        sum(s for _, _, s, *_ in recs) / sum(op["answers"] for op, *_ in recs) * 1e6
        for recs in rounds
    ]
    raw = [
        sum(r for _, r, *_ in recs) / sum(op["answers"] for op, *_ in recs) * 1e6
        for recs in rounds
    ]
    return statistics.median(per_round), statistics.median(raw)


# --- the two kinds of run -------------------------------------------------------


def timed_run(cli, workload, seed, seconds):
    """End-to-end figures of one workload.

    attempted and failed count whole rounds of the same requests only (the
    warm-up round and the timed ones), so that a failure that repeats is the
    same share of them in every run; a failed cold start or long sweep, or a
    corruption the checker missed, makes the run incorrect on its own.
    """
    ops = workload_ops(workload, seed)
    reference = REFERENCES[workload]
    attempted = failed = 0
    problems = []

    def account(records, round_problems):
        nonlocal attempted, failed
        attempted += sum(op["answers"] for op, *_ in records)
        failed += sum(r[3] for r in records)
        problems.extend(round_problems)

    records, round_problems, texts = run_round(cli, ops, reference, keep_text=True)
    account(records, round_problems)
    cases, missed = self_test(cli, ops, texts)
    del texts

    setup_scaled, setup_raw, extra_problems = cold_starts(cli, ops[0], COLD_STARTS)
    if workload == "sweep-mix":
        spec = corpus.long_sweep(seed)
        op = dict(kind="sweep_csv", argv=["sweep", *spec["argv"], "--format", "csv"],
                  payload="", answers=spec["count"], spec=spec)
        extra_problems += run_round(cli, [op], reference)[1]

    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        records, round_problems, _ = run_round(cli, ops, reference)
        account(records, round_problems)
        rounds.append(records)

    scaled, raw = per_answer_us(rounds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "us_per_answer": {"value": scaled, "unit": "us"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "answers_per_round": sum(op["answers"] for op in ops),
        "us_per_answer_raw": raw,
        "setup_s_raw": statistics.median(setup_raw),
        "setup_s_all": setup_scaled,
        "kernel_us_median": statistics.median(
            raw_t / s_t * reference[1] * 1e6 for recs in rounds for _, raw_t, s_t, *_ in recs
        ),
        "selftest_cases": cases,
        "selftest_missed": missed,
        "problems": (extra_problems + problems)[:20],
        **kind_figures([r for recs in rounds for r in recs]),
    }
    correct = failed == 0 and not missed and not extra_problems
    return correct, attempted, failed, metrics, detail


def traced_run(cli, seed, seconds):
    """Per-layer figures of all three workloads, traced and untraced in turn."""
    ops = {w: workload_ops(w, seed) for w in WORKLOADS}
    tracer = tracing.Tracer()
    attempted = failed = 0
    problems = []
    per_op = {w: [] for w in WORKLOADS}  # (op, layers) of every traced request
    scaled = {w: [0.0, 0.0] for w in WORKLOADS}  # untraced, traced

    def one_round(workload, traced):
        nonlocal attempted, failed
        if traced:
            tracer.install()
        try:
            records, bad, _ = run_round(cli, ops[workload], REFERENCES[workload], tracer=tracer if traced else None)
        finally:
            tracer.uninstall()
        attempted += sum(op["answers"] for op, *_ in records)
        failed += sum(r[3] for r in records)
        problems.extend(bad)
        scaled[workload][traced] += sum(r[2] for r in records)
        if traced:
            per_op[workload].extend((r[0], r[4]) for r in records)

    for workload in WORKLOADS:  # warm-up, and the spans of one traced round each
        one_round(workload, False)
        tracer.spans = []
        one_round(workload, True)
        with open(OUT / f"spans-{workload}-seed{seed}.jsonl", "w") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        tracer.spans = None
        per_op[workload].clear()
        scaled[workload] = [0.0, 0.0]
    deadline = time.perf_counter() + seconds
    while not per_op["probe-ladder"] or time.perf_counter() < deadline:
        for workload in WORKLOADS:
            one_round(workload, False)
            one_round(workload, True)

    zrs_ms, scipy_ms = import_times()
    metrics = layer_metrics(per_op)
    metrics["import.zrs_cli_ms"] = {"value": zrs_ms, "unit": "ms"}
    metrics["import.scipy_ms"] = {"value": scipy_ms, "unit": "ms"}
    # the same requests ran traced and untraced, so the time ratio is the overhead
    untraced = sum(t[0] for t in scaled.values())
    traced = sum(t[1] for t in scaled.values())
    metrics["trace.overhead_pct"] = {"value": 100 * (traced / untraced - 1), "unit": "%"}
    detail = {
        "seed": seed,
        "overhead_pct_by_workload": {w: 100 * (t[1] / t[0] - 1) for w, t in scaled.items()},
        "self_us_per_answer": self_times(per_op),
        "problems": problems[:20],
    }
    return failed == 0, attempted, failed, metrics, detail


def _sum(pairs, name, field):
    return sum(d.get(name, (0, 0, 0))[field] for _, d in pairs)


def layer_metrics(per_op):
    sweeps = per_op["sweep-mix"]
    calls = per_op["cli-calls"]
    probes = per_op["probe-ladder"]
    metric_full = [
        (op, d) for op, d in calls
        if op["kind"] == "metric" and op["entry"]["T"] is not None
        and oracle.expected_metric(op["entry"]["T"]) == "TwoImaginaryPoles"
    ]
    rows = {fmt: sum(op["answers"] for op, _ in sweeps if op["kind"] == f"sweep_{fmt}") for fmt in ("csv", "json")}
    m = {}

    def us(name, pairs, key):
        calls_ = _sum(pairs, key, 0)
        m[name] = {"value": _sum(pairs, key, 1) / 1e3 / max(calls_, 1), "unit": "us"}

    def count(name, pairs, key, per):
        m[name] = {"value": _sum(pairs, key, 0) / per, "unit": "count"}

    m["cli.self_us_per_request"] = {"value": _sum(calls, "cli.main", 2) / 1e3 / len(calls), "unit": "us"}
    for fmt in ("csv", "json"):
        mine = [(op, d) for op, d in sweeps if op["kind"] == f"sweep_{fmt}"]
        m[f"cli.{fmt}_self_us_per_row"] = {"value": _sum(mine, "cli.main", 2) / 1e3 / rows[fmt], "unit": "us"}
    us("interaction.from_abcd_us", sweeps, "interaction.from_abcd")
    us("interaction.from_matrix_us", sweeps, "interaction.from_matrix")
    us("smatrix.build_us", sweeps, "smatrix.build")
    us("smatrix.evaluate_us", calls, "smatrix.evaluate")
    count("smatrix.build_calls_per_request", metric_full, "smatrix.build", len(metric_full))
    us("classifier.classify_us", sweeps, "classifier.classify")
    us("classifier.find_poles_us", sweeps, "classifier.find_poles")
    us("classifier.exceptional_points_us", sweeps, "classifier.exceptional_points")
    us("classifier.spectral_singularities_us", sweeps, "classifier.spectral_singularities")
    count("classifier.find_poles_calls_per_request", metric_full, "classifier.find_poles", len(metric_full))
    count("tolerances.base_tol_calls_per_row", sweeps, "tolerances.base_tol", rows["csv"] + rows["json"])
    count("tolerances.base_tol_calls_per_request", calls, "tolerances.base_tol", len(calls))
    count("metric.check_applicability_calls_per_request", metric_full, "metric.check_applicability", len(metric_full))
    us("metric.check_applicability_us", calls, "metric.check_applicability")
    us("metric.construct_us", calls, "metric.construct")
    us("metric.verify_intertwining_us", calls, "metric.verify_intertwining")
    m["resolvent.similarity_integral_probe_ms"] = {
        "value": _sum(probes, "resolvent.similarity_integral_probe", 1) / 1e6
        / max(_sum(probes, "resolvent.similarity_integral_probe", 0), 1),
        "unit": "ms",
    }
    return m


def self_times(per_op):
    """Self microseconds per answer of each layer, per workload."""
    out = {}
    for workload, pairs in per_op.items():
        answers = sum(op["answers"] for op, _ in pairs)
        layers = {}
        for _, d in pairs:
            for name, (_, _, own) in d.items():
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0) + own
        out[workload] = {k: v / 1e3 / answers for k, v in sorted(layers.items())}
    return out


def main():
    parser = argparse.ArgumentParser(description="Benchmark of the zrs command line.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "zrs" / "cli.py").is_file():
        print(f"error: no zrs sources under {SRC}; run from the root of a zrs checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import zrs.cli

    if not Path(zrs.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: zrs imported from {zrs.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cli = Cli(zrs.cli)
    try:
        if args.trace:
            correct, attempted, failed, metrics, detail = traced_run(cli, args.seed, args.seconds)
        else:
            correct, attempted, failed, metrics, detail = timed_run(cli, args.workload, args.seed, args.seconds)
    finally:
        cli.sink.unlink(missing_ok=True)
    detail["metrics"] = metrics
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
