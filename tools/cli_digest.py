"""Digest of the zrs command line's answers to the benchmark's command lines.

    python3 tools/cli_digest.py ROOT

runs every command line of the benchmark corpus for seeds 1 to 5 (the
cli-calls requests, each sweep in CSV and in JSON, and each probe of the
probe ladder), then the probes of EDGE_PROBES, through zrs.cli.main() in
this process, on the zrs sources under ROOT/src, with its payload on stdin.
It prints one line per command line: the seed ("edge" for an edge probe),
the argv, the exit code and the sha256 of stdout and of stderr. Two
checkouts answer byte for byte alike exactly when their digests are
identical:

    python3 tools/cli_digest.py . > new.txt
    python3 tools/cli_digest.py ../parent > old.txt
    cmp old.txt new.txt

The command lines come from bench/corpus.py of the checkout this script is
in, so both runs send the same requests.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEEDS = range(1, 6)
_MIXED = (0.4, 0.2 + 0.1j, -0.3, 0.5)
# (argv, abcd) of probes at the edges of the probe's arithmetic
EDGE_PROBES = [
    # through the pole k = 1 + i of a = 2i (1 + i), at the node xi = 0
    (["probe", "--epsilon=2.0", "--xi=-1:1", "--n=17"], (-2 + 2j, 0, 0, 0)),
    # spacings that round to 0, in one block and in several
    (["probe", "--epsilon=0.5", f"--xi={1e16!r}:{1e16 + 4!r}", "--n=4097"], _MIXED),
    (["probe", "--epsilon=0.5", f"--xi={1e16!r}:{1e16 + 4!r}", "--n=24577"], _MIXED),
    # spacing products that underflow to 0
    (["probe", "--epsilon=0.5", "--xi=-1e-300:1e-300", "--n=4097"], _MIXED),
    # a few triples, then one triple short of a block, a whole block, one past it
    *((["probe", "--epsilon=0.01", "--xi=-10:10", f"--n={n}"], (0, 0, 0, 1j)) for n in (17, 8191, 8193, 8195)),
    # arithmetic that overflows on the range
    (["probe", "--epsilon=1", "--xi=-1e300:1e300", "--n=2001"], (-1, 0, 0, 0)),
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


def main(argv):
    if len(argv) != 1:
        print("usage: cli_digest.py ROOT", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    if not (src / "zrs" / "cli.py").is_file():
        print(f"error: no zrs sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import corpus
    import zrs.cli

    for seed in SEEDS:
        for cmd, payload in command_lines(corpus, seed):
            code, out, err = run(zrs.cli.main, cmd, payload)
            print(seed, json.dumps(cmd), code, _sha(out), _sha(err))
    for cmd, abcd in EDGE_PROBES:
        code, out, err = run(zrs.cli.main, cmd, corpus.abcd_payload(*abcd))
        print("edge", json.dumps(cmd), code, _sha(out), _sha(err))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
