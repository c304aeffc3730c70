"""Size of the zrs sources: lines, net code and tolerance comparisons.

    python3 tools/size_report.py [DIR]

reads every *.py file under DIR (default: src/zrs next to this script) and
prints one line per file and a total:

    pauli.py: 69 lines, 38 net code, 0 tolerance comparisons
    total: 1748 lines, 1070 net code, 26 tolerance comparisons

"lines" is what `wc -l` counts. "net code" counts the lines that hold a
token other than a comment or a docstring, found with `tokenize`; a line
that a multi-line token spans counts once. A docstring is a string that is
a statement of its own. "tolerance comparisons" counts the lines that read
`tol` and hold a `<` or a `>`, as

    grep tol src/zrs/*.py | grep -cE '<|>'

does.
"""

import io
import re
import sys
import tokenize
from pathlib import Path

# tokens that are not code by themselves
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def net_code(source):
    """The number of lines of source that hold a token other than a comment or a docstring."""
    tokens = list(tokenize.tokenize(io.BytesIO(source.encode()).readline))
    lines = set()
    statement_start = True  # whether the next token starts a statement
    for index, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            statement_start = statement_start or tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        following = next((t for t in tokens[index + 1 :] if t.type not in (tokenize.COMMENT, tokenize.NL)), None)
        lone_string = (
            statement_start
            and tok.type == tokenize.STRING
            and following is not None
            and following.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        statement_start = False
        if not lone_string:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def tolerance_comparisons(source):
    """The number of lines of source that read tol and hold a < or a >."""
    return sum(1 for line in source.splitlines() if "tol" in line and re.search("[<>]", line))


def report(directory):
    """(file name, lines, net code, tolerance comparisons) of each *.py file under directory, by name."""
    rows = []
    for path in sorted(Path(directory).glob("*.py")):
        source = path.read_text()
        rows.append((path.name, source.count("\n"), net_code(source), tolerance_comparisons(source)))
    return rows


def main(argv):
    if len(argv) > 1:
        print("usage: size_report.py [DIR]", file=sys.stderr)
        return 2
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "zrs"
    rows = report(directory)
    if not rows:
        print(f"error: no *.py files under {directory}", file=sys.stderr)
        return 2
    for name, lines, net, comparisons in rows:
        print(f"{name}: {lines} lines, {net} net code, {comparisons} tolerance comparisons")
    lines, net, comparisons = (sum(column) for column in list(zip(*rows))[1:])
    print(f"total: {lines} lines, {net} net code, {comparisons} tolerance comparisons")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
