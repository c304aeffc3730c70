"""tools/size_report.py, on a small source and on the package's own."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "size_report.py"


def test_net_code_leaves_out_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("size_report", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = (
        '"""Module doc."""\n\n# a comment\nx = 1  # and a trailing one\n\n\n'
        'def f(tol):\n    """Doc,\n    on two lines."""\n    return (\n        """a string, not a docstring"""\n'
        "        if x < tol else None\n    )\n"
    )
    assert tool.net_code(source) == 6
    assert tool.tolerance_comparisons(source) == 1


def test_size_report_on_the_package():
    package = ROOT / "src" / "zrs"
    run = subprocess.run([sys.executable, str(TOOL), str(package)], capture_output=True, text=True, check=True)
    *files, total = run.stdout.splitlines()
    sources = sorted(package.glob("*.py"))
    assert [line.split(":")[0] for line in files] == [path.name for path in sources]
    match = re.fullmatch(r"total: (\d+) lines, (\d+) net code, (\d+) tolerance comparisons", total)
    lines, net, comparisons = map(int, match.groups())
    assert lines == sum(path.read_text().count("\n") for path in sources)
    assert 0 < net <= lines
    assert 0 < comparisons <= net
