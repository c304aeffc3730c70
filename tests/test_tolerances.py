import io
import os
import sys
from types import SimpleNamespace

import pytest

import zrs.cli
import zrs.tolerances
from pole_stage import poles
from zrs.classifier import Sheet
from zrs.cli import main
from zrs.interaction import Interaction
from zrs.smatrix import build
from zrs.tolerances import base_tol

DELTA_ATTRACTIVE = '{"form": "abcd", "a": [-1, 0], "b": [0, 0], "c": [0, 0], "d": [0, 0]}'
# a delta of strength -2e-8 binds at k = 1e-8 i, within 100 * 1e-6 of the origin root that a tolerance of 1e-6 snaps to
WEAK_DELTA = '{"form": "abcd", "a": [-2e-8, 0], "b": [0, 0], "c": [0, 0], "d": [0, 0]}'
# gamma = (0.5, 0.3 (1 + 5e-10 i), 0, 0): Re and Im parts collinear, which metric exits 1 on
COLLINEAR = '{"form": "frakT", "t": [[[0.5, 0], [0.3, 1.5e-10]], [[0.3, 1.5e-10], [0.5, 0]]]}'


def test_malformed_tolerance_fails_loudly(monkeypatch, capsys):
    for raw in ("nan", "inf", "abc", "-1", "0"):
        monkeypatch.setenv("ZRS_TOLERANCE", raw)
        with pytest.raises(ValueError) as exc:
            base_tol()
        assert "ZRS_TOLERANCE" in str(exc.value) and repr(raw) in str(exc.value)
        monkeypatch.setattr(sys, "stdin", io.StringIO(DELTA_ATTRACTIVE))
        assert main(["classify"]) == 2, raw
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: ZRS_TOLERANCE must be a finite positive number, got {raw!r}\n"


def test_tolerance_is_read_between_calls(monkeypatch):
    # a delta of strength -2e-8 binds at k = 1e-8 i, within 100 * 1e-6 of
    # the origin root that a coarse tolerance snaps to
    i = Interaction.from_abcd(-2e-8, 0, 0, 0)
    monkeypatch.delenv("ZRS_TOLERANCE", raising=False)
    found = poles(build(i))
    assert len(found) == 1 and found[0].sheet is Sheet.PHYSICAL
    assert found[0].location == pytest.approx(1e-8j, rel=1e-6)
    monkeypatch.setenv("ZRS_TOLERANCE", "1e-6")
    assert poles(build(i)) == []


def test_smatrix_keeps_its_tolerance_snapshot(monkeypatch):
    monkeypatch.delenv("ZRS_TOLERANCE", raising=False)
    s = build(Interaction.from_abcd(-2e-8, 0, 0, 0))
    monkeypatch.setenv("ZRS_TOLERANCE", "1e-6")
    assert s.tol == 1e-12
    found = poles(s)
    assert len(found) == 1 and found[0].sheet is Sheet.PHYSICAL


def _count_reads(monkeypatch):
    """The list of the names tolerances reads from the environment, from now on."""
    reads, environ = [], os.environ

    class Environ:
        def get(self, key, default=None):
            reads.append(key)
            return environ.get(key, default)

    monkeypatch.setattr(zrs.tolerances, "os", SimpleNamespace(environ=Environ()))
    return reads


def test_a_request_reads_the_environment_once(monkeypatch, capsys):
    reads = _count_reads(monkeypatch)
    monkeypatch.setenv("ZRS_TOLERANCE", "1e-6")
    for rows in (1, 10, 1000):
        for fmt in ("json", "csv"):
            reads.clear()
            monkeypatch.setattr(sys, "stdin", io.StringIO(""))
            assert main(["sweep", "--family=Delta", f"--param=0:{rows - 1}:1", f"--format={fmt}"]) == 0
            assert len(capsys.readouterr().out.splitlines()) == rows + (fmt == "csv")
            assert reads == ["ZRS_TOLERANCE"], (rows, fmt)
    # the value read is the one in effect: at 1e-6 the weak delta's pole is snapped away
    reads.clear()
    monkeypatch.setattr(sys, "stdin", io.StringIO(WEAK_DELTA))
    assert main(["classify"]) == 0
    assert '"poles":[]' in capsys.readouterr().out
    assert reads == ["ZRS_TOLERANCE"]


def _assert_next_calls_read_the_environment(monkeypatch, capsys):
    capsys.readouterr()
    monkeypatch.setenv("ZRS_TOLERANCE", "1e-6")
    i = Interaction.from_abcd(-2e-8, 0, 0, 0)
    assert build(i).tol == 1e-6 and poles(build(i)) == []
    monkeypatch.setattr(sys, "stdin", io.StringIO(WEAK_DELTA))
    assert main(["classify"]) == 0
    assert '"poles":[]' in capsys.readouterr().out
    monkeypatch.delenv("ZRS_TOLERANCE")
    assert build(i).tol == 1e-12 and len(poles(build(i))) == 1


@pytest.mark.parametrize(
    "code, argv, payload, tolerance",
    [
        (0, ["classify"], DELTA_ATTRACTIVE, None),
        (1, ["metric"], COLLINEAR, None),
        (2, ["classify"], "{", None),
        (2, ["classify"], DELTA_ATTRACTIVE, "nan"),
        (3, ["classify"], '{"form": "abcd", "a": [-2, 0], "b": [0, 0], "c": [0, 0], "d": [0, 0]}', None),
        (4, ["sweep", "--family=Delta", "--param=0:1:0"], "", None),
    ],
    ids=["exit-0", "exit-1", "exit-2-json", "exit-2-tolerance", "exit-3", "exit-4"],
)
def test_the_environment_is_read_again_after_a_request(monkeypatch, capsys, code, argv, payload, tolerance):
    if tolerance is None:
        monkeypatch.delenv("ZRS_TOLERANCE", raising=False)
    else:
        monkeypatch.setenv("ZRS_TOLERANCE", tolerance)
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    assert main(argv) == code
    _assert_next_calls_read_the_environment(monkeypatch, capsys)


def test_the_environment_is_read_again_after_an_exception_escapes_a_request(monkeypatch, capsys):
    def fail(interaction):
        raise RuntimeError("not caught by main")

    monkeypatch.delenv("ZRS_TOLERANCE", raising=False)
    with monkeypatch.context() as m:
        m.setattr(zrs.cli, "classify", fail)
        m.setattr(sys, "stdin", io.StringIO(DELTA_ATTRACTIVE))
        with pytest.raises(RuntimeError, match="not caught by main"):
            main(["classify"])
    _assert_next_calls_read_the_environment(monkeypatch, capsys)
