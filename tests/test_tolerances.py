import io
import sys

import pytest

from pole_stage import poles
from zrs.classifier import Sheet
from zrs.cli import main
from zrs.interaction import Interaction
from zrs.smatrix import build
from zrs.tolerances import base_tol

DELTA_ATTRACTIVE = '{"form": "abcd", "a": [-1, 0], "b": [0, 0], "c": [0, 0], "d": [0, 0]}'


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
        assert err.startswith("error: ZRS_TOLERANCE")


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
