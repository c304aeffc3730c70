import argparse
import ast
import cmath
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import zrs.classifier
import zrs.cli
import zrs.interaction
import zrs.metric
import zrs.resolvent
import zrs.smatrix
from zrs.cli import CSV_COLUMNS, MAX_GRID, _dump, main

DELTA_ATTRACTIVE = '{"form": "abcd", "a": [-1, 0], "b": [0, 0], "c": [0, 0], "d": [0, 0]}'
DELTA_REPULSIVE = '{"form": "abcd", "a": [1, 0], "b": [0, 0], "c": [0, 0], "d": [0, 0]}'
DERIVATIVE = '{"form": "abcd", "a": [0, 0], "b": [0, 0], "c": [0, 0], "d": [0, 1]}'
JORDAN = '{"form": "frakT", "t": [[[1, 0], [1, 0]], [[0, 0], [1, 0]]]}'
TWO_POLE_METRIC = (
    '{"form": "frakT", "t": [[[0.125, 0], [0.375, 0]], [[0.125, 0], [0.125, 0]]]}'
)
# finite entries whose determinant and characteristic coefficients overflow
OVERFLOW_T = "[[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_cli(argv, stdin_text, monkeypatch, capsys):
    """Run the CLI in process; JSON output must parse as strict JSON."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    if "csv" not in argv:
        for line in out.splitlines():
            json.loads(line, parse_constant=_reject_constant)
    return code, out, err


def test_eval_golden_delta(monkeypatch, capsys):
    code, out, _ = run_cli(["eval", "--k", "1,0"], DELTA_REPULSIVE, monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["k"] == [1.0, 0.0]
    s = data["s"]
    assert s[0][0] == pytest.approx([0.2, 0.4])
    assert s[0][1] == pytest.approx([-0.8, 0.4])
    assert s[1][0] == pytest.approx([-0.8, 0.4])
    assert s[1][1] == pytest.approx([0.2, 0.4])


def test_eval_at_pole(monkeypatch, capsys):
    code, out, _ = run_cli(["eval", "--k", "0,0.5"], DELTA_ATTRACTIVE, monkeypatch, capsys)
    assert code == 0
    assert out == '{"k":[0.0,0.5],"pole":true}\n'


def test_classify_output_is_canonical(monkeypatch, capsys):
    code, out1, _ = run_cli(["classify"], DERIVATIVE, monkeypatch, capsys)
    assert code == 0
    code, out2, _ = run_cli(["classify"], DERIVATIVE, monkeypatch, capsys)
    assert out1 == out2
    line = out1.strip()
    assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    data = json.loads(line)
    assert data["region"] == "II"
    assert data["similarity"] == "NotSimilar"
    assert data["spectral_singularities"] == pytest.approx([4.0])
    assert data["poles"][0]["sheet"] == "RealAxis"
    assert data["poles"][0]["order"] == 1


def test_classify_normalizes_signed_zero(monkeypatch, capsys):
    code, out, _ = run_cli(["classify"], JORDAN, monkeypatch, capsys)
    assert code == 0
    assert "-0.0" not in out
    data = json.loads(out)
    assert data["poles"][0]["k"] == pytest.approx([0.0, 0.5])
    assert data["poles"][0]["order"] == 2
    assert data["exceptional_points"] == [pytest.approx([-0.25, 0.0])]
    assert data["region"] == "II"


def test_classify_reads_input_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "interaction.json"
    path.write_text(DELTA_ATTRACTIVE)
    code, out, _ = run_cli(["classify", "--input", str(path)], "", monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalues"] == [pytest.approx([-0.25, 0.0])]
    assert data["has_negative_eigenvalues"] is True
    assert data["similarity"] == "SelfAdjoint"
    assert data["region"] == "III"


def test_metric_two_pole_payload(monkeypatch, capsys):
    code, out, _ = run_cli(["metric"], TWO_POLE_METRIC, monkeypatch, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["applicable"] is True
    assert data["applicability"] == "TwoImaginaryPoles"
    assert data["alpha"] == pytest.approx([0.0, 0.0, -1.0])
    assert data["kappa"] == pytest.approx(0.5)
    assert data["cosh_chi_from_poles"] == pytest.approx(2 / 3**0.5)
    assert data["intertwining_residual"] < 1e-14
    e = data["e"]
    assert e[0][0] == pytest.approx([1 / 3**0.5, 0.0])
    assert e[1][1] == pytest.approx([3**0.5, 0.0])
    assert e[0][1] == pytest.approx([0.0, 0.0])


def _frakt(t):
    return json.dumps({"form": "frakT", "t": t})


def test_metric_not_applicable(monkeypatch, capsys):
    cases = [
        (DELTA_ATTRACTIVE, "already self-adjoint"),
        # gamma = (0.1 + 0.2i, 0.5, 0.3i, 0)
        (_frakt([[[0.1, 0.2], [0.8, 0]], [[0.2, 0], [0.1, 0.2]]]), "gamma0 not real"),
        # gamma = (0.2, 0.5 + 0.1i, 0, 0)
        (_frakt([[[0.2, 0], [0.5, 0.1]], [[0.5, 0.1], [0.2, 0]]]), "sum of gamma_j^2 not real"),
        # gamma = (0.3, 0.2, 0.5i, 0)
        (_frakt([[[0.3, 0], [0.7, 0]], [[-0.3, 0], [0.3, 0]]]), "sum of gamma_j^2 not positive"),
        # gamma = (1e4, 5e-5, 3e-5i, 0): the two roots collapse numerically
        (_frakt([[[1e4, 0], [8e-5, 0]], [[2e-5, 0], [1e4, 0]]]), "pole of order 2"),
    ]
    for payload, reason in cases:
        code, out, err = run_cli(["metric"], payload, monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert out == '{"applicable":false,"reason":"%s"}\n' % reason


def test_metric_one_pole_and_degenerate_outputs(monkeypatch, capsys):
    # gamma = (0.4, 0.5, 0.3i, 0) has det T = 0: one imaginary pole
    one_pole = _frakt([[[0.4, 0], [0.8, 0]], [[0.2, 0], [0.4, 0]]])
    code, out, err = run_cli(["metric"], one_pole, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert out == (
        '{"alpha":[0.0,0.0,-1.0],"applicability":"OneImaginaryPole","applicable":true,'
        '"chi":0.6931471805599455,"cosh_chi_from_poles":null,'
        '"e":[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[2.0000000000000004,0.0]]],'
        '"intertwining_residual":1.1102230246251565e-16,"kappa":0.6000000000000001}\n'
    )
    # gamma = (0.5, 0.3 (1 + 5e-10 i), 0, 0): Re and Im parts collinear
    collinear = _frakt([[[0.5, 0], [0.3, 1.5e-10]], [[0.3, 1.5e-10], [0.5, 0]]])
    code, out, err = run_cli(["metric"], collinear, monkeypatch, capsys)
    assert (code, out) == (1, "")
    assert err == "error: Re gamma and Im gamma are collinear\n"


def test_metric_request_builds_s_once(monkeypatch, capsys):
    counts = {"build": 0, "base_tol": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (zrs.cli, zrs.metric, zrs.classifier, zrs.smatrix, zrs.interaction):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, out, _ = run_cli(["metric"], TWO_POLE_METRIC, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["applicability"] == "TwoImaginaryPoles"
    assert counts["build"] == 1
    # once for main's validation, once for the build
    assert counts["base_tol"] <= 2


def test_sweep_delta_json(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["sweep", "--family", "Delta", "--param=-2:2:1"], "", monkeypatch, capsys
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 5
    assert rows[0]["error"] == "NotRepresentable"
    assert rows[0]["similarity"] is None
    bound = rows[1]
    assert bound["param_re"] == -1.0
    assert bound["pole1_k_im"] == pytest.approx(0.5)
    assert bound["pole1_sheet"] == "Physical"
    assert bound["eig1_re"] == pytest.approx(-0.25)
    assert bound["has_negative_eigenvalues"] is True
    assert rows[2]["pole1_sheet"] is None
    assert rows[3]["pole1_sheet"] == "Nonphysical"
    assert all(r["region"] == "III" for r in rows[1:])


def test_sweep_phase_family_csv(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["sweep", "--family", "ExampleV", "--param", "0.7:0.7:1", "--format", "csv"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 2
    row = dict(zip(CSV_COLUMNS, rows[1]))
    assert row["param_re"] == "0.7"
    assert row["pole1_order"] == "2"
    assert row["pole1_sheet"] == "Physical"
    assert row["region"] == "I"
    assert row["similarity"] == "NotSimilar"
    assert row["exc1_re"] != ""
    assert row["error"] == ""
    assert row["pole2_sheet"] == ""


def test_sweep_matrix_path(monkeypatch, capsys):
    payload = json.dumps(
        {
            "form": "frakT_path",
            "ts": [
                [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            ],
        }
    )
    code, out, _ = run_cli(
        ["sweep", "--family", "FrakTPath"], payload, monkeypatch, capsys
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["param_re"] for r in rows] == [0.0, 1.0]
    assert all(r["similarity"] == "SelfAdjoint" for r in rows)
    assert all(r["pole1_sheet"] is None for r in rows)


def test_sweep_streams_its_rows(monkeypatch, capsys):
    class Stop(Exception):
        pass

    classify = zrs.cli.classify
    seen = []

    def classify_once(interaction):
        if seen:
            raise Stop
        seen.append(interaction)
        return classify(interaction)

    monkeypatch.setattr(zrs.cli, "classify", classify_once)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    argv = ["sweep", "--family", "Delta", "--param", "0:199999:1", "--format", "csv"]
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("0,0.0,0.0,")
    assert len(lines) == 2
    assert peak < 1_000_000, peak


def test_sweep_marks_huge_couplings_not_representable(monkeypatch, capsys):
    code, out, err = run_cli(
        ["sweep", "--family", "Delta", "--param=0:1e200:1e200"], "", monkeypatch, capsys
    )
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["error"] for r in rows] == [None, "NotRepresentable"]
    assert rows[1]["param_re"] == 1e200
    path = '{"form": "frakT_path", "ts": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], %s]}' % OVERFLOW_T
    code, out, err = run_cli(["sweep", "--family", "FrakTPath"], path, monkeypatch, capsys)
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["error"] for r in rows] == [None, "NotRepresentable"]


def test_sweep_csv_matches_json(monkeypatch, capsys):
    argv = ["sweep", "--family", "Delta", "--param=-2:0:1"]
    code, json_out, _ = run_cli(argv, "", monkeypatch, capsys)
    assert code == 0
    code, csv_out, _ = run_cli(argv + ["--format", "csv"], "", monkeypatch, capsys)
    assert code == 0
    json_rows = [json.loads(line) for line in json_out.splitlines()]
    csv_rows = list(csv.reader(io.StringIO(csv_out)))[1:]
    assert len(json_rows) == len(csv_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        for col, cell in zip(CSV_COLUMNS, crow):
            value = jrow[col]
            if value is None:
                assert cell == ""
            elif value is True:
                assert cell == "true"
            elif value is False:
                assert cell == "false"
            else:
                assert cell == str(value)


def test_probe_reports_evidence(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["probe", "--epsilon", "1.0", "--xi=-2:2", "--n", "101"],
        DELTA_ATTRACTIVE,
        monkeypatch,
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["label"] == "evidence"
    assert "not a certificate" in data["note"]
    assert data["epsilon"] == 1.0
    assert data["n"] == 101
    assert data["xi"] == [-2.0, 2.0]
    assert data["value"] > 0
    # an even n is integrated on the next odd count, and reported as such
    code, even, _ = run_cli(
        ["probe", "--epsilon", "1.0", "--xi=-2:2", "--n", "100"],
        DELTA_ATTRACTIVE,
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert even == out


def test_far_out_on_the_real_axis_is_not_a_pole(monkeypatch, capsys):
    # the attractive delta's only pole is k = i/2
    code, out, err = run_cli(
        ["probe", "--epsilon", "0.1", "--xi=-1e25:1e25", "--n", "17"], DELTA_ATTRACTIVE, monkeypatch, capsys
    )
    assert (code, err) == (0, "") and json.loads(out)["value"] > 0
    code, out, err = run_cli(["eval", "--k=1e25,0"], DELTA_ATTRACTIVE, monkeypatch, capsys)
    assert (code, err) == (0, "")
    # S(k) = sigma0 - 2T + O(1/k) with T = [[1, 1], [1, 1]] / 2
    s = json.loads(out)["s"]
    assert [[z[0] for z in row] for row in s] == [[0.0, -1.0], [-1.0, 0.0]]
    assert all(abs(z[1]) < 1e-24 for row in s for z in row)


def test_probe_out_of_float_range_exits_2(monkeypatch, capsys):
    # finite ranges whose arithmetic overflows: one error line, naming the
    # ufunc that overflows first, and no RuntimeWarning (an error in this
    # suite), not a value resting on zeroed Simpson weights or a non-JSON inf
    cases = [
        (["--epsilon", "1e-300", "--xi=-1e300:1e300", "--n", "2001"], "1e-300, xi in [-1e+300, 1e+300]"),
        (["--epsilon", "1", "--xi=-1e300:1e300", "--n", "2001"], "1.0, xi in [-1e+300, 1e+300]"),
        (["--epsilon", "1e300", "--xi=-1:1"], "1e+300, xi in [-1.0, 1.0]"),
        (["--epsilon", "1e-10", "--xi=-1e150:1e150"], "1e-10, xi in [-1e+150, 1e+150]"),
        (["--epsilon", "1", "--xi=-1e200:1e200", "--n", "17"], "1.0, xi in [-1e+200, 1e+200]"),
    ]
    for options, where in cases:
        code, out, err = run_cli(["probe", *options], DELTA_ATTRACTIVE, monkeypatch, capsys)
        assert (code, out) == (2, ""), options
        assert err == f"error: probe arithmetic leaves the float range at epsilon = {where} (overflow encountered in multiply)\n"


def test_eval_out_of_float_range_exits_2(monkeypatch, capsys):
    # S(k) that overflows at a finite k: one error line naming k, no
    # RuntimeWarning, no non-JSON NaN and no OverflowError; past theta_k D
    # and p(k) on the attractive delta, on a coupling whose p(k) is still
    # finite there, and past abs(k) where p has a root at the origin
    mixed = '{"form": "abcd", "a": [0.4, 0], "b": [0.2, 0.1], "c": [-0.3, 0], "d": [0.5, 0]}'
    cases = [
        (DELTA_ATTRACTIVE, "1e308,1e308", "(1e+308+1e+308j)"),
        (mixed, "1.8e154,0", "(1.8e+154+0j)"),
        (DERIVATIVE, "1.5e308,1.5e308", "(1.5e+308+1.5e+308j)"),
    ]
    for payload, k, shown in cases:
        code, out, err = run_cli(["eval", f"--k={k}"], payload, monkeypatch, capsys)
        assert (code, out, err) == (2, "", f"error: S(k) leaves the float range at k = {shown}\n"), k
    # a constant S needs none of them, and is printed without a warning
    half = '{"form": "frakT", "t": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}'
    for k in ("1.7e308,0", "1.5e308,1.5e308"):
        code, out, err = run_cli(["eval", f"--k={k}"], half, monkeypatch, capsys)
        assert (code, err) == (0, ""), k
        assert json.loads(out)["s"] == [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]


def test_exit_code_2_on_malformed_input(monkeypatch, capsys):
    def no_probe(*args, **kwargs):
        raise AssertionError("probe ran on rejected arguments")

    # _cmd_probe imports the probe from zrs.resolvent when it runs
    monkeypatch.setattr(zrs.resolvent, "similarity_integral_probe", no_probe)
    nan_cell = '{"form": "abcd", "a": [NaN, 0], "b": [0, 0], "c": [0, 0], "d": [0, 0]}'
    inf_cell = '{"form": "frakT", "t": [[[1, 0], [0, Infinity]], [[0, 0], [1, 0]]]}'
    huge_cell = '{"form": "abcd", "a": [1%s, 0], "b": [0, 0], "c": [0, 0], "d": [0, 0]}' % ("0" * 400)
    path = '{"form": "frakT_path", "ts": [[[[0, 0], [0, 0]], [[0, 0], [-Infinity, 0]]]]}'
    cases = [
        (["classify"], "not json"),
        (["classify"], '{"form": "abcd", "a": [1, 0]}'),
        (["classify"], '{"form": "unknown"}'),
        (["classify"], '{"form": "frakT", "t": [[1, 2], [3, 4]]}'),
        (["classify"], '[1, 2]'),
        (["eval", "--k", "1"], DELTA_REPULSIVE),
        (["probe", "--epsilon", "-1", "--xi", "0:1"], DELTA_REPULSIVE),
        (["probe", "--epsilon", "1", "--xi", "zero:1"], DELTA_REPULSIVE),
        (["sweep", "--family", "Delta"], ""),
        (["sweep", "--family", "FrakTPath"], '{"form": "frakT_path", "ts": []}'),
        # non-finite numbers
        (["classify"], nan_cell),
        (["eval", "--k=1,0"], inf_cell),
        (["metric"], huge_cell),
        (["sweep", "--family", "FrakTPath"], path),
        (["eval", "--k", "nan,0"], DELTA_REPULSIVE),
        (["eval", "--k", "0,1e400"], DELTA_REPULSIVE),
        (["sweep", "--family", "Delta", "--param", "0:1:1", "--dir", "nan,0"], ""),
        (["sweep", "--family", "Delta", "--param", "0:inf:1"], ""),
        (["sweep", "--family", "Delta", "--param", "0:nan:1"], ""),
        # probe ranges
        (["probe", "--epsilon", "0.1", "--xi=10:-10"], DELTA_ATTRACTIVE),
        (["probe", "--epsilon", "0.1", "--xi=1:1"], DELTA_ATTRACTIVE),
        (["probe", "--epsilon", "0.1", "--xi=0:inf"], DELTA_ATTRACTIVE),
        (["probe", "--epsilon", "0.1", "--xi=-1e308:1e308", "--n", "17"], DELTA_ATTRACTIVE),
        (["probe", "--epsilon", "nan", "--xi=-1:1"], DELTA_ATTRACTIVE),
        (["probe", "--epsilon", "inf", "--xi=-1:1"], DELTA_ATTRACTIVE),
        (["probe", "--epsilon", "0", "--xi=-1:1"], DELTA_ATTRACTIVE),
        (["probe", "--epsilon", "0.1", "--xi=-1:1", "--n", "3"], DELTA_ATTRACTIVE),
        (["probe", "--epsilon", "0.1", "--xi=-1:1", "--n", str(MAX_GRID + 1)], DELTA_ATTRACTIVE),
    ]
    for argv, text in cases:
        code, out, err = run_cli(argv, text, monkeypatch, capsys)
        assert code == 2, (argv, text)
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_exit_code_2_on_missing_input_file(monkeypatch, capsys):
    code, _, err = run_cli(
        ["classify", "--input", "/no/such/file.json"], "", monkeypatch, capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_exit_code_3_on_unrepresentable_coefficients(monkeypatch, capsys):
    abcd = '{"form": "abcd", "a": [%s], "b": [%s], "c": [%s], "d": [%s]}'
    zero = "0, 0"
    # Xi vanishes at a = -2; the larger couplings are too large to normalise,
    # their magnitude squared (or magnitude) beyond the float range
    payloads = [abcd % (a, zero, zero, zero) for a in ("-2, 0", "1e200, 0", "1.5e308, 1.5e308")]
    overflows = [
        # det = inf - inf makes Xi NaN, which counts as vanishing
        abcd % (("1e200, 0",) * 4),
        '{"form": "frakT", "t": %s}' % OVERFLOW_T,
    ]
    for payload in payloads + overflows:
        code, _, err = run_cli(["classify"], payload, monkeypatch, capsys)
        assert code == 3
        assert err.startswith("error:")
    others = (["eval", "--k", "1,0"], ["metric"], ["probe", "--epsilon", "0.1", "--xi=-1:1", "--n", "64"])
    for argv in others:
        for payload in overflows:
            code, out, err = run_cli(argv, payload, monkeypatch, capsys)
            assert (code, out) == (3, "")
            assert err.startswith("error:") and err.count("\n") == 1


def test_exit_code_3_is_one_line_without_warnings(monkeypatch, capsys):
    # entries whose sums overflow in the Pauli decomposition: no RuntimeWarning
    # (an error in this suite) may come before the one-line error
    payload = (
        '{"form":"frakT","t":[[[1.2e308,1.2e308],[1.2e308,-1.2e308]],'
        '[[1.2e308,1.2e308],[1.2e308,1.2e308]]]}'
    )
    for argv in (["classify"], ["eval", "--k=1,0.5"], ["metric"], ["probe", "--epsilon=0.1", "--xi=-1:1"]):
        code, out, err = run_cli(argv, payload, monkeypatch, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: characteristic polynomial") and err.count("\n") == 1


def test_exit_code_4_on_grid_guards(monkeypatch, capsys):
    code, _, err = run_cli(
        ["sweep", "--family", "Delta", "--param", "0:1:0"], "", monkeypatch, capsys
    )
    assert code == 4
    code, _, err = run_cli(
        ["sweep", "--family", "Delta", "--param", "0:10000000:0.0001"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 4
    assert "limit" in err
    code, _, err = run_cli(
        ["sweep", "--family", "Delta", "--param", "0:1e308:1e-300"], "", monkeypatch, capsys
    )
    assert code == 4
    assert "overflows" in err
    code, out, err = run_cli(
        ["sweep", "--family", "Delta", "--param=0:1e300:5e299", "--dir", "1e10,0", "--format", "csv"],
        "",
        monkeypatch,
        capsys,
    )
    assert (code, out) == (4, "")
    assert "not finite" in err


def test_dump_rejects_non_finite_numbers():
    assert _dump({"x": [0.5, -0.0]}) == '{"x":[0.5,-0.0]}'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            _dump({"x": bad})


def test_unknown_subcommand_exits_2(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"], "", monkeypatch, capsys)
    assert exc.value.code == 2


def test_module_entry_point():
    # the child imports the zrs this process imports, wherever that is
    src = str(Path(zrs.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "zrs.cli", "classify"],
        input=DELTA_ATTRACTIVE,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["similarity"] == "SelfAdjoint"


# packages that a cold classify or sweep must not pay to import
HEAVY = ("numpy", "scipy", "dataclasses", "inspect")


def _heavy_modules_after(code):
    """Run code in a fresh process; its last stdout line lists the HEAVY modules loaded."""
    # this process has them loaded already, so each check runs in a fresh one
    src = str(Path(zrs.cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code += f"\nprint(sorted(m for m in sys.modules if m.split('.')[0] in {HEAVY!r}))"
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_import_does_not_load_scipy():
    # nor numpy (only the subcommands that make an ndarray load it), nor
    # dataclasses and the inspect module it imports
    proc = _heavy_modules_after("import sys, zrs, zrs.cli")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_probe_does_not_load_scipy():
    code = (
        "import io, sys, zrs.cli\n"
        f"sys.stdin = io.StringIO({DELTA_ATTRACTIVE!r})\n"
        "code = zrs.cli.main(['probe', '--epsilon=1', '--xi=-1:1', '--n', '17'])\n"
        "assert code == 0, code"
    )
    proc = _heavy_modules_after(code)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert "numpy" in loaded and not any(m.split(".")[0] == "scipy" for m in loaded)
    assert json.loads(proc.stdout.splitlines()[0])["label"] == "evidence"


def _cells(t):
    return [[[complex(z).real, complex(z).imag] for z in row] for row in t]


def _abcd(a, b=0, c=0, d=0):
    return json.dumps({"form": "abcd", **{k: [complex(v).real, complex(v).imag] for k, v in zip("abcd", (a, b, c, d))}})


def _verdict_payloads():
    """(payload, similarity, region) of each verdict class of the benchmark's cli-calls corpus."""
    phase = cmath.exp(0.5j)
    # theta+- = -2 and 3 + i: a real negative eigenvalue with complex gamma0
    g0, xi = (1 / -2 + 1 / (3 + 1j)) / 2, (1 / -2 - 1 / (3 + 1j)) / 2
    return [
        (_abcd(-1), "SelfAdjoint", "III"),  # eigenvalue
        (_abcd(1), "SelfAdjoint", "III"),  # resonance
        (_abcd(0, 0, 0, 1j), "NotSimilar", "II"),  # real-axis singularity
        (_abcd(-phase, -1, 1, phase.conjugate()), "NotSimilar", "I"),  # exceptional point
        (_abcd(-1 - 0.5j), "NotSimilar", "I"),
        (_frakt(_cells([[0, 1], [0, 0]])), "NotSimilar", "II"),  # nilpotent T: singularity at infinity
        (_frakt(_cells([[0.25, 0.5], [0.125, 0.25]])), "SimilarToSelfAdjoint", "III"),  # constant S
        (_frakt(_cells([[0.5, 0], [0, 0.5]])), "SelfAdjoint", "III"),  # Krein, constant S
        (_frakt(_cells([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])), "SelfAdjoint", "III"),
        (_frakt(_cells([[0.5, 1], [0.25, 0.5]])), "SimilarToSelfAdjoint", "III"),  # one imaginary pole
        (TWO_POLE_METRIC, "SimilarToSelfAdjoint", "III"),
        (_frakt(_cells([[g0, xi], [xi, g0]])), "Undetermined", "Undetermined"),
        (_abcd(-2), None, None),  # no boundary matrix: exit 3
    ]


def test_classify_and_sweep_do_not_load_numpy():
    verdicts = _verdict_payloads()
    path = json.dumps({"form": "frakT_path", "ts": [json.loads(p)["t"] for p, _, _ in verdicts[5:12]]})
    sweeps = [
        (["--family", family, "--param=-3:3:0.25", "--dir=0.6,0.8"], "")
        for family in ("Delta", "Mixed", "DeltaPrime", "ExampleV")
    ] + [(["--family", "FrakTPath"], path)]
    rows = [25] * 4 + [7]
    code = f"""
import contextlib, io, json, sys
import zrs, zrs.cli

def run(argv, payload=""):
    sys.stdin = io.StringIO(payload)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = zrs.cli.main(argv)
    return code, out.getvalue()

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in {HEAVY!r})

found = {{"import": heavy()}}
found["classify"] = [run(["classify"], p) for p, _, _ in {verdicts!r}]
found["sweep"] = [run(["sweep", *argv, "--format", f], p) for argv, p in {sweeps!r} for f in ("csv", "json")]
found["classify_and_sweep"] = heavy()
found["eval"] = run(["eval", "--k=1,0"], {DELTA_REPULSIVE!r})
found["metric"] = run(["metric"], {TWO_POLE_METRIC!r})
found["probe"] = run(["probe", "--epsilon=1", "--xi=-1:1", "--n=17"], {DELTA_ATTRACTIVE!r})
print(json.dumps(found))
"""
    proc = _heavy_modules_after(code)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[0])
    assert found["import"] == found["classify_and_sweep"] == []
    for (code, out), (_, similarity, region) in zip(found["classify"], verdicts):
        if similarity is None:
            assert (code, out) == (3, "")
        else:
            assert code == 0 and (json.loads(out)["similarity"], json.loads(out)["region"]) == (similarity, region)
    for (code, out), count, header in zip(found["sweep"], [n for n in rows for _ in "cj"], [1, 0] * 5):
        assert code == 0 and len(out.splitlines()) == count + header
    # the subcommands that make an ndarray load numpy, and still answer right
    assert "numpy" in ast.literal_eval(proc.stdout.splitlines()[-1])
    code, out = found["eval"]
    assert code == 0 and json.loads(out)["s"][0][0] == pytest.approx([0.2, 0.4])
    code, out = found["metric"]
    assert code == 0 and json.loads(out)["applicability"] == "TwoImaginaryPoles"
    assert json.loads(out)["intertwining_residual"] < 1e-12
    code, out = found["probe"]
    assert code == 0 and json.loads(out)["label"] == "evidence" and json.loads(out)["value"] > 0


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    requests = [
        (["classify"], DELTA_ATTRACTIVE),
        (["eval", "--k", "1,0"], DELTA_REPULSIVE),
        (["metric"], TWO_POLE_METRIC),
        (["sweep", "--family", "Delta", "--param", "0:1:0.5", "--format", "csv"], ""),
    ]
    for argv, text in requests:
        assert run_cli(argv, text, monkeypatch, capsys)[0] == 0
    assert built == []


def test_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    monkeypatch.setattr(zrs.resolvent, "similarity_integral_probe", lambda *args, **kwargs: 1.0)
    sweep = ["sweep", "--family", "Delta", "--param", "0:1:0.5"]
    code, out, _ = run_cli(sweep + ["--format", "csv"], "", monkeypatch, capsys)
    assert code == 0 and out.startswith("index,")
    code, out, _ = run_cli(sweep, "", monkeypatch, capsys)
    assert code == 0 and len(out.splitlines()) == 3
    assert all(json.loads(line)["index"] == i for i, line in enumerate(out.splitlines()))

    probe = ["probe", "--epsilon", "0.5", "--xi=-1:1"]
    code, out, _ = run_cli(probe + ["--n", "101"], DELTA_REPULSIVE, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["n"] == 101
    code, out, _ = run_cli(probe, DELTA_REPULSIVE, monkeypatch, capsys)
    assert code == 0 and json.loads(out)["n"] == 200001

    # an option error part way through a request leaves nothing behind
    code, answer, _ = run_cli(["eval", "--k", "1,0"], DELTA_REPULSIVE, monkeypatch, capsys)
    assert code == 0
    for bad in (
        ["eval", "--input", "unused.json"],
        ["probe", "--n", "101", "--epsilon", "small", "--xi=-1:1"],
        ["sweep", "--format", "csv", "--family", "Square"],
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(bad, DELTA_REPULSIVE, monkeypatch, capsys)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        code, out, _ = run_cli(["eval", "--k", "1,0"], DELTA_REPULSIVE, monkeypatch, capsys)
        assert (code, out) == (0, answer)
        code, out, _ = run_cli(probe, DELTA_REPULSIVE, monkeypatch, capsys)
        assert code == 0 and json.loads(out)["n"] == 200001
