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
from hypothesis import given, settings
from hypothesis import strategies as st

import zrs.classifier
import zrs.cli
import zrs.errors
import zrs.interaction
import zrs.metric
import zrs.resolvent
import zrs.smatrix
from oracles import exact_poles
from zrs.cli import CSV_COLUMNS, MAX_GRID, _COMMANDS, _build_parser, _dump, _plain_args, main

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


def test_eval_at_the_pole_classify_reports_near_half_identity(monkeypatch, capsys):
    # p has a double root at k0 = 2e-6j with |p(0)| below the 100 tol at which
    # an origin root is accepted; S has its pole at k0, not at the origin
    payload = '{"form": "frakT", "t": [[[0.500001, 0], [0, 0]], [[0, 0], [0.500001, 0]]]}'
    code, out, _ = run_cli(["classify"], payload, monkeypatch, capsys)
    assert code == 0
    (pole,) = json.loads(out)["poles"]
    assert pole["order"] == 1
    # where exact_poles puts the double root, to a few eps: 1 - theta / 2
    # cancels near theta = 2
    (ref, _) = exact_poles([[0.500001, 0], [0, 0.500001]])
    re, im = pole["k"]
    assert re == 0.0 and abs(im - ref.imag) <= 4 * 2.0**-52
    code, out, _ = run_cli(["eval", f"--k=0,{im!r}"], payload, monkeypatch, capsys)
    assert (code, out) == (0, f'{{"k":[0.0,{im!r}],"pole":true}}\n')


def _numbers(value, key=None):
    """(key, number) of each number of a loaded JSON answer, key that of the innermost object holding it."""
    if isinstance(value, dict):
        return [n for k, v in value.items() for n in _numbers(v, k)]
    if isinstance(value, list):
        return [n for v in value for n in _numbers(v, key)]
    return [(key, value)] if type(value) in (int, float) else []


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
    # every answer: its keys sorted at every level, its numbers floats but the counts order and n
    answers = [
        (["classify"], DERIVATIVE),
        (["classify"], JORDAN),
        (["classify"], '{"form": "frakT", "t": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}'),  # a pole at infinity
        (["eval", "--k=1,0.5"], DELTA_ATTRACTIVE),
        (["eval", "--k=0,1"], DELTA_ATTRACTIVE),  # at the pole
        (["eval", "--k=2,0"], '{"form": "frakT", "t": [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]]}'),  # S constant
        (["metric"], TWO_POLE_METRIC),
        (["metric"], _frakt([[[0.4, 0], [0.8, 0]], [[0.2, 0], [0.4, 0]]])),  # one pole
        (["metric"], DELTA_ATTRACTIVE),  # not applicable
        (["probe", "--epsilon=1", "--xi=-2:2", "--n=101"], DELTA_ATTRACTIVE),
    ]
    for argv, payload in answers:
        code, out, err = run_cli(argv, payload, monkeypatch, capsys)
        assert (code, err) == (0, ""), argv
        data = json.loads(out)
        assert out == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n", argv
        for key, x in _numbers(data):
            assert type(x) is (int if key in ("order", "n") else float), (argv, key, x)


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
        # gamma = (0.1 + 0.2i, 0.5, 0.3i, 0): eigenvalues 0.5 + 0.2i and -0.3 + 0.2i
        (_frakt([[[0.1, 0.2], [0.8, 0]], [[0.2, 0], [0.1, 0.2]]]), "eigenvalue not real"),
        # gamma = (0.2, 0.5 + 0.1i, 0, 0): eigenvalues 0.2 +- (0.5 + 0.1i)
        (_frakt([[[0.2, 0], [0.5, 0.1]], [[0.5, 0.1], [0.2, 0]]]), "eigenvalue not real"),
        # gamma = (0.3, 0.2, 0.5i, 0): xi^2 = -0.21, eigenvalues 0.3 +- 0.458i
        (_frakt([[[0.3, 0], [0.7, 0]], [[-0.3, 0], [0.3, 0]]]), "eigenvalue not real"),
        # gamma = (0.3, 0, 1e3 i (1 - 5e-15), 1e3): xi^2 = x^2 + bc cancels to 5e-15 of its terms, a double root
        (_frakt([[[1000.3, 0], [999.999999999995, 0]], [[-999.999999999995, 0], [-999.7, 0]]]), "pole of order 2"),
        # eigenvalues 1 +- 5e-10i, each real within 1000 tol of itself, but xi^2 = -2.5e-19 (not DegenerateGamma)
        (_frakt([[[1, 0], [5e-10, 0]], [[-5e-10, 0], [1, 0]]]), "eigenvalue not real"),
        # a Jordan block within 100 tol of scalar: one root of multiplicity 2, whose order the scalar rule sets to 1
        (_frakt([[[1, 0], [5e-11, 0]], [[0, 0], [1, 0]]]), "pole of order 2"),
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


def _count_calls(monkeypatch, counts, modules):
    # each name of counts, wherever one of modules holds it, counts its calls there
    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in modules:
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))


def test_metric_request_builds_s_once(monkeypatch, capsys):
    counts = {"build": 0, "base_tol": 0}
    _count_calls(monkeypatch, counts, (zrs.cli, zrs.metric, zrs.classifier, zrs.smatrix, zrs.interaction))
    code, out, _ = run_cli(["metric"], TWO_POLE_METRIC, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["applicability"] == "TwoImaginaryPoles"
    assert counts["build"] == 1
    # once for main's validation, once for the build
    assert counts["base_tol"] <= 2


@pytest.mark.parametrize(
    "argv, payload",
    [
        # tilted Delta: non-real eigenvalues; DeltaPrime with d = i t: real-axis singularities;
        # Mixed: no finite pole. No row reaches the similarity rule on the recorded lam.
        (["--family", "Delta", "--param=-3:3:0.25", "--dir=0.6,0.8"], ""),
        (["--family", "DeltaPrime", "--param=0.25:2:0.25", "--dir=0,1"], ""),
        (["--family", "Mixed", "--param=-4:4:0.5", "--dir=0.6,0.8"], ""),
        # a hermitian T, a Jordan T and the two-pole T of the metric, which alone reaches that rule
        (
            ["--family", "FrakTPath"],
            json.dumps(
                {
                    "form": "frakT_path",
                    "ts": [
                        [[[1, 0], [0.5, 0]], [[0.5, 0], [-2, 0]]],
                        json.loads(JORDAN)["t"],
                        json.loads(TWO_POLE_METRIC)["t"],
                    ],
                }
            ),
        ),
    ],
    ids=["Delta", "DeltaPrime", "Mixed", "FrakTPath"],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_rows_build_s_once(monkeypatch, capsys, argv, payload, fmt):
    counts = {"build": 0, "base_tol": 0, "_decompose": 0}
    _count_calls(monkeypatch, counts, (zrs.cli, zrs.classifier, zrs.smatrix, zrs.interaction))
    code, out, _ = run_cli(["sweep", *argv, "--format", fmt], payload, monkeypatch, capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out))) if fmt == "csv" else [json.loads(line) for line in out.splitlines()]
    assert rows and all(not row["error"] for row in rows)
    assert counts["build"] == len(rows)
    # main's validation, then per row the build and, for the abcd form, from_abcd's Xi test
    assert counts["base_tol"] <= 1 + len(rows) * (1 if argv[1] == "FrakTPath" else 2)
    # no row decomposes T: the similarity rule reads the reality of each lam the build recorded
    assert counts["_decompose"] == 0


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


# a nilpotent T (S grows linearly in k: a pole at infinity), a scalar T, the
# two-pole T of the metric and a T whose characteristic coefficients overflow
_EDGE_PATH = '{"form": "frakT_path", "ts": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]], %s, %s, %s]}' % (
    "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]",
    json.dumps(json.loads(TWO_POLE_METRIC)["t"]),
    OVERFLOW_T,
)


@pytest.mark.parametrize(
    "argv, payload, shown",
    [
        # through Xi = 0 at t = -2
        (["--family", "Delta", "--param=-3:3:0.25"], "", ['"error":"NotRepresentable"']),
        # tilted: non-real eigenvalues
        (["--family", "Delta", "--param=-3:3:0.25", "--dir=0.6,0.8"], "", ['"region":"I"']),
        # d = i t: real-axis singularities either side of t = 0
        (["--family", "DeltaPrime", "--param=-2:2:0.25", "--dir=0,1"], "", ['"pole1_sheet":"RealAxis"']),
        # no finite pole
        (["--family", "Mixed", "--param=-4:4:0.5", "--dir=0.6,0.8"], "", ['"pole1_sheet":null']),
        # phi = 0, the exceptional points and the double poles below the real axis
        (
            ["--family", "ExampleV", "--param=-3.25:3.25:0.25"],
            "",
            ['"error":"NotRepresentable"', '"pole1_order":2,"pole1_sheet":"Physical"', '"pole1_sheet":"Nonphysical"'],
        ),
        # the double pole on the real axis at phi = pi / 2
        (
            ["--family", "ExampleV", f"--param={cmath.pi / 2!r}:{cmath.pi / 2!r}:1"],
            "",
            ['"pole1_order":2,"pole1_sheet":"RealAxis"'],
        ),
        (["--family", "FrakTPath"], _EDGE_PATH, ['"pole_at_infinity":true', '"error":"NotRepresentable"']),
    ],
    ids=["Delta", "Delta-tilted", "DeltaPrime", "Mixed", "ExampleV", "ExampleV-real-axis", "FrakTPath"],
)
def test_sweep_lines_are_those_of_json_and_csv(monkeypatch, capsys, argv, payload, shown):
    code, json_out, err = run_cli(["sweep", *argv], payload, monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert all(text in json_out for text in shown)
    code, csv_out, err = run_cli(["sweep", *argv, "--format", "csv"], payload, monkeypatch, capsys)
    assert (code, err) == (0, "")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for line in json_out.splitlines():
        row = json.loads(line)
        assert line == _dump(row)
        assert list(row) == sorted(CSV_COLUMNS)
        assert "-0.0" not in map(repr, row.values())
        writer.writerow(["true" if v is True else "false" if v is False else v for v in map(row.get, CSV_COLUMNS)])
    assert csv_out == buffer.getvalue()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_stops_at_a_non_finite_cell(monkeypatch, capsys, bad, fmt):
    argv = ["sweep", "--family", "Delta", "--param=-1:1:1", "--format", fmt]
    code, whole, _ = run_cli(argv, "", monkeypatch, capsys)
    assert code == 0
    classify, calls = zrs.cli.classify, []

    def classify_bad_second(interaction):
        calls.append(interaction)
        c = classify(interaction)
        return c._replace(eigenvalues=(complex(bad, 0.0),)) if len(calls) == 2 else c

    monkeypatch.setattr(zrs.cli, "classify", classify_bad_second)
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (1, "error: Out of range float values are not JSON compliant\n")
    # the rows before it stay written
    assert out == "".join(whole.splitlines(keepends=True)[: 2 if fmt == "csv" else 1])


def test_sweep_cell_text_needs_no_quoting():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    texts = [v.value for enum in (zrs.classifier.Sheet, zrs.classifier.Similarity, zrs.classifier.Region) for v in enum]
    texts += [cls.__name__ for cls in subclasses(zrs.errors.ZrsError)]
    assert "NotRepresentable" in texts
    for text in texts:
        assert text and text.isascii() and text.isprintable(), text
        assert not set(text) & set(',"\\'), text
        # JSON rows write an empty cell as "null" and unquote it; a float cell reads nan or inf only when not finite
        assert "null" not in text and text not in ("nan", "inf", "-inf"), text
        # what csv and json write for it
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow([text, text])
        assert buffer.getvalue() == f"{text},{text}\n"
        assert _dump(text) == f'"{text}"'


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
    # and the factors of p on the attractive delta, past theta_k on a
    # coupling with two factors, and past abs(k) where p has a root at the
    # origin
    mixed = '{"form": "abcd", "a": [0.4, 0], "b": [0.2, 0.1], "c": [-0.3, 0], "d": [0.5, 0]}'
    cases = [
        (DELTA_ATTRACTIVE, "1e308,1e308", "(1e+308+1e+308j)"),
        (mixed, "1.7e308,0", "(1.7e+308+0j)"),
        (DERIVATIVE, "1.5e308,1.5e308", "(1.5e+308+1.5e+308j)"),
    ]
    for payload, k, shown in cases:
        code, out, err = run_cli(["eval", f"--k={k}"], payload, monkeypatch, capsys)
        assert (code, out, err) == (2, "", f"error: S(k) leaves the float range at k = {shown}\n"), k
    # 4ik is divided by each factor before it meets the numerator, so where
    # p(k) and k theta_k D are past 1e300, S(k), about -sigma0, is printed
    code, out, err = run_cli(["eval", "--k=1.8e154,0"], mixed, monkeypatch, capsys)
    assert (code, err) == (0, "")
    s = json.loads(out)["s"]
    assert [[round(z[0], 12) for z in row] for row in s] == [[-1, 0], [0, -1]]
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


def _abcd_cells(a="[0, 0]", b="[0, 0]", c="[0, 0]", d="[0, 0]"):
    return '{"form": "abcd", "a": %s, "b": %s, "c": %s, "d": %s}' % (a, b, c, d)


@pytest.mark.parametrize(
    "argv, payload, err",
    [
        (["classify"], _abcd_cells(a="[1]"), "field 'a' must be [re, im]"),
        (["classify"], _abcd_cells(a="1"), "field 'a' must be [re, im]"),
        (["eval", "--k=1,0"], _abcd_cells(b="[true, 0]"), "field 'b' must be [re, im]"),
        (["metric"], _abcd_cells(c='[1, "0"]'), "field 'c' must be [re, im]"),
        (["classify"], _abcd_cells(a="[NaN, 0]"), "field 'a' must be finite"),
        (["probe", "--epsilon=1", "--xi=-1:1"], _abcd_cells(d="[Infinity, 0]"), "field 'd' must be finite"),
        (["classify"], _abcd_cells(b="[0, 1%s]" % ("0" * 400)), "field 'b' must be finite"),
        (["classify"], '{"form": "abcd", "a": [0, 0], "c": [0, 0]}', "missing field(s): b, d"),
        (["classify"], '{"form": "frakT", "t": [[[0, 0], [0, 0]], [[0, false], [0, 0]]]}',
         "field 't'[1][0] must be [re, im]"),
        (["classify"], '{"form": "frakT", "t": [[[0, 0], [0, 0]], [[0, 0]]]}',
         "field 't' must be a 2x2 matrix of [re, im] pairs"),
        (["sweep", "--family=FrakTPath"], '{"form": "frakT_path", "ts": [[[[0, 0], [0, 0]], [[0, 0, 0], [0, 0]]]]}',
         "field 'ts'[0][1][0] must be [re, im]"),
        (["sweep", "--family=FrakTPath"], '{"form": "frakT_path", "ts": [%s, [[[0, 0], [0, 0]]]]}' % OVERFLOW_T,
         "field 'ts'[1] must be a 2x2 matrix of [re, im] pairs"),
        (["classify"], '{"form": "frakT"}', "missing field 't'"),
        (["sweep", "--family=FrakTPath"], '{"form": "frakT", "t": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}',
         "FrakTPath sweeps need input with form 'frakT_path'"),
    ],
    ids=["short", "number", "bool", "string", "nan", "infinity", "huge", "missing", "t_cell", "t_shape",
         "ts_cell", "ts_shape", "t_missing", "path_form"],
)
def test_schema_errors_name_the_field(argv, payload, err, monkeypatch, capsys):
    assert run_cli(argv, payload, monkeypatch, capsys) == (2, "", f"error: {err}\n")


def test_metric_where_kappa_rounds_to_one(monkeypatch, capsys):
    # T = [[0, 0], [c, 1]] has eigenvalues 0 and 1, and classify calls it similar to a self-adjoint
    # operator; kappa = (1 + 1/c^2)^(-1/2) rounds to 1 from about c = 1e8, where E is not representable
    for c in (1e8, 1e9, 1e12):
        payload = _frakt([[[0, 0], [0, 0]], [[c, 0], [1, 0]]])
        code, out, err = run_cli(["classify"], payload, monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert (json.loads(out)["similarity"], json.loads(out)["region"]) == ("SimilarToSelfAdjoint", "III")
        code, out, err = run_cli(["metric"], payload, monkeypatch, capsys)
        assert (code, out, err) == (0, '{"applicable":false,"reason":"E not representable: kappa rounds to 1"}\n', "")
    code, out, err = run_cli(["metric"], _frakt([[[0, 0], [0, 0]], [[1e7, 0], [1, 0]]]), monkeypatch, capsys)
    assert (code, err) == (0, "")
    assert out == (
        '{"alpha":[9.99999999999995e-08,0.0,0.999999999999995],"applicability":"OneImaginaryPole",'
        '"applicable":true,"chi":16.81164263023336,"cosh_chi_from_poles":null,'
        '"e":[[[20007997.572905034,0.0],[1.000399878645247,0.0]],[[1.000399878645247,0.0],[9.872019290924072e-08,0.0]]],'
        '"intertwining_residual":0.013197949552839816,"kappa":0.999999999999995}\n'
    )


def test_metric_where_the_build_records_no_root(monkeypatch, capsys):
    # T = [[10, 10], [-10 + 2e-10, -10]] has D = -2e-9, below the zero test of D against the terms it
    # cancels, and trace 0: the build takes both eigenvalues as 0 and records no root, so S has only the
    # pole at infinity, and metric does not apply
    payload = _frakt([[[10, 0], [10, 0]], [[-10 + 2e-10, 0], [-10, 0]]])
    code, out, err = run_cli(["classify"], payload, monkeypatch, capsys)
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert (got["similarity"], got["region"], got["singularity_at_infinity"]) == ("NotSimilar", "II", True)
    assert got["poles"] == [{"k": None, "order": 1, "sheet": "Infinity", "z": None}]
    code, out, err = run_cli(["metric"], payload, monkeypatch, capsys)
    assert (code, out, err) == (0, '{"applicable":false,"reason":"no finite pole"}\n', "")


def test_exit_code_2_on_missing_input_file(monkeypatch, capsys):
    code, _, err = run_cli(
        ["classify", "--input", "/no/such/file.json"], "", monkeypatch, capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_exit_code_2_on_undecodable_input_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "interaction.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(["classify", "--input", str(path)], "", monkeypatch, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode") and err.count("\n") == 1


def test_exit_code_2_on_undecodable_stdin(monkeypatch, capsys):
    stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdin", stdin)
    code = main(["classify"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read stdin: 'utf-8' codec can't decode") and err.count("\n") == 1


def test_exit_code_2_on_json_nested_too_deeply(monkeypatch, capsys):
    for text in ("[" * 100_000, '{"a": ' * 100_000):
        code, out, err = run_cli(["classify"], text, monkeypatch, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: maximum recursion depth") and err.count("\n") == 1


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
        # x^2 = ((a - d)/2)^2 with finite parts and a modulus past the float range, D and p's
        # coefficients finite: a bare OverflowError and exit 1 before
        _frakt([[[2.68e154, 4e153], [0, 0]], [[0, 0], [0, 0]]]),
        _frakt([[[2.6770239483403554e154, -2.575183112425368e153], [-4.7840485422316355e153, 5.471804441174003e153]],
                [[0, 0], [8.041911602603752e-147, -1.5185952936927392e-146]]]),
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
    assert run_cli(["sweep", "--family=Delta", "--param=1:0:0.5"], "", monkeypatch, capsys) == (
        4, "", "error: empty parameter grid\n"
    )
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


# packages that a cold classify or sweep must not pay to import; argparse
# is loaded only for a command line that _plain_args leaves to it
HEAVY = ("numpy", "scipy", "dataclasses", "inspect", "argparse")


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
    # dataclasses and the inspect module it imports, nor argparse
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
    # the probe, which makes ndarrays, loads numpy, and every subcommand
    # still answers right; no request of any of the five loaded argparse
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert "numpy" in loaded and "argparse" not in loaded
    code, out = found["eval"]
    assert code == 0 and json.loads(out)["s"][0][0] == pytest.approx([0.2, 0.4])
    code, out = found["metric"]
    assert code == 0 and json.loads(out)["applicability"] == "TwoImaginaryPoles"
    assert json.loads(out)["intertwining_residual"] < 1e-12
    code, out = found["probe"]
    assert code == 0 and json.loads(out)["label"] == "evidence" and json.loads(out)["value"] > 0


def test_eval_and_metric_do_not_load_numpy():
    # an eval and an applicable metric run on Python scalars, like classify
    code = f"""
import contextlib, io, json, sys
import zrs.cli

def run(argv, payload):
    sys.stdin = io.StringIO(payload)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = zrs.cli.main(argv)
    return code, out.getvalue()

print(json.dumps([run(["eval", "--k=1,0"], {DELTA_REPULSIVE!r}), run(["metric"], {TWO_POLE_METRIC!r})]))
"""
    proc = _heavy_modules_after(code)
    assert proc.returncode == 0, proc.stderr
    (eval_code, eval_out), (metric_code, metric_out) = json.loads(proc.stdout.splitlines()[0])
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == []
    assert eval_code == 0 and json.loads(eval_out)["s"][0][0] == pytest.approx([0.2, 0.4])
    assert metric_code == 0 and json.loads(metric_out)["applicability"] == "TwoImaginaryPoles"
    assert json.loads(metric_out)["intertwining_residual"] < 1e-12


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


def _argparse_outcome(call, argv, capsys):
    """(stdout, stderr, SystemExit code) of call(argv), which must exit."""
    with pytest.raises(SystemExit) as exc:
        call(argv)
    return (*capsys.readouterr(), exc.value.code)


def test_help_and_option_errors_are_argparse_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["eval", "--kk=1,0"], ["probe", "-h"], ["frobnicate"], ["sweep", "--f=csv"], []):
        expected = _argparse_outcome(_build_parser().parse_args, argv, capsys)
        assert _argparse_outcome(main, argv, capsys) == expected
        assert expected[2] in (0, 2) and "usage: zrs" in expected[0] + expected[1]


_FLAGS = sorted({option[0] for _, _, options in _COMMANDS.values() for option in options})
# values each option takes, in choices and well formed
_GOOD = {
    "--input": ["f.json", "a b.json"],
    "--k": ["1,0", "0.5,-2"],
    "--family": ["Delta", "Mixed", "DeltaPrime", "ExampleV", "FrakTPath"],
    "--param": ["0:1:0.5", "2:3:1"],
    "--dir": ["1,0", "0.6,0.8"],
    "--format": ["json", "csv"],
    "--epsilon": ["0.5", "1e-3", "nan", "inf", " 7 ", "1_0"],
    "--xi": ["0:1", "1:2"],
    "--n": ["101", " 17 ", "1_000"],
}
# values starting with "-", empty or holding "=" or a space, out of choices, bad floats and ints
_ODD = ["", "=", "a=b", "1 2", "-1 2", "-1,0", "-3", "-", "--k", "-h", "Square", "CSV", "small", "1.5", "0x10", "1e400"]
# unknown, abbreviated and help flags, "--", a subcommand and every subcommand's whole flags
_STRAY = ["-h", "--help", "--", "-k", "--in", "--eps", "--fam", "--form", "--f", "--e", "--kk", "classify", *_FLAGS]


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from([*_COMMANDS, *_COMMANDS, "frobnicate", "Eval", ""]))
    own = [option[0] for option in _COMMANDS[command][2]] if command in _COMMANDS else _FLAGS
    flags = draw(st.permutations(own))[: draw(st.integers(0, len(own)))]
    flags += draw(st.lists(st.sampled_from(_STRAY + own), max_size=2))  # strays and repeats
    argv = [command]
    for flag in draw(st.permutations(flags)):
        good = _GOOD.get(flag, []) if draw(st.integers(0, 3)) else []
        value = draw(st.sampled_from(good or _ODD))
        form = draw(st.sampled_from(["=", " ", "=", " ", "bare"]))
        argv += {"=": [f"{flag}={value}"], " ": [flag, value], "bare": [flag]}[form]
    return argv


def _fields(namespace):
    # by repr, so that NaN from --epsilon=nan compares equal
    return repr(sorted(vars(namespace).items()))


@settings(deadline=None, max_examples=1500)
@given(_command_lines())
def test_plain_args_agree_with_argparse(argv):
    plain = _plain_args(argv)
    if plain is None:
        return
    try:
        parsed = _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects {argv!r}, which _plain_args read")
    assert _fields(plain) == _fields(parsed)


def test_bench_command_lines_skip_argparse(monkeypatch):
    bench = Path(__file__).parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import corpus

    argvs = []
    for seed in (1, 2, 3):
        argvs += [op["argv"] for op in corpus.cli_ops(seed)]
        for spec in corpus.sweep_specs(seed) + [corpus.long_sweep(seed)]:
            argvs += [["sweep", *spec["argv"], "--format", fmt] for fmt in ("csv", "json")]
        for _, _, epsilons in corpus.probe_entries(seed):
            xi = f"--xi={corpus.XI_RANGE[0]!r}:{corpus.XI_RANGE[1]!r}"
            argvs += [["probe", f"--epsilon={eps!r}", xi] for eps in epsilons]
    assert {argv[0] for argv in argvs} == set(_COMMANDS)
    for argv in argvs:
        plain = _plain_args(argv)
        assert plain is not None, argv
        assert _fields(plain) == _fields(_build_parser().parse_args(argv))
