"""Batch front end: problem files, CSV tables, comparisons, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import simroots
from simroots.cli import load_problem, main

REFERENCE_PROBLEM = {
    "basis": [
        {"kind": "constant"},
        {"kind": "power", "s": 2},
        {"kind": "sine", "omega": 3},
        {"kind": "exponential", "lambda": -1},
        {"kind": "inverse-quadratic"},
    ],
    "polynomial": {
        "roots": [
            {"x": -0.5, "multiplicity": 2},
            {"x": 3, "multiplicity": 2},
        ]
    },
    "initial": [-0.4, 2.8],
    "multiplicities": [2, 2],
    "methods": ["method3", "method13"],
    "settings": {"tolerance": 1e-11, "max_iterations": 50},
}

METHOD3_CELLS = (
    (-0.5001904855, 2.9812593584),
    (-0.5000000001, 2.9999296686),
    (-0.5000000000, 3.0000000000),
)


def _write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_run_reproduces_the_reference_table(tmp_path, capsys):
    problem = _write_problem(tmp_path, REFERENCE_PROBLEM)
    out = tmp_path / "out"
    assert main(["run", str(problem), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "method3: converged after 4 iterations" in captured.out
    assert "method13: converged after 5 iterations" in captured.out

    header, rows = _read_rows(out / "problem.method3.csv")
    assert header == "k,x_1,x_2,correction_max"
    assert rows[0][0] == "0"
    assert rows[0][1] == "-0.4"
    assert rows[0][2] == "2.8"
    assert rows[0][3] == ""
    for k, cells in enumerate(METHOD3_CELLS, start=1):
        assert rows[k][0] == str(k)
        for got, expected in zip(rows[k][1:3], cells):
            assert float(got) == pytest.approx(expected, abs=1e-8)
        assert float(rows[k][3]) > 0.0

    header, rows = _read_rows(out / "problem.method13.csv")
    assert header == "k,x_1,x_2,correction_max"
    assert float(rows[1][1]) == pytest.approx(-0.5021054, abs=5e-8)
    assert float(rows[1][2]) == pytest.approx(2.9677106, abs=5e-8)

    summary = (out / "problem.summary.txt").read_text(encoding="utf-8")
    assert "method3: status=converged iterations=4" in summary
    assert "method13: status=converged iterations=5" in summary
    assert "order estimates:" in summary


def test_reruns_are_byte_identical(tmp_path):
    problem = _write_problem(tmp_path, REFERENCE_PROBLEM)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["run", str(problem), "--out", str(first)]) == 0
    assert main(["run", str(problem), "--out", str(second)]) == 0
    for name in ("problem.method3.csv", "problem.method13.csv",
                 "problem.summary.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_validate_only(tmp_path, capsys):
    problem = _write_problem(tmp_path, REFERENCE_PROBLEM)
    out = tmp_path / "out"
    assert main(["run", str(problem), "--out", str(out),
                 "--validate-only"]) == 0
    assert "valid" in capsys.readouterr().out
    assert not out.exists()


def test_dump_normalized_round_trip(tmp_path, capsys):
    problem = _write_problem(tmp_path, REFERENCE_PROBLEM)
    assert main(["run", str(problem), "--dump-normalized"]) == 0
    first = capsys.readouterr().out
    doc = json.loads(first)
    assert doc["settings"] == {"tolerance": 1e-11, "max_iterations": 50}
    assert doc["domain"] == [None, None]

    # feeding the canonical form back must reproduce it byte for byte
    again = _write_problem(tmp_path, doc, "canonical.json")
    assert main(["run", str(again), "--dump-normalized"]) == 0
    assert capsys.readouterr().out == first


def test_compare_merges_methods_and_reports_agreement(tmp_path):
    problem = _write_problem(tmp_path, REFERENCE_PROBLEM)
    out = tmp_path / "out"
    assert main(["compare", str(problem), "--out", str(out)]) == 0
    header, rows = _read_rows(out / "problem.compare.csv")
    assert header == "k,x_1_method3,x_2_method3,x_1_method13,x_2_method13"
    assert rows[0][1:] == ["-0.4", "2.8", "-0.4", "2.8"]
    # method3 stops one sweep earlier; its cells go empty on the last row
    assert rows[-2][1] == ""
    assert rows[-2][3] != ""
    assert rows[-1][0] == "agreement"
    assert float(rows[-1][1]) < 1e-9


def test_compare_needs_at_least_two_methods(tmp_path, capsys):
    doc = dict(REFERENCE_PROBLEM, methods=["method3"])
    problem = _write_problem(tmp_path, doc)
    assert main(["compare", str(problem), "--out", str(tmp_path)]) == 1
    assert "methods" in capsys.readouterr().err


def test_compare_classical_against_generalized(tmp_path):
    doc = {
        "basis": [
            {"kind": "constant"},
            {"kind": "power", "s": 1},
            {"kind": "power", "s": 2},
            {"kind": "power", "s": 3},
        ],
        "polynomial": {"roots": [
            {"x": 0, "multiplicity": 1},
            {"x": 1, "multiplicity": 1},
            {"x": 2, "multiplicity": 1},
        ]},
        "initial": [-0.2, 1.15, 2.3],
        "multiplicities": [1, 1, 1],
        "methods": ["method3", "ehrlich"],
    }
    problem = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", str(problem), "--out", str(out)]) == 0
    _, rows = _read_rows(out / "problem.compare.csv")
    assert rows[-1][0] == "agreement"
    assert float(rows[-1][1]) < 1e-9


def test_coefficient_polynomials_run_without_root_records(tmp_path, capsys):
    doc = {
        "basis": [
            {"kind": "constant"},
            {"kind": "power", "s": 1},
            {"kind": "power", "s": 2},
        ],
        "polynomial": {"coefficients": [-1.0, 0.0, 1.0]},
        "initial": [0.9, -1.2],
        "multiplicities": [1, 1],
        "methods": ["method3"],
    }
    problem = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(problem), "--out", str(out)]) == 0
    _, rows = _read_rows(out / "problem.method3.csv")
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-11)
    assert float(rows[-1][2]) == pytest.approx(-1.0, abs=1e-11)
    summary = (out / "problem.summary.txt").read_text(encoding="utf-8")
    assert "order estimates: unavailable (true roots not given)" in summary


def test_expression_basis_matches_the_builtin_member(tmp_path):
    builtin = _write_problem(tmp_path, REFERENCE_PROBLEM, "builtin.json")
    doc = json.loads(json.dumps(REFERENCE_PROBLEM))
    doc["basis"][4] = {"kind": "expr", "tree": "1/(1+x*x)"}
    doc["methods"] = ["method3"]
    spelled = _write_problem(tmp_path, doc, "spelled.json")

    out = tmp_path / "out"
    assert main(["run", str(builtin), "--out", str(out)]) == 0
    assert main(["run", str(spelled), "--out", str(out)]) == 0
    _, base_rows = _read_rows(out / "builtin.method3.csv")
    _, expr_rows = _read_rows(out / "spelled.method3.csv")
    for base, expr in zip(base_rows[1][1:3], expr_rows[1][1:3]):
        assert float(base) == pytest.approx(float(expr), abs=1e-9)


def test_settings_overrides_change_the_outcome(tmp_path, capsys):
    doc = json.loads(json.dumps(REFERENCE_PROBLEM))
    doc["settings"] = {"tolerance": 1e-30, "max_iterations": 2}
    doc["methods"] = ["method3"]
    problem = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(problem), "--out", str(out)]) == 2
    assert "max_iterations" in capsys.readouterr().out
    _, rows = _read_rows(out / "problem.method3.csv")
    assert len(rows) == 3


def test_rejection_messages_name_the_field(tmp_path, capsys):
    cases = [
        ("multiplicities", dict(REFERENCE_PROBLEM, multiplicities=[2, 0])),
        ("multiplicities", dict(REFERENCE_PROBLEM, multiplicities=[2, 2, 2])),
        ("methods", dict(REFERENCE_PROBLEM, methods=["method3", "newton"])),
        ("methods", dict(REFERENCE_PROBLEM, methods=["ehrlich", "method3"])),
        ("settings", dict(REFERENCE_PROBLEM, settings={"tol": 1e-9})),
        ("basis", dict(REFERENCE_PROBLEM,
                       basis=[{"kind": "constant"}, {"kind": "cubic"}])),
        ("initial", dict(REFERENCE_PROBLEM, initial=[-0.4])),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "coefficients": [float("nan"), 1, 1, 1, 1]})),
        ("initial", dict(REFERENCE_PROBLEM, initial=[float("inf"), 2.8])),
        ("initial", dict(REFERENCE_PROBLEM, initial=[10 ** 400, 2.8])),
        # exp(800 x) overflows while the node block is built
        ("polynomial", dict(
            REFERENCE_PROBLEM,
            basis=[{"kind": "constant"}, {"kind": "power", "s": 1},
                   {"kind": "exponential", "lambda": 800}],
            polynomial={"roots": [{"x": 1, "multiplicity": 1},
                                  {"x": 2, "multiplicity": 1}]},
            initial=[0.9, 2.1], multiplicities=[1, 1])),
        # sin(3 x) and cos(3 x) at a root of 1e308 overflow their argument
        ("polynomial", dict(
            REFERENCE_PROBLEM,
            basis=[{"kind": "constant"}, {"kind": "sine", "omega": 3},
                   {"kind": "cosine", "omega": 3}],
            polynomial={"roots": [{"x": 1e308, "multiplicity": 1},
                                  {"x": 0.3, "multiplicity": 1}]},
            initial=[1e308, 0.35], multiplicities=[1, 1])),
    ]
    for field, doc in cases:
        problem = _write_problem(tmp_path, doc)
        assert main(["run", str(problem), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err


def test_unreadable_and_malformed_files(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert main(["run", str(broken)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_load_problem_returns_the_parsed_pieces(tmp_path):
    problem = load_problem(_write_problem(tmp_path, REFERENCE_PROBLEM))
    assert problem.initial == [-0.4, 2.8]
    assert problem.multiplicities == [2, 2]
    assert problem.methods == ["method3", "method13"]
    assert problem.true_roots.nodes == ((-0.5, 2), (3.0, 2))
    assert len(problem.system) == 5


def test_module_entry_point(tmp_path):
    problem = _write_problem(tmp_path, REFERENCE_PROBLEM)
    # the child imports the same simroots as this process, installed or not
    package_root = str(Path(simroots.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "simroots.cli", "run", str(problem),
         "--validate-only"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "valid" in result.stdout
