"""Batch front end: problem files, CSV tables, comparisons, exit codes."""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import simroots
from simroots import SolverSettings
from simroots.basis import MAX_EXPONENT
from simroots.cli import load_problem, main
from simroots.errors import ProblemFileError

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

# {1, x, ..., x^29} with a 28-fold root at 0: from_roots' kappa =
# det([e_k; B]) overflows
KAPPA_OVERFLOW = {
    "basis": [{"kind": "constant"}] + [{"kind": "power", "s": s}
                                      for s in range(1, 30)],
    "polynomial": {"roots": [{"x": 0, "multiplicity": 28},
                             {"x": 0.5, "multiplicity": 1}]},
    "initial": [0.01, 0.6],
    "multiplicities": [28, 1],
    "methods": ["method3"],
}

# {1, x, ..., x^101} by coefficients with multiplicities (100, 1): method3
# reads derivatives of order 101, above basis.MAX_ORDER
ORDER_ABOVE_MAX = {
    "basis": [{"kind": "constant"}] + [{"kind": "power", "s": s}
                                      for s in range(1, 102)],
    "polynomial": {"coefficients": [1] + [0] * 100 + [1]},
    "initial": [0.01, 0.6],
    "multiplicities": [100, 1],
    "methods": ["method3"],
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


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data"


def test_demo_outputs_match_the_golden_files(tmp_path):
    # the golden files record one platform's libm; a change that has to
    # regenerate them says why in CHANGES.md
    demo = str(ROOT / "problems" / "demo.json")
    assert main(["run", demo, "--out", str(tmp_path)]) == 0
    assert main(["compare", demo, "--out", str(tmp_path)]) == 0
    names = ("demo.method3.csv", "demo.method13.csv", "demo.summary.txt",
             "demo.compare.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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

    # an integral float exponent, as basis.power takes it, normalizes to an int
    basis = [dict(b, s=2.0) if b["kind"] == "power" else b
             for b in REFERENCE_PROBLEM["basis"]]
    floated = _write_problem(tmp_path, dict(REFERENCE_PROBLEM, basis=basis),
                             "floated.json")
    assert main(["run", str(floated), "--dump-normalized"]) == 0
    assert capsys.readouterr().out == first

    # so do integral float multiplicities, as solve takes them
    roots = [dict(r, multiplicity=2.0)
             for r in REFERENCE_PROBLEM["polynomial"]["roots"]]
    floated = _write_problem(tmp_path, dict(
        REFERENCE_PROBLEM, multiplicities=[2.0, 2.0],
        polynomial={"roots": roots}), "floated-multiplicities.json")
    assert main(["run", str(floated), "--dump-normalized"]) == 0
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


def test_compare_exits_2_when_a_method_does_not_converge(tmp_path, capsys):
    doc = dict(REFERENCE_PROBLEM, settings={"max_iterations": 1})
    problem = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["compare", str(problem), "--out", str(out)]) == 2
    assert "method3: max_iterations after 1 iterations" in (
        capsys.readouterr().out)
    _, rows = _read_rows(out / "problem.compare.csv")
    # no two methods converged, so there is no agreement to report
    assert rows[-1] == ["agreement", "", "", "", ""]


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


def test_summary_says_why_order_estimates_are_unavailable(tmp_path):
    # starting on the true roots leaves no error above the rounding floor
    doc = dict(REFERENCE_PROBLEM, initial=[-0.5, 3.0], methods=["method3"])
    problem = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(problem), "--out", str(out)]) == 0
    summary = (out / "problem.summary.txt").read_text(encoding="utf-8")
    assert ("order estimates: unavailable (root 0 has only 0 errors above "
            "the rounding floor)") in summary


def test_summary_says_when_true_roots_and_approximations_differ_in_count(
        tmp_path):
    # two double roots, claimed as four simple ones
    doc = dict(REFERENCE_PROBLEM, initial=[-0.6, -0.4, 2.9, 3.1],
               multiplicities=[1, 1, 1, 1], methods=["method3"])
    problem = _write_problem(tmp_path, doc)
    out = tmp_path / "out"
    main(["run", str(problem), "--out", str(out)])
    summary = (out / "problem.summary.txt").read_text(encoding="utf-8")
    assert ("order estimates: unavailable (2 true roots for a history "
            "entry of 4 approximations)") in summary


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
        ("multiplicities", dict(REFERENCE_PROBLEM, multiplicities=[True, 2])),
        ("multiplicities", dict(REFERENCE_PROBLEM, multiplicities=["2", 2])),
        ("multiplicities", dict(REFERENCE_PROBLEM,
                                multiplicities=[2.5, 1.5])),
        ("methods", dict(REFERENCE_PROBLEM, methods=["method3", "newton"])),
        ("methods", dict(REFERENCE_PROBLEM, methods=["ehrlich", "method3"])),
        ("settings", dict(REFERENCE_PROBLEM, settings={"tol": 1e-9})),
        ("settings", dict(REFERENCE_PROBLEM, settings={"tolerance": -1e-9})),
        ("settings", dict(REFERENCE_PROBLEM, settings={"tolerance": True})),
        ("settings", dict(REFERENCE_PROBLEM, settings={"max_iterations": 0})),
        ("settings", dict(REFERENCE_PROBLEM, settings={"max_iterations": 2.5})),
        ("settings", dict(REFERENCE_PROBLEM, settings={"max_iterations": "9"})),
        ("basis", dict(REFERENCE_PROBLEM,
                       basis=[{"kind": "constant"}, {"kind": "cubic"}])),
        # a power table this long is never built
        ("basis", dict(REFERENCE_PROBLEM, basis=[
            {"kind": "constant"}, {"kind": "power", "s": 10 ** 30}])),
        ("basis", dict(REFERENCE_PROBLEM, basis=[
            {"kind": "constant"}, {"kind": "power", "s": MAX_EXPONENT + 1}])),
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
        # too deep to evaluate within the recursion limit
        ("basis", dict(
            REFERENCE_PROBLEM,
            basis=[{"kind": "constant"}, {"kind": "power", "s": 1},
                   {"kind": "expr", "tree": "x*x" + "+0*x" * 3000}],
            polynomial={"roots": [{"x": 1, "multiplicity": 1},
                                  {"x": 2, "multiplicity": 1}]},
            initial=[0.9, 2.1], multiplicities=[1, 1])),
        ("domain", dict(REFERENCE_PROBLEM, domain="open")),
        ("domain", dict(REFERENCE_PROBLEM, domain=[1, None, 2])),
        ("domain", dict(REFERENCE_PROBLEM, domain=[1, 0])),
        ("domain", dict(REFERENCE_PROBLEM, domain=["0", 1])),
        ("domain", dict(REFERENCE_PROBLEM, domain=[None, float("inf")])),
        ("basis", dict(REFERENCE_PROBLEM, basis=[{"kind": "constant"}, 3])),
        ("basis", dict(REFERENCE_PROBLEM, basis=[
            {"kind": "constant"}, {"s": 1}])),
        ("basis", dict(REFERENCE_PROBLEM, basis=[
            {"kind": "constant"}, {"kind": "expr"}])),
        ("basis", dict(REFERENCE_PROBLEM, basis=[{"kind": "constant"}])),
        ("basis", dict(REFERENCE_PROBLEM, basis={"kind": "constant"})),
        ("basis", dict(REFERENCE_PROBLEM, basis=[
            {"kind": "constant"}, {"kind": "power", "s": 1},
            {"kind": "sine", "omega": True}, {"kind": "power", "s": 3},
            {"kind": "power", "s": 4}])),
        ("basis", dict(REFERENCE_PROBLEM, basis=[
            {"kind": "constant"}, {"kind": "power", "s": 1},
            {"kind": "cosine"}, {"kind": "power", "s": 3},
            {"kind": "power", "s": 4}])),
        ("basis", dict(REFERENCE_PROBLEM, basis=[
            {"kind": "constant"}, {"kind": "power", "s": 1},
            {"kind": "exponential", "lambda": "3"}, {"kind": "power", "s": 3},
            {"kind": "power", "s": 4}])),
        # a kind that is not a string names no member
        ("basis", dict(REFERENCE_PROBLEM, basis=[
            {"kind": "constant"}, {"kind": 2}])),
        # the problem file is not an object, so no field is named
        ("must hold a JSON object", [REFERENCE_PROBLEM]),
        ("multiplicities", dict(REFERENCE_PROBLEM, multiplicities=2)),
        ("multiplicities", dict(REFERENCE_PROBLEM, multiplicities=[])),
        ("multiplicities", dict(REFERENCE_PROBLEM, multiplicities=[1, 2])),
        ("initial", dict(REFERENCE_PROBLEM, initial=[-0.4, "2.8"])),
        ("initial", dict(REFERENCE_PROBLEM, initial=[-0.4, True])),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "coefficients": [1, 1, 1, 1]})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "coefficients": [0, 0, 0, 0, 0]})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "coefficients": [1, 1, True, 1, 1]})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "coefficients": [1, 1, 10 ** 400, 1, 1]})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={"roots": []})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "roots": [{"x": -0.5}, {"x": 3, "multiplicity": 2}]})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "roots": [{"x": "-0.5", "multiplicity": 2},
                      {"x": 3, "multiplicity": 2}]})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "roots": [{"x": float("nan"), "multiplicity": 2},
                      {"x": 3, "multiplicity": 2}]})),
        ("polynomial", dict(REFERENCE_PROBLEM, polynomial={
            "roots": [{"x": 10 ** 400, "multiplicity": 2},
                      {"x": 3, "multiplicity": 2}]})),
        ("methods", dict(REFERENCE_PROBLEM, methods=[])),
        ("methods", dict(REFERENCE_PROBLEM, methods=["method3", "method3"])),
        ("settings", dict(REFERENCE_PROBLEM, settings="fast")),
    ]
    for field, doc in cases:
        problem = _write_problem(tmp_path, doc)
        assert main(["run", str(problem), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err


def test_coefficients_times_a_power_of_two_give_the_same_verdict(tmp_path,
                                                                 capsys):
    # a (3, 2, 2, 1) monomial problem whose method13 solve holds a point
    # 0.159 from its roots; its coefficients times 2^-30 once passed the
    # residual check there, since the bound did not scale with them
    from test_metamorphic import MONOMIAL

    f, initial, multiplicities = MONOMIAL[9]
    basis = [{"kind": "constant"}] + [{"kind": "power", "s": s}
                                      for s in range(1, len(f.coefficients))]
    verdicts = []
    for name, c in (("unscaled", 1.0), ("scaled", 2.0 ** -30)):
        problem = _write_problem(tmp_path, dict(
            REFERENCE_PROBLEM, basis=basis,
            polynomial={"coefficients": (c * f.coefficients).tolist()},
            initial=list(initial), multiplicities=list(multiplicities)),
            name + ".json")
        code = main(["run", str(problem), "--out", str(tmp_path)])
        summary = (tmp_path / (name + ".summary.txt")).read_text()
        verdicts.append((code, [line for line in summary.splitlines()
                                if "status=" in line]))
    capsys.readouterr()
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] == 2
    assert "method13: status=stalled iterations=7" in verdicts[0][1]


@pytest.mark.parametrize("kind", [[None, None], {}])
def test_a_kind_that_cannot_be_looked_up_is_refused(kind, tmp_path, capsys):
    # an array or object kind is unhashable: it must not reach a lookup
    problem = _write_problem(tmp_path, dict(REFERENCE_PROBLEM, basis=[
        {"kind": "constant"}, {"kind": kind}]))
    assert main(["run", str(problem), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: field 'basis': entry 1 must be an object with a "
                   "'kind' string"]


def test_unreadable_and_malformed_files(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "cannot read" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert main(["run", str(broken)]) == 1
    assert "invalid JSON" in capsys.readouterr().err

    # json.loads raises RecursionError on nesting this deep
    nested = tmp_path / "nested.json"
    nested.write_text('{"a": %s%s}' % ("[" * 1000, "]" * 1000),
                      encoding="utf-8")
    with pytest.raises(ProblemFileError, match="invalid JSON"):
        load_problem(nested)
    assert main(["run", str(nested)]) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON")


def test_an_unwritable_output_is_one_error_line(tmp_path, capsys):
    problem = _write_problem(tmp_path, REFERENCE_PROBLEM)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    # an output directory that is a file, then output files that are
    # directories
    blocked = tmp_path / "blocked"
    for name in ("method13.csv", "compare.csv"):
        (blocked / ("problem." + name)).mkdir(parents=True)
    for out in (taken, blocked):
        for command in ("run", "compare"):
            assert main([command, str(problem), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err


def test_basis_refusals_name_the_entry(tmp_path):
    # the constructor's own refusal, after the index of the entry
    for member, message in [
            ({"kind": "power", "s": 2.5}, "power exponent"),
            ({"kind": "sine", "omega": True}, "omega must be a finite"),
            ({"kind": "cosine", "omega": float("nan")}, "omega must be a"),
            ({"kind": "exponential", "lambda": "3"}, "rate must be a finite"),
            ({"kind": "expr", "tree": "x**2"}, "unexpected character")]:
        basis = list(REFERENCE_PROBLEM["basis"])
        basis[2] = member
        path = _write_problem(tmp_path, dict(REFERENCE_PROBLEM, basis=basis))
        with pytest.raises(ProblemFileError,
                           match="^field 'basis': entry 2: " + message):
            load_problem(path)


def test_normalized_coefficients_are_floats(tmp_path):
    doc = dict(REFERENCE_PROBLEM, polynomial={
        "coefficients": [1, -2, 0.5, 3, 10 ** 20]})
    problem = load_problem(_write_problem(tmp_path, doc))
    coefficients = problem.normalized["polynomial"]["coefficients"]
    assert coefficients == [1.0, -2.0, 0.5, 3.0, 1e20]
    assert all(type(c) is float for c in coefficients)


def test_load_problem_returns_the_parsed_pieces(tmp_path):
    problem = load_problem(_write_problem(tmp_path, REFERENCE_PROBLEM))
    assert problem.initial == [-0.4, 2.8]
    assert problem.multiplicities == [2, 2]
    assert problem.methods == ["method3", "method13"]
    assert problem.true_roots.nodes == ((-0.5, 2), (3.0, 2))
    assert len(problem.system) == 5
    assert problem.settings == {
        m: SolverSettings(m, tolerance=1e-11, max_iterations=50)
        for m in ("method3", "method13")}


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


@pytest.mark.parametrize("doc, message", [
    (KAPPA_OVERFLOW, "field 'polynomial': kappa = det([e_29; B]) / c_29 is "),
    (ORDER_ABOVE_MAX, "field 'methods': method3 needs derivatives of order "
                      "101 but the basis caps them at 100"),
], ids=["kappa", "order"])
def test_validate_only_and_run_refuse_the_same_files(doc, message, tmp_path,
                                                     capsys):
    problem = _write_problem(tmp_path, doc)
    for flags in (["--validate-only"], ["--out", str(tmp_path / "out")]):
        assert main(["run", str(problem)] + flags) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: " + message), err


FUZZ_DOCUMENTS = 1200

# what a fuzzed field of a problem file becomes
FUZZ_VALUES = [
    None, True, False, 0, 1, -1, 2, 2.5, -0.5, 3, 1e308, -1e308, 10 ** 400,
    "", "x", "2", "method3", "ehrlich", "power", [], [None], [1, 2], [2, 2],
    [-0.4, 2.8], [[1]], {}, {"kind": "power", "s": 3},
    {"kind": "expr", "tree": "x*x"}, {"kind": "sine"}, {"kind": ["power"]},
    {"x": 3, "multiplicity": 2}, {"tolerance": 0},
]


def _fuzzed(rng, doc):
    """doc with one or two fields, each at a random depth, set to one of
    FUZZ_VALUES."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 2))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (
                parent is None or rng.random() < 0.6):
            key = (rng.choice(sorted(node)) if isinstance(node, dict)
                   else rng.randrange(len(node)))
            parent, node = node, node[key]
        if parent is not None:
            parent[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return doc


def test_fuzzed_problem_files_end_in_an_exit_code(tmp_path, capsys):
    # a seeded mutator over the demo problem, after the files above: every
    # document exits 0, 1 or 2 without a traceback, --validate-only refuses
    # what run refuses, a refusal is one stderr line, and a normalized dump
    # loads to the same dump
    rng = random.Random(1)
    docs = [KAPPA_OVERFLOW, ORDER_ABOVE_MAX, REFERENCE_PROBLEM] + [
        _fuzzed(rng, REFERENCE_PROBLEM) for _ in range(FUZZ_DOCUMENTS)]
    for doc in docs:
        problem = _write_problem(tmp_path, doc)
        codes = []
        for flags in (["--validate-only"], ["--out", str(tmp_path / "out")],
                      ["--dump-normalized"]):
            codes.append(main(["run", str(problem)] + flags))
            out, err = capsys.readouterr()
            assert err.count("\n") <= (codes[-1] == 1), (doc, err)
        assert codes[1] in (0, 1, 2), doc
        assert (codes[0], codes[2]) == ((1, 1) if codes[1] == 1 else (0, 0))
        if codes[2] == 0:
            dumped = _write_problem(tmp_path, json.loads(out), "dump.json")
            assert main(["run", str(dumped), "--dump-normalized"]) == 0
            assert capsys.readouterr().out == out, doc
