"""The package's public surface, pinned so that adding or removing an
export, a solver setting or a solve status is a visible one-line edit
here."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import simroots

PUBLIC = [
    "BasisFunction",
    "BasisSystem",
    "DegenerateDenominator",
    "DimensionMismatch",
    "DivisionBySingularJet",
    "DomainError",
    "ExpressionParseError",
    "GeneralizedPolynomial",
    "InsufficientHistory",
    "InvalidConfiguration",
    "IterateCollision",
    "IterationState",
    "OrderEstimate",
    "ProblemFileError",
    "RootConfiguration",
    "SimrootsError",
    "SingularNodeSystem",
    "SolveReport",
    "SolveStatus",
    "SolverSettings",
    "__version__",
    "build_matrix",
    "check_derivative_congruence",
    "constant",
    "cosine",
    "determinant",
    "estimate_order",
    "eval_phi",
    "eval_psi",
    "exponential",
    "expression",
    "finite_difference_derivative",
    "first_row_cofactors",
    "from_roots",
    "inverse_quadratic",
    "is_monomial_basis",
    "jet_propagate",
    "make_reference_basis",
    "parse_expression",
    "power",
    "q_derivative",
    "q_value",
    "richardson_derivative",
    "sine",
    "single_correction",
    "solve",
]


def test_exports_are_pinned_and_resolve():
    assert sorted(simroots.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(simroots, name), name


def test_solver_settings_are_the_three_the_cli_sets():
    names = [field.name for field in dataclasses.fields(simroots.SolverSettings)]
    assert names == ["method", "tolerance", "max_iterations"]


def test_solve_statuses_are_pinned():
    assert [status.value for status in simroots.SolveStatus] == [
        "converged", "max_iterations", "stalled", "degenerate_denominator",
        "iterate_collision", "domain_escape"]


def test_a_fresh_import_loads_no_thread_pool():
    # every sweep runs its corrections in turn, so neither the package nor
    # the CLI pays for concurrent.futures (and its logging and queue) at
    # import; the child imports the same simroots as this process
    package_root = str(Path(simroots.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    for module in ("simroots", "simroots.cli"):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, %s; "
             "print('concurrent.futures' in sys.modules)" % module],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n", module
