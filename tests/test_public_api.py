"""The package's public surface, pinned so that adding or removing an
export, or a solver setting, is a visible one-line edit here."""

import dataclasses

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
    "OrderExceedsCap",
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
    "ehrlich_step",
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
    "parallel_corrections",
    "parse_expression",
    "power",
    "q_derivative",
    "q_value",
    "richardson_derivative",
    "sine",
    "single_correction",
    "solve",
    "step_method3",
]


def test_exports_are_pinned_and_resolve():
    assert sorted(simroots.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(simroots, name), name


def test_solver_settings_are_the_three_the_cli_sets():
    names = [field.name for field in dataclasses.fields(simroots.SolverSettings)]
    assert names == ["method", "tolerance", "max_iterations"]
