"""Solver behavior: steps, guards, reports, and invariances.

The worked example used throughout: the reference basis
{1, x^2, sin 3x, exp(-x), 1/(1+x^2)} with double roots at -0.5 and 3,
started from (-0.4, 2.8).  The expected iterate cells are frozen
reference values for this configuration.
"""

import math
from collections import Counter

import numpy as np
import pytest

from simroots import (
    DegenerateDenominator,
    DimensionMismatch,
    GeneralizedPolynomial,
    InvalidConfiguration,
    IterateCollision,
    IterationState,
    RootConfiguration,
    SolverSettings,
    SolveStatus,
    ehrlich_step,
    from_roots,
    is_monomial_basis,
    make_reference_basis,
    monomial_shortcut,
    parallel_corrections,
    q_derivative,
    q_value,
    single_correction,
    solve,
    step_method3,
    step_method13,
)
from simroots import solver
from simroots.basis import (BasisSystem, constant, cosine, exponential,
                            expression, power, sine)
from simroots.confluent import _node_block, node_null_vector
from simroots.solver import METHODS, _compute_corrections, _step

REFERENCE_ROOTS = RootConfiguration(((-0.5, 2), (3.0, 2)))
REFERENCE_INITIAL = (-0.4, 2.8)
REFERENCE_MULTIPLICITIES = (2, 2)

# iterate cells for the worked example, method3 rows k=1..3
METHOD3_CELLS = (
    (-0.5001904855, 2.9812593584),
    (-0.5000000001, 2.9999296686),
    (-0.5000000000, 3.0000000000),
)
# method13 rows k=1..3 with per-cell half-ulp-of-last-digit tolerances
METHOD13_CELLS = (
    ((-0.5021054, 5e-8), (2.9677106, 5e-8)),
    ((-0.500000081, 5e-10), (2.99935, 5e-6)),
    ((-0.5000000000, 5e-11), (2.9999999915, 5e-11)),
)


def _monomials(count):
    members = [constant()] + [power(s) for s in range(1, count)]
    return BasisSystem(tuple(members))


@pytest.fixture(scope="module")
def reference_problem():
    system = make_reference_basis()
    f = from_roots(system, REFERENCE_ROOTS)
    return system, f


def test_reference_example_method3_iterates(reference_problem):
    _, f = reference_problem
    report = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES)
    assert report.status is SolveStatus.converged
    assert report.iterations_used == 4
    assert len(report.history) == report.iterations_used + 1
    for k, cells in enumerate(METHOD3_CELLS, start=1):
        got = report.history[k].approximations
        assert got == pytest.approx(cells, abs=1e-8)


def test_reference_example_method13_iterates(reference_problem):
    _, f = reference_problem
    settings = SolverSettings(method="method13")
    report = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES, settings)
    assert report.status is SolveStatus.converged
    assert report.iterations_used == 5
    for k, cells in enumerate(METHOD13_CELLS, start=1):
        got = report.history[k].approximations
        for value, (expected, tolerance) in zip(got, cells):
            assert value == pytest.approx(expected, abs=tolerance)


def test_history_bookkeeping(reference_problem):
    _, f = reference_problem
    report = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES)
    ks = [entry.k for entry in report.history]
    assert ks == list(range(len(report.history)))
    assert report.history[0].last_corrections is None
    assert np.array_equal(report.history[0].approximations,
                          np.array(REFERENCE_INITIAL))
    for entry in report.history[1:]:
        assert entry.last_corrections is not None
    assert len(report.final_residuals) == sum(REFERENCE_MULTIPLICITIES)
    assert all(r < 1e-8 for r in report.final_residuals)


def test_fixed_point_at_exact_roots(reference_problem):
    _, f = reference_problem
    report = solve(f, (-0.5, 3.0), REFERENCE_MULTIPLICITIES)
    assert report.status is SolveStatus.converged
    assert report.iterations_used == 1
    final = report.history[-1]
    assert float(np.max(np.abs(final.last_corrections))) < 1e-12
    for x, start in zip(final.approximations, (-0.5, 3.0)):
        assert abs(x - start) < 1e-12 * max(1.0, abs(start))


def test_simple_roots_make_both_methods_identical():
    system = _monomials(4)
    f = from_roots(system, RootConfiguration(((-1.0, 1), (0.5, 1), (2.0, 1))))
    state = IterationState(np.array([-1.1, 0.6, 1.9]), np.array([1, 1, 1]))
    a = step_method3(f, state)
    b = step_method13(f, state)
    assert np.array_equal(a, b)


def test_monomial_shortcut_small_cases():
    state = IterationState(np.array([0.0, 1.0]), np.array([1, 1]))
    assert monomial_shortcut(state, 0) == -1.0
    assert monomial_shortcut(state, 1) == 1.0
    state = IterationState(np.array([0.0, 1.0, 4.0]), np.array([2, 1, 3]))
    assert monomial_shortcut(state, 1) == pytest.approx(2.0 - 1.0, rel=1e-15)
    assert monomial_shortcut(state, 2) == pytest.approx(0.5 + 1.0 / 3.0,
                                                        rel=1e-15)


def test_monomial_shortcut_collision_guard():
    state = IterationState(np.array([0.5, 0.5 + 1e-14]), np.array([1, 1]))
    with pytest.raises(IterateCollision):
        monomial_shortcut(state, 0)


def test_vectorized_snapshot_checks_match_the_loops():
    # the pairwise sums and the collision check are formed on arrays; the
    # per-pair loops they replaced stay here as the reference
    rng = np.random.default_rng(7)
    for m in (1, 2, 5, 20):
        state = IterationState(rng.uniform(-2.0, 2.0, m), rng.integers(1, 4, m))
        xs, mult = state.approximations, state.multiplicities
        for i in range(m):
            loop = math.fsum(mult[j] / (xs[i] - xs[j]) for j in range(m) if j != i)
            assert monomial_shortcut(state, i) == loop
    # pairs (1, 3) and (2, 4) collide; the loop names the first in row order
    state = IterationState([1.0, 3.0, 2.0, 3.0 + 1e-13, 2.0 + 1e-13], [1] * 5)
    with pytest.raises(IterateCollision, match="approximations 1 and 3 "):
        monomial_shortcut(state, 0)


def test_shortcut_matches_determinant_ratio():
    system = _monomials(6)
    state = IterationState(np.array([-0.7, 0.25, 1.0]), np.array([2, 1, 2]))
    cfg = state.configuration()
    for i in range(3):
        x = float(state.approximations[i])
        alpha = int(state.multiplicities[i])
        ratio = q_derivative(system, cfg, i, x) / (
            (alpha + 1.0) * q_value(system, cfg, i, x))
        assert monomial_shortcut(state, i) == pytest.approx(ratio, rel=1e-9)


def test_is_monomial_basis():
    assert is_monomial_basis(_monomials(5))
    assert not is_monomial_basis(make_reference_basis())
    shuffled = BasisSystem((power(1), constant(), power(2)))
    assert not is_monomial_basis(shuffled)


def test_ehrlich_on_quadratic():
    system = _monomials(3)
    f = from_roots(system, RootConfiguration(((1.0, 1), (-1.0, 1))))
    settings = SolverSettings(method="ehrlich")
    report = solve(f, (0.9, -1.2), (1, 1), settings)
    assert report.status is SolveStatus.converged
    final = report.history[-1].approximations
    assert final == pytest.approx((1.0, -1.0), abs=1e-12)

    state = IterationState(np.array([0.9, -1.2]), np.array([1, 1]))
    classical = ehrlich_step(f, state)
    generalized = step_method3(f, state)
    assert classical == pytest.approx(generalized, rel=1e-12)


def test_ehrlich_needs_monomial_basis(reference_problem):
    _, f = reference_problem
    state = IterationState(np.array(REFERENCE_INITIAL),
                           np.array(REFERENCE_MULTIPLICITIES))
    with pytest.raises(InvalidConfiguration):
        ehrlich_step(f, state)
    with pytest.raises(InvalidConfiguration):
        solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES,
              SolverSettings(method="ehrlich"))


def test_collision_stops_the_solve():
    system = _monomials(3)
    f = from_roots(system, RootConfiguration(((1.0, 1), (-1.0, 1))))
    report = solve(f, (0.5, 0.5 + 1e-14), (1, 1))
    assert report.status is SolveStatus.iterate_collision
    assert report.iterations_used == 0
    assert len(report.history) == 1


def test_degenerate_denominator_is_reported(reference_problem):
    _, f = reference_problem
    report = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES,
                   SolverSettings(denominator_floor=1.0))
    assert report.status is SolveStatus.degenerate_denominator
    assert report.iterations_used == 0


def test_rank_guard_reports_a_singular_node_block():
    # the node rows of {1, x^2, x^4} at 1 and -1 coincide, so the node
    # block has rank 1 and its null vector is an arbitrary direction
    system = BasisSystem((constant(), power(2), power(4)))
    f = GeneralizedPolynomial(system, np.array([-2.0, 1.0, 0.5]))
    for method in ("method3", "method13"):
        report = solve(f, (1.0, -1.0), (1, 1), SolverSettings(method=method))
        assert report.status is SolveStatus.degenerate_denominator
        assert report.iterations_used == 0


def test_rank_guard_ignores_the_scale_of_a_basis_function():
    # exp(30 x) reaches 3e19 on the nodes beside entries of order 1; the
    # block is well posed, and the guard must not read it as singular
    system = BasisSystem((constant(), power(1), power(2), exponential(30.0)))
    roots = RootConfiguration(((0.5, 1), (1.0, 1), (1.5, 1)))
    coefficients, _ = node_null_vector(_node_block(system, roots))
    f = GeneralizedPolynomial(system, coefficients)
    for method in ("method3", "method13"):
        report = solve(f, (0.55, 0.95, 1.45), (1, 1, 1),
                       SolverSettings(method=method))
        assert report.status is SolveStatus.converged
        final = report.history[-1].approximations
        # the rounded coefficients move the root at 1.5 by about 6e-5
        assert final == pytest.approx(roots.locations, abs=1e-4)
        for x in final:
            assert abs(f.eval(x)) <= 1e-12 * f.term_magnitude(x)


def test_overflow_lands_in_domain_escape():
    # exp(50 x) raises OverflowError at x=20, while the expression x*x*x
    # overflows to inf at x=1e200 without raising; at x=1e80 the terms of
    # f are -1e80, inf and -inf, whose sum used to raise ValueError
    system = BasisSystem((constant(), power(1), exponential(50.0)))
    raising = from_roots(system, RootConfiguration(((0.0, 1), (0.01, 1))))
    system = BasisSystem((expression("1"), expression("x*x*x"),
                          expression("exp(-x*x)"), expression("x")))
    infinite = GeneralizedPolynomial(system, np.array([1.0, -1.0, 0.5, 0.3]))
    system = BasisSystem((expression("1"), expression("x"),
                          expression("x*x*x*x*x"), expression("x*x*x*x*x*x")))
    opposed = GeneralizedPolynomial(system, np.array([1.0, -1.0, 1.0, -1.0]))
    for f, initial in ((raising, (20.0, 0.3)), (infinite, (1e200, 1.0, -1.0)),
                       (opposed, (1e80, 0.5, -0.5))):
        for method in ("method3", "method13"):
            report = solve(f, initial, (1,) * len(initial),
                           SolverSettings(method=method))
            assert report.status is SolveStatus.domain_escape
            assert report.iterations_used == 0
            assert report.final_residuals[0] == float("inf")


def test_sine_of_an_overflowed_argument_lands_in_domain_escape():
    # x*x*x overflows to inf at 1e200, and math.sin(inf) raised ValueError
    system = BasisSystem((expression("1"), expression("x"),
                          expression("sin(x*x*x)")))
    f = GeneralizedPolynomial(system, np.array([1.0, -1.0, 0.5]))
    for method in ("method3", "method13"):
        report = solve(f, (1e200, 0.5), (1, 1), SolverSettings(method=method))
        assert report.status is SolveStatus.domain_escape
        assert report.iterations_used == 0
        assert report.final_residuals[0] == float("inf")


def test_domain_escape():
    system = BasisSystem((constant(), power(1), power(2)), (-1.0, 1.0))
    f = GeneralizedPolynomial(system, np.array([-4.0, 0.0, 1.0]))

    report = solve(f, (1.5, 0.0), (1, 1))
    assert report.status is SolveStatus.domain_escape
    assert report.iterations_used == 0

    report = solve(f, (0.5, -0.5), (1, 1))
    assert report.status is SolveStatus.domain_escape
    assert report.iterations_used >= 1

    # a pole of an expression member is outside its domain
    system = BasisSystem((constant(), power(1), expression("1/x")))
    f = from_roots(system, RootConfiguration(((0.5, 1), (2.0, 1))))
    report = solve(f, (0.0, 1.0), (1, 1))
    assert report.status is SolveStatus.domain_escape
    assert report.iterations_used == 0
    assert report.final_residuals[0] == float("inf")


def test_derivative_orders_above_the_cap_are_rejected():
    # a 9-fold root needs order 10 from members capped at 8
    system = BasisSystem(tuple(expression("x^%d" % s) for s in range(10)))
    f = GeneralizedPolynomial(system, np.ones(10))
    for method in ("method3", "method13"):
        with pytest.raises(InvalidConfiguration):
            solve(f, (0.3,), (9,), SolverSettings(method=method))


def test_max_iterations(reference_problem):
    _, f = reference_problem
    report = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES,
                   SolverSettings(tolerance=1e-30, max_iterations=2))
    assert report.status is SolveStatus.max_iterations
    assert report.iterations_used == 2
    assert len(report.history) == 3


def test_wrong_multiplicity_claim_never_converges():
    system = _monomials(4)
    f = from_roots(system, RootConfiguration(((0.0, 1), (1.0, 1), (2.0, 1))))
    # x = 0 is a simple root claimed double: the residual check must
    # refuse convergence even though the corrections are zero there
    report = solve(f, (0.0, 1.0), (2, 1),
                   SolverSettings(max_iterations=5))
    assert report.status is SolveStatus.max_iterations
    assert report.history[-1].approximations == pytest.approx((0.0, 1.0))


def test_scale_invariance_of_a_single_step(reference_problem):
    system, f = reference_problem
    state = IterationState(np.array(REFERENCE_INITIAL),
                           np.array(REFERENCE_MULTIPLICITIES))
    base = step_method3(f, state)
    for c in (1e-6, 1e6):
        scaled = GeneralizedPolynomial(system, c * f.coefficients)
        stepped = step_method3(scaled, state)
        assert stepped == pytest.approx(base, rel=1e-13)


def test_scaling_by_a_power_of_two_is_exact(reference_problem):
    system, f = reference_problem
    base = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES)
    for c in (2.0 ** 40, 2.0 ** -40):
        scaled = GeneralizedPolynomial(system, c * f.coefficients)
        report = solve(scaled, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES)
        assert report.status is base.status
        assert report.iterations_used == base.iterations_used
        for a, b in zip(base.history, report.history):
            assert np.array_equal(a.approximations, b.approximations)


def test_decimal_scaling_preserves_the_solve_shape(reference_problem):
    # scaling by a non-representable factor rounds every coefficient, so
    # iterates within ~1e-4 of a double root may legitimately move at the
    # low 1e-12 level; the run itself must stay structurally identical
    system, f = reference_problem
    base = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES)
    for c in (1e-6, 1e6):
        scaled = GeneralizedPolynomial(system, c * f.coefficients)
        report = solve(scaled, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES)
        assert report.status is base.status
        assert report.iterations_used == base.iterations_used
        assert report.history[-1].approximations == pytest.approx(
            base.history[-1].approximations, rel=1e-11)


def test_cubic_contraction_on_the_reference_example(reference_problem):
    _, f = reference_problem
    report = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES)
    roots = np.array([-0.5, 3.0])
    errors = [np.abs(entry.approximations - roots)
              for entry in report.history]
    for k in (0, 1):
        bound = 1e3 * float(np.max(errors[k])) ** 3
        assert float(np.max(errors[k + 1])) <= bound


def test_parallel_corrections_match_sequential(reference_problem):
    _, f = reference_problem
    settings = SolverSettings()
    state = IterationState(np.array(REFERENCE_INITIAL),
                           np.array(REFERENCE_MULTIPLICITIES))
    sequential = np.array([single_correction(f, state, i, settings)
                           for i in range(2)])
    reversed_order = np.array([single_correction(f, state, i, settings)
                               for i in (1, 0)])[::-1]
    concurrent = parallel_corrections(f, state, settings)
    assert np.array_equal(sequential, reversed_order)
    assert np.array_equal(sequential, concurrent)


@pytest.mark.parametrize("method", ["method3", "method13"])
def test_shared_null_vector_gives_the_same_bits(reference_problem, method):
    _, reference = reference_problem
    monomial = from_roots(_monomials(13), RootConfiguration(
        ((-0.8, 3), (-0.3, 3), (0.2, 2), (0.55, 2), (0.9, 2))))
    cases = [
        (reference, IterationState(np.array(REFERENCE_INITIAL),
                                   np.array(REFERENCE_MULTIPLICITIES))),
        (monomial, IterationState(np.array([-0.78, -0.33, 0.21, 0.53, 0.92]),
                                  np.array([3, 3, 2, 2, 2]))),
    ]
    settings = SolverSettings(method=method)
    for f, state in cases:
        alone = np.array([single_correction(f, state, i, settings)
                          for i in range(len(state.approximations))])
        assert np.all(alone != 0.0)
        assert np.array_equal(alone, _compute_corrections(f, state, settings))
        assert np.array_equal(alone, parallel_corrections(f, state, settings))


def _monomial_snapshot(multiplicities):
    """A monomial polynomial with roots spread over [-0.9, 0.9], and a
    snapshot whose starts sit 4% of the root gap away from them."""
    roots = np.linspace(-0.9, 0.9, len(multiplicities))
    f = from_roots(_monomials(sum(multiplicities) + 1),
                   RootConfiguration(tuple(zip(roots, multiplicities))))
    offsets = 0.04 * (roots[1] - roots[0]) * (-1.0) ** np.arange(len(roots))
    return f, IterationState(roots + offsets, np.array(multiplicities))


@pytest.mark.parametrize("method", METHODS)
def test_shared_rows_give_the_same_corrections(method):
    settings = SolverSettings(method=method)
    for multiplicities in ((1,) * 10, (3, 3, 2, 2, 2)):
        f, state = _monomial_snapshot(multiplicities)
        alone = np.array([single_correction(f, state, i, settings)
                          for i in range(len(multiplicities))])
        assert np.all(alone != 0.0)
        assert np.array_equal(alone, _compute_corrections(f, state, settings))
        assert np.array_equal(alone, parallel_corrections(f, state, settings))


def test_a_sweep_evaluates_the_basis_once_per_root(monkeypatch):
    f, state = _monomial_snapshot((1,) * 14)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BasisSystem, "rows", counting("rows", BasisSystem.rows))
    monkeypatch.setattr(BasisSystem, "eval", counting("eval", BasisSystem.eval))
    monkeypatch.setattr(solver, "_check_collisions",
                        counting("collisions", solver._check_collisions))
    for method in METHODS:
        calls.clear()
        _step(f, state, SolverSettings(method=method))
        assert calls == {"rows": 14, "collisions": 1}, method


def test_settings_validation():
    with pytest.raises(InvalidConfiguration):
        SolverSettings(tolerance=0.0)
    with pytest.raises(InvalidConfiguration):
        SolverSettings(denominator_floor=-1e-3)
    with pytest.raises(InvalidConfiguration):
        SolverSettings(max_iterations=0)
    with pytest.raises(InvalidConfiguration):
        SolverSettings(method="nope")


def test_unknown_method_raises(reference_problem):
    _, f = reference_problem
    with pytest.raises(InvalidConfiguration):
        solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES,
              SolverSettings(method="bisection"))


def test_dimension_checks(reference_problem):
    _, f = reference_problem
    with pytest.raises(DimensionMismatch):
        solve(f, (0.1,), (2, 2))
    with pytest.raises(DimensionMismatch):
        solve(f, (0.1, 0.2), (1, 1))
    with pytest.raises(DimensionMismatch):
        IterationState(np.array([0.0, 1.0]), np.array([1]))


def _raised_by_every_entry_point(f, state, settings):
    """The exception type each correction entry point raises on state,
    one entry per root index for the standalone call."""
    def raised(call):
        with pytest.raises(Exception) as info:
            call()
        return info.type

    standalone = {raised(lambda: single_correction(f, state, i, settings))
                  for i in range(len(state.approximations))}
    return standalone | {
        raised(lambda: _compute_corrections(f, state, settings)),
        raised(lambda: parallel_corrections(f, state, settings)),
    }


def test_wrong_multiplicity_sum_is_refused_by_every_entry_point():
    f = from_roots(_monomials(5), RootConfiguration(
        ((-0.5, 2), (0.3, 1), (0.8, 1))))
    state = IterationState(np.array([-0.45, 0.32, 0.79]), np.array([1, 1, 1]))
    for method in METHODS:
        settings = SolverSettings(method=method)
        assert _raised_by_every_entry_point(f, state, settings) \
            == {DimensionMismatch}, method


def test_colliding_iterates_are_refused_by_every_entry_point():
    f = from_roots(_monomials(5), RootConfiguration(
        ((-0.5, 2), (0.3, 1), (0.8, 1))))
    for second in (-0.45 + 1e-14, -0.45):
        state = IterationState(np.array([-0.45, second, 0.79]),
                               np.array([1, 1, 2]))
        for method in METHODS:
            settings = SolverSettings(method=method)
            assert _raised_by_every_entry_point(f, state, settings) \
                == {IterateCollision}, (second, method)


def test_ehrlich_off_the_monomial_basis_is_refused_by_every_entry_point(
        reference_problem):
    _, f = reference_problem
    state = IterationState(np.array(REFERENCE_INITIAL),
                           np.array(REFERENCE_MULTIPLICITIES))
    settings = SolverSettings(method="ehrlich")
    assert _raised_by_every_entry_point(f, state, settings) \
        == {InvalidConfiguration}


def test_sine_and_cosine_of_an_overflowed_argument_land_in_domain_escape():
    # 3 * 1e308 overflows to inf, and math.sin(inf) raised ValueError
    system = BasisSystem((constant(), sine(3.0), cosine(3.0)))
    f = GeneralizedPolynomial(system, np.array([0.5, 1.0, 0.2]))
    for method in ("method3", "method13"):
        report = solve(f, (1e308, 0.3), (1, 1), SolverSettings(method=method))
        assert report.status is SolveStatus.domain_escape
        assert report.iterations_used == 0
        assert report.final_residuals[0] == float("inf")


def test_iterates_at_opposite_ends_of_the_float_range_warn_nothing():
    # x_i - x_j overflows to inf in the collision check and the pairwise
    # sums, and a step can carry an iterate past the float range; these
    # infinities are meant, and with warnings as errors they used to raise
    f = from_roots(_monomials(4), RootConfiguration(
        ((-0.5, 1), (0.3, 1), (0.8, 1))))
    for method in METHODS:
        report = solve(f, (1e308, 0.5, -1e308), (1, 1, 1),
                       SolverSettings(method=method))
        assert report.status is SolveStatus.domain_escape, method
        # alone, the entry points reach the rows, where x^3 overflows
        state = IterationState(np.array([1e308, 0.5, -1e308]), [1, 1, 1])
        settings = SolverSettings(method=method)
        assert _raised_by_every_entry_point(f, state, settings) \
            == {OverflowError}, method
    # exp(r x) with r = 2^-1022 steps by -1/r = -4.5e307 every sweep
    g = GeneralizedPolynomial(
        BasisSystem((constant(), exponential(2.0 ** -1022))),
        np.array([0.0, 1.0]))
    report = solve(g, (0.0,), (1,))
    assert report.status is SolveStatus.domain_escape
    assert report.history[-1].approximations[0] == -math.inf


@pytest.mark.parametrize("initial, multiplicities", [
    ((-0.4, 2.8), (2.5, 2.5)),
    ((-0.4, 0.0, 2.8), (0, 2, 2)),
    ((-0.4, 0.0, 2.8), (-1, 3, 2)),
    ((-0.4, 2.8), (0, 4)),
    ((-0.4, 2.8), (float("nan"), 2)),
])
def test_multiplicities_that_cannot_be_iterated_are_refused(
        reference_problem, initial, multiplicities):
    _, f = reference_problem
    with pytest.raises(InvalidConfiguration):
        IterationState(np.array(initial), multiplicities)
    for method in ("method3", "method13"):
        with pytest.raises(InvalidConfiguration):
            solve(f, initial, multiplicities, SolverSettings(method=method))
    # integral floats are multiplicities too
    state = IterationState(np.array([-0.4, 2.8]), (2.0, 2.0))
    assert state.multiplicities.tolist() == [2, 2]


def test_iteration_state_configuration_round_trip():
    state = IterationState(np.array([-0.5, 3.0]), np.array([2, 2]))
    cfg = state.configuration()
    assert cfg.nodes == ((-0.5, 2), (3.0, 2))
