"""Solver behavior: steps, guards, reports, and invariances.

The worked example used throughout: the reference basis
{1, x^2, sin 3x, exp(-x), 1/(1+x^2)} with double roots at -0.5 and 3,
started from (-0.4, 2.8).  The expected iterate cells are frozen
reference values for this configuration.
"""

import math
import random
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from simroots import (
    DegenerateDenominator,
    DimensionMismatch,
    DomainError,
    GeneralizedPolynomial,
    InvalidConfiguration,
    IterateCollision,
    IterationState,
    RootConfiguration,
    SolverSettings,
    SolveStatus,
    from_roots,
    is_monomial_basis,
    make_reference_basis,
    q_derivative,
    q_value,
    single_correction,
    solve,
)
from simroots import cli, solver
from simroots.basis import (MAX_ORDER, BasisSystem, constant, cosine,
                            exponential, expression, power, sine)
from simroots.confluent import (_node_block, node_null_vector, node_rows,
                                positive_integers)
from simroots.solver import METHODS, _step

from reference_loop import (cut_at_first_repeat, first_repeat,
                            reference_solve, report_bytes)

BENCH = Path(__file__).resolve().parents[1] / "bench"

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
    a = _step(f, state, SolverSettings())[0]
    b = _step(f, state, SolverSettings(method="method13"))[0]
    assert np.array_equal(a, b)


def _pairwise_sums(state):
    return solver._pairwise_sums(state.approximations, state.multiplicities)


def test_monomial_shortcut_small_cases():
    state = IterationState(np.array([0.0, 1.0]), np.array([1, 1]))
    assert _pairwise_sums(state) == [-1.0, 1.0]
    state = IterationState(np.array([0.0, 1.0, 4.0]), np.array([2, 1, 3]))
    sums = _pairwise_sums(state)
    assert sums[1] == pytest.approx(2.0 - 1.0, rel=1e-15)
    assert sums[2] == pytest.approx(0.5 + 1.0 / 3.0, rel=1e-15)


def test_monomial_shortcut_collision_guard():
    with pytest.raises(IterateCollision):
        solver._check_collisions(np.array([0.5, 0.5 + 1e-14]))


def test_vectorized_snapshot_checks_match_the_loops():
    # the pairwise sums and the collision check are formed on arrays; the
    # per-pair loops they replaced stay here as the reference
    rng = np.random.default_rng(7)
    for m in (1, 2, 5, 20):
        state = IterationState(rng.uniform(-2.0, 2.0, m), rng.integers(1, 4, m))
        xs, mult = state.approximations, state.multiplicities
        for i in range(m):
            loop = math.fsum(mult[j] / (xs[i] - xs[j]) for j in range(m) if j != i)
            assert _pairwise_sums(state)[i] == loop
    # pairs (1, 3) and (2, 4) collide; the loop names the first in row order
    xs = np.array([1.0, 3.0, 2.0, 3.0 + 1e-13, 2.0 + 1e-13])
    with pytest.raises(IterateCollision, match="approximations 1 and 3 "):
        solver._check_collisions(xs)


def _first_collision(xs):
    """The scan of every pair that the sorted pass stands in for: the
    message for the first pair i < j in row order that collides, or None."""
    xs = xs.tolist()
    for i, a in enumerate(xs):
        for j in range(i + 1, len(xs)):
            b = xs[j]
            gap = abs(a - b)
            limit = solver.COLLISION_THRESHOLD * (1.0 + max(abs(a), abs(b)))
            if gap <= limit:
                return ("approximations %d and %d are %.3e apart (limit %.3e)"
                        % (i, j, gap, limit))
    return None


def _planted_values(rng, m):
    """m values of either sign at scales 1e-3 .. 1e6, with up to three
    planted pairs: gaps from half to twice the limit (one part in 1e9 on
    either side of it among them), duplicates, signed zeros, infinities
    and NaN."""
    xs = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 6.0)
          for _ in range(m)]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(m), rng.randrange(m)
        kind = rng.choice(("near", "duplicate", "zeros", "inf", "nan"))
        if kind == "near":
            limit = solver.COLLISION_THRESHOLD * (1.0 + abs(xs[i]))
            xs[j] = xs[i] + rng.choice((-1.0, 1.0)) * limit * rng.choice(
                (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0))
        elif kind == "duplicate":
            xs[j] = xs[i]
        elif kind == "zeros":
            xs[i], xs[j] = rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0))
        else:
            xs[j] = rng.choice((math.inf, -math.inf)) if kind == "inf" \
                else math.nan
    return np.array(xs)


def test_the_sorted_pass_finds_what_the_pair_scan_finds():
    # raises exactly when some pair collides, naming the first in row order
    rng = random.Random(20261019)
    collided = 0
    for _ in range(400):
        xs = _planted_values(rng, rng.randint(1, 40))
        expected = _first_collision(xs)
        if expected is None:
            solver._check_collisions(xs)
            continue
        collided += 1
        with pytest.raises(IterateCollision) as raised:
            solver._check_collisions(xs)
        assert str(raised.value) == expected
    assert 100 < collided < 300


@pytest.mark.parametrize("method", ["method3", "method13"])
def test_q_sums_of_every_root_match_the_per_root_sums(reference_problem,
                                                      method):
    # Q and Q' of every root, each with its term scale, come from one
    # product per snapshot; the per-root sums they replaced stay here as
    # the reference
    _, reference = reference_problem
    cases = [(reference, IterationState(np.array(REFERENCE_INITIAL),
                                        np.array(REFERENCE_MULTIPLICITIES))),
             _monomial_snapshot((1,) * 14),
             _monomial_snapshot((3, 3, 2, 2, 2))]
    settings = SolverSettings(method=method)
    for f, state in cases:
        _, _, q_sums, _, _ = solver._snapshot(f, state, settings)
        mult = state.multiplicities
        c, _ = node_null_vector(node_rows(
            f.basis.tensor(state.approximations, int(mult.max()) - 1), mult))
        for i, (x, alpha) in enumerate(zip(state.approximations, mult)):
            probe = f.basis.rows(x, alpha + 1)
            q, qp = c * probe[alpha], c * probe[alpha + 1]
            assert q_sums[i] == ((math.fsum(q), float(np.sum(np.abs(q)))),
                                 (math.fsum(qp), float(np.sum(np.abs(qp)))))


def test_shortcut_matches_determinant_ratio():
    system = _monomials(6)
    state = IterationState(np.array([-0.7, 0.25, 1.0]), np.array([2, 1, 2]))
    cfg = RootConfiguration(((-0.7, 2), (0.25, 1), (1.0, 2)))
    for i in range(3):
        x = float(state.approximations[i])
        alpha = int(state.multiplicities[i])
        ratio = q_derivative(system, cfg, i, x) / (
            (alpha + 1.0) * q_value(system, cfg, i, x))
        assert _pairwise_sums(state)[i] == pytest.approx(ratio, rel=1e-9)


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
    classical = _step(f, state, settings)[0]
    generalized = _step(f, state, SolverSettings())[0]
    assert classical == pytest.approx(generalized, rel=1e-12)


def test_ehrlich_needs_monomial_basis(reference_problem):
    _, f = reference_problem
    state = IterationState(np.array(REFERENCE_INITIAL),
                           np.array(REFERENCE_MULTIPLICITIES))
    with pytest.raises(InvalidConfiguration):
        _step(f, state, SolverSettings(method="ehrlich"))
    with pytest.raises(InvalidConfiguration):
        solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES,
              SolverSettings(method="ehrlich"))


def test_orders_above_the_basis_cap_are_refused_by_every_method():
    # (x - 0.5)^102 on the monomial basis, whose derivatives stop at order
    # 100: ehrlich's sweeps read order 1, but its residuals order 101
    n = 102
    f = GeneralizedPolynomial(_monomials(n + 1), np.array(
        [math.comb(n, k) * (-0.5) ** (n - k) for k in range(n + 1)]))
    assert MAX_ORDER == 100
    for method, order in (("method3", 103), ("method13", 103),
                          ("ehrlich", 101)):
        with pytest.raises(InvalidConfiguration, match=(
                "%s needs derivatives of order %d but the basis caps them "
                "at 100" % (method, order))):
            solve(f, [0.6], [n], SolverSettings(method=method))


def test_collision_stops_the_solve():
    # 1e-12 apart at 1.0 is inside the limit 1e-12 (1 + 1.0); from there a
    # threshold of 1e-13 would let the solve converge
    for roots, initial in ((((1.0, 1), (-1.0, 1)), (0.5, 0.5 + 1e-14)),
                           (((0.9, 1), (1.2, 1)), (1.0, 1.0 + 1e-12))):
        f = from_roots(_monomials(3), RootConfiguration(roots))
        report = solve(f, initial, (1, 1))
        assert report.status is SolveStatus.iterate_collision
        assert report.iterations_used == 0
        assert len(report.history) == 1


def test_degenerate_denominator_is_reported(reference_problem, monkeypatch):
    _, f = reference_problem
    monkeypatch.setattr(solver, "DENOMINATOR_FLOOR", 1.0)
    report = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES)
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


@pytest.mark.parametrize("member", [
    pytest.param("x*x" + "+0*x" * 199, id="sum"),
    pytest.param("-" * 199 + "x*x", id="unary chain"),
    pytest.param("sin(" * 200 + "x" + ")" * 200, id="nested sine"),
])
def test_expressions_at_the_depth_bound_solve(member):
    # each tree is MAX_DEPTH = 200 levels deep, one more is refused
    system = BasisSystem((constant(), power(1), expression(member)))
    f = from_roots(system, RootConfiguration(((1.0, 1), (2.0, 1))))
    for method in ("method3", "method13"):
        report = solve(f, (0.9, 2.1), (1, 1), SolverSettings(method=method))
        assert report.status is SolveStatus.converged
        assert np.allclose(report.history[-1].approximations, (1.0, 2.0))


def test_infinite_q_terms_land_in_domain_escape():
    # exp(800 x) is finite at the root near 0.886 and exp(801 x) nearly
    # so, but their first derivatives are inf; the terms of Q there are
    # inf and -inf, whose sum used to raise ValueError out of solve
    system = BasisSystem((constant(), exponential(800.0), exponential(801.0)))
    opposed = GeneralizedPolynomial(system, np.array([1.0, -1.0, 0.5]))
    # the first derivative of exp(1e10 x) is finite at 6.792e-8 and the
    # second inf, so Q is finite and Q' is not; the step used to be nan
    system = BasisSystem((constant(), power(1), exponential(1e10)))
    steep = GeneralizedPolynomial(system, np.array([1.0, -1.0, 1e-300]))
    for f, initial in ((opposed, (0.2, 0.8855)), (opposed, (0.886, 0.3)),
                       (steep, (6.792e-8, -0.5))):
        for method in ("method3", "method13"):
            report = solve(f, initial, (1, 1), SolverSettings(method=method))
            assert report.status is SolveStatus.domain_escape
            assert report.iterations_used == 0


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


def test_a_product_of_f_out_of_range_lands_in_domain_escape():
    # each x^j is finite at 1e5 and 3e5, but 1e300 x^2 is not: the product
    # of the coefficients with the rows used to warn out of solve
    f = GeneralizedPolynomial(BasisSystem((constant(), power(1), power(2))),
                              np.array([1e300, -3e300, 1e300]))
    for method in METHODS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve(f, (1e5, 3e5), (1, 1), SolverSettings(method=method))
        assert report.status is SolveStatus.domain_escape, method


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


def _escaping_problem():
    """x^2 - 1.5 x on (-1, 1): its root 1.5 lies outside the domain, and
    the first sweep from (0.1, 0.9) carries the second iterate there."""
    system = BasisSystem((constant(), power(1), power(2)), (-1.0, 1.0))
    return GeneralizedPolynomial(system, np.array([0.0, -1.5, 1.0]))


@pytest.mark.parametrize("method", METHODS)
def test_a_state_that_leaves_the_domain_on_the_last_sweep_escapes(method):
    # the domain test comes before the budget test
    report = solve(_escaping_problem(), (0.1, 0.9), (1, 1),
                   SolverSettings(method=method, max_iterations=1))
    assert (report.status, report.iterations_used) == (
        SolveStatus.domain_escape, 1)


@pytest.mark.parametrize("method", METHODS)
def test_a_sweep_below_tolerance_that_leaves_the_domain_escapes(method):
    # every correction is below the tolerance, so the convergence check
    # reads the escaped state first; it fails on the escaped root's inf
    f = _escaping_problem()
    report = solve(f, (0.1, 0.9), (1, 1),
                   SolverSettings(method=method, tolerance=10.0))
    assert (report.status, report.iterations_used) == (
        SolveStatus.domain_escape, 1)
    assert np.abs(report.history[-1].last_corrections).max() < 10.0
    x = report.history[-1].approximations
    assert f.basis.contains(x[0]) and not f.basis.contains(x[1])
    assert report.final_residuals == [abs(f.eval(x[0])), math.inf]


@pytest.mark.parametrize("method", METHODS)
def test_a_start_outside_the_domain_escapes_before_it_collides(method):
    report = solve(_escaping_problem(), (1.5, 1.5), (1, 1),
                   SolverSettings(method=method))
    assert (report.status, report.iterations_used) == (
        SolveStatus.domain_escape, 0)
    assert report.final_residuals == [math.inf, math.inf]


def test_a_nine_fold_root_of_expression_members_solves():
    # the sweeps read order 10 of x^0 .. x^9, which expression members
    # once refused above order 8
    system = BasisSystem(tuple(expression("x^%d" % s) for s in range(10)))
    f = from_roots(system, RootConfiguration(((0.3, 9),)))
    report = solve(f, (0.31,), (9,), SolverSettings(method="method13"))
    assert report.status is SolveStatus.converged
    assert report.iterations_used == 2
    assert abs(report.history[-1].approximations[0] - 0.3) < 1e-15


def test_max_iterations(reference_problem):
    _, f = reference_problem
    report = solve(f, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES,
                   SolverSettings(tolerance=1e-30, max_iterations=2))
    assert report.status is SolveStatus.max_iterations
    assert report.iterations_used == 2
    assert len(report.history) == 3


def test_a_correction_equal_to_the_tolerance_does_not_stop_the_solve():
    # the rerun's tolerance is sweep 3's largest correction, read back
    # from the first run, so only a strict test keeps sweeping to 4
    roots = (-0.8, -0.5, -0.1, 0.2, 0.55, 0.9)
    f = from_roots(_monomials(7), RootConfiguration(tuple(
        (root, 1) for root in roots)))
    initial = (-0.78, -0.53, -0.08, 0.21, 0.57, 0.88)
    report = solve(f, initial, [1] * 6)
    assert (report.status, report.iterations_used) == (SolveStatus.converged,
                                                       4)
    tolerance = float(np.abs(report.history[3].last_corrections).max())
    rerun = solve(f, initial, [1] * 6, SolverSettings(tolerance=tolerance))
    assert (rerun.status, rerun.iterations_used) == (SolveStatus.converged, 4)


def test_wrong_multiplicity_claim_never_converges():
    system = _monomials(4)
    f = from_roots(system, RootConfiguration(((0.0, 1), (1.0, 1), (2.0, 1))))
    # x = 0 is a simple root claimed double: the residual check must
    # refuse convergence even though the corrections are zero there.
    # State 5 repeats state 3, so the solve stalls at the budget of 5
    report = solve(f, (0.0, 1.0), (2, 1),
                   SolverSettings(max_iterations=5))
    assert report.status is SolveStatus.stalled
    assert report.iterations_used == 5
    assert report.history[-1].approximations == pytest.approx((0.0, 1.0))


def _mixed_problem():
    """Roots -0.8, -0.4, 0, 0.4, 0.8 of multiplicities (3, 3, 2, 2, 2) on
    the monomial basis, started 10% of the gap away with alternating signs."""
    roots = (-0.8, -0.4, 0.0, 0.4, 0.8)
    f = from_roots(_monomials(13), RootConfiguration(
        tuple(zip(roots, (3, 3, 2, 2, 2)))))
    step = 0.1 * (roots[1] - roots[0])
    initial = tuple(r + (-1) ** k * step for k, r in enumerate(roots))
    return f, initial, (3, 3, 2, 2, 2)


def _held_method13_problem():
    """Double roots on the reference basis where method13 holds a point
    that fails validation from k = 6 on."""
    f = from_roots(make_reference_basis(), RootConfiguration(
        ((-0.32763850823136387, 2), (3.02553001806857, 2))))
    return f, (-0.26822084284813824, 3.0950106563584274), (2, 2)


def _wrong_claim_problem(initial):
    f = from_roots(_monomials(4), RootConfiguration(((0.0, 1), (1.0, 1),
                                                     (2.0, 1))))
    return f, initial, (2, 1)


# (problem, method, j, k): state k of the computed loop is the first to
# repeat an earlier state j bit for bit, at any budget of k sweeps or more
CYCLES = {
    "mixed method3": (_mixed_problem, "method3", 9, 11),
    "mixed ehrlich": (_mixed_problem, "ehrlich", 15, 17),
    "held method13": (_held_method13_problem, "method13", 6, 7),
    "wrong claim": (lambda: _wrong_claim_problem((0.0, 1.0)), "method3", 3, 5),
    "back to state 0": (lambda: _wrong_claim_problem((1.0, 2.0)), "method3",
                        0, 1),
}


@pytest.mark.parametrize("name", CYCLES)
def test_replayed_cycles_match_the_computed_loop(name):
    # solve ends a cycle at its first repeated state k, a budget of k
    # included, as stalled, with the computed loop's first k + 1 states
    # bit for bit and the residuals of state k; a smaller budget ends
    # both loops alike
    problem, method, j, k = CYCLES[name]
    f, initial, multiplicities = problem()
    for budget in sorted({max(1, k - 1), k, k + 1, k + 2 * (k - j) + 1, 50}):
        settings = SolverSettings(method=method, max_iterations=budget)
        expected = reference_solve(f, initial, multiplicities, settings)
        report = solve(f, initial, multiplicities, settings)
        assert report_bytes(report) == report_bytes(
            cut_at_first_repeat(f, expected)), budget
        assert expected.status is SolveStatus.max_iterations
        if budget < k:
            assert report.iterations_used == budget
            continue
        assert first_repeat(expected.history) == (j, k)
        assert (report.status, len(report.history)) == (SolveStatus.stalled,
                                                        k + 1)


# (name, computed sweeps, residual checks) at the default budget: one
# check per computed state that meets the tolerance, and one for the
# final state unless it has the bytes of the last of them, as in a
# period-1 hold
@pytest.mark.parametrize("name, sweeps, sums", [("mixed ehrlich", 17, 1),
                                                ("mixed method3", 11, 1),
                                                ("held method13", 7, 1),
                                                ("wrong claim", 5, 5),
                                                ("back to state 0", 1, 1)])
def test_sweeps_after_a_repeat_are_not_computed(name, sweeps, sums,
                                                monkeypatch):
    problem, method, _, _ = CYCLES[name]
    f, initial, multiplicities = problem()
    calls = Counter()
    monkeypatch.setattr(solver, "_step",
                        _counting(calls, "step", solver._step))
    monkeypatch.setattr(solver, "_final_state", _counting(
        calls, "sums", solver._final_state))
    monkeypatch.setattr(BasisSystem, "tensor",
                        _counting(calls, "tensor", BasisSystem.tensor))
    report = solve(f, initial, multiplicities, SolverSettings(method=method))
    assert (report.status, report.iterations_used) == (SolveStatus.stalled,
                                                       sweeps)
    # one tensor per computed sweep, and one per check at bytes other
    # than those of the last computed sweep's snapshot: the final state of
    # a period-2 cycle, and each check of the moving wrong claim
    tensors = sweeps + {"mixed ehrlich": 1, "mixed method3": 1,
                        "wrong claim": 5}.get(name, 0)
    assert calls == {"step": sweeps, "sums": sums, "tensor": tensors}


def test_a_solve_checks_its_input_once(monkeypatch):
    # the fixed mixed ehrlich problem computes 17 sweeps and stalls: the
    # sweeps share the plan that checked the input, and the states that
    # solve accepts are not validated again
    f, initial, multiplicities = _mixed_problem()
    calls = Counter()
    monkeypatch.setattr(solver, "_check_inputs",
                        _counting(calls, "inputs", solver._check_inputs))
    monkeypatch.setattr(IterationState, "__post_init__", _counting(
        calls, "state", IterationState.__post_init__))
    monkeypatch.setattr(solver, "_step",
                        _counting(calls, "step", solver._step))
    report = solve(f, initial, multiplicities, SolverSettings(method="ehrlich"))
    assert report.iterations_used == 17
    assert calls == {"inputs": 1, "state": 1, "step": 17}
    for state in report.history:
        assert isinstance(state, IterationState)
        assert state.multiplicities.tolist() == list(multiplicities)


@pytest.mark.parametrize("name", ["mixed ehrlich", "back to state 0"])
def test_history_entries_share_no_memory(name):
    problem, method, _, _ = CYCLES[name]
    f, initial, multiplicities = problem()
    report = solve(f, initial, multiplicities, SolverSettings(method=method))
    arrays = [a for s in report.history
              for a in (s.approximations, s.multiplicities, s.last_corrections)
              if a is not None]
    assert len(arrays) == 3 * len(report.history) - 1
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), i


def test_scale_invariance_of_a_single_step(reference_problem):
    system, f = reference_problem
    state = IterationState(np.array(REFERENCE_INITIAL),
                           np.array(REFERENCE_MULTIPLICITIES))
    base = _step(f, state, SolverSettings())[0]
    for c in (1e-6, 1e6):
        scaled = GeneralizedPolynomial(system, c * f.coefficients)
        stepped = _step(scaled, state, SolverSettings())[0]
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
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = np.array(list(pool.map(
            lambda i: single_correction(f, state, i, settings), range(2))))
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
        assert np.array_equal(alone, _step(f, state, settings)[1])


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
        assert np.array_equal(alone, _step(f, state, settings)[1])


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_a_sweep_evaluates_the_basis_once_per_root(monkeypatch,
                                                   reference_problem):
    f, state = _monomial_snapshot((1,) * 14)
    calls = Counter()

    def counting(name, fn):
        return _counting(calls, name, fn)

    # one tensor holds every root's rows; rows and eval are views of it
    for name in ("tensor", "rows", "eval"):
        monkeypatch.setattr(BasisSystem, name,
                            counting(name, getattr(BasisSystem, name)))
    monkeypatch.setattr(solver, "_check_collisions",
                        counting("collisions", solver._check_collisions))
    # only signed values take an exact sum, term scales a numpy row sum:
    # f^(p) and f^(p+1) take one each, Q and Q' one each, and ehrlich's
    # pairwise sum one
    monkeypatch.setattr(math, "fsum", counting("fsum", math.fsum))
    m = len(state.approximations)
    for method, fsums in (("method3", 4 * m), ("method13", 4 * m),
                          ("ehrlich", 2 * m + m)):
        calls.clear()
        _step(f, state, SolverSettings(method=method))
        assert calls == {"tensor": 1, "collisions": 1, "fsum": fsums}, method
    # the residual check of a converged state: one fsum per residual row
    for multiplicities in ((1,) * 14, (3, 3, 2, 2, 2)):
        f, state = _monomial_snapshot(multiplicities)
        report = solve(f, state.approximations, multiplicities)
        assert report.status is SolveStatus.converged
        calls.clear()
        solver._final_state(f, report.history[-1].approximations,
                            state.multiplicities)
        assert calls == {"tensor": 1, "fsum": sum(multiplicities)}
    # a converged solve whose last sweep held every root checks its
    # residuals from that sweep: one tensor per computed sweep, none after
    _, reference = reference_problem
    simple, _ = _monomial_snapshot((1,) * 14)
    for f, initial, multiplicities, method in [
            (reference, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES, method)
            for method in ("method3", "method13")] + [
            (simple, simple.construction_roots.locations, (1,) * 14, method)
            for method in METHODS]:
        calls.clear()
        report = solve(f, initial, multiplicities,
                       SolverSettings(method=method))
        last, held = report.history[-2:]
        assert report.status is SolveStatus.converged
        assert held.approximations.tobytes() == last.approximations.tobytes()
        assert calls["tensor"] == report.iterations_used, method
        # that sweep held every root: f^(p) and f^(p+1) take one fsum each,
        # Q and Q' none, ehrlich's pairwise sum one
        assert not held.last_corrections.any()
        calls.clear()
        _step(f, held, SolverSettings(method=method))
        assert calls["fsum"] == len(initial) * (
            3 if method == "ehrlich" else 2), method


def _expression_reference_problem():
    system = BasisSystem(tuple(expression(source) for source in (
        "1", "x*x", "sin(3*x)", "exp(-x)", "1/(1+x*x)")))
    return from_roots(system, REFERENCE_ROOTS)


def _final_read(multiplicities, plan, snapshot):
    """Which read a _final_state call takes: the pair of sums of the last
    computed sweep's snapshot, the node rows of its tensor, or a fresh
    tensor, given no snapshot at those bytes ("fresh") or one whose tensor
    stops below order alpha_i - 1 ("short", mixed ehrlich)."""
    if snapshot is None:
        return "fresh"
    if plan.paired:
        return "pair"
    if snapshot[-1].shape[1] >= max(multiplicities):
        return "tensor"
    return "short"


# what each method's residual checks read over the cases below
RESIDUAL_READS = {
    "method3": {"pair", "tensor", "fresh"},
    "method13": {"pair", "tensor", "fresh"},
    "ehrlich": {"pair", "short", "fresh"},
}


@pytest.mark.parametrize("method", METHODS)
def test_residuals_read_from_the_last_sweep_match_a_fresh_check(
        method, reference_problem, monkeypatch):
    # a residual check at the bytes of the last computed sweep's snapshot
    # reads that snapshot: its pair of sums when the plan is paired, else
    # its tensor's node rows when that reaches order alpha_i - 1; any other
    # check builds a fresh tensor.  Each must equal a fresh _final_state,
    # residual for residual and in its pass flag, and the report the
    # computed loop's, which only sums afresh
    _, reference = reference_problem
    simple, simple_state = _monomial_snapshot((1,) * 14)
    mixed, mixed_state = _monomial_snapshot((3, 3, 2, 2, 2))
    cases = [(simple, simple_state.approximations, (1,) * 14),
             (simple, simple.construction_roots.locations, (1,) * 14),
             (mixed, mixed_state.approximations, (3, 3, 2, 2, 2)),
             # x^4 - x^3 started at its roots: the first sweep holds both,
             # so the check at state 1 has the bytes of its snapshot, and
             # the solve converges at the repeat of state 0
             (GeneralizedPolynomial(_monomials(5), np.array(
                 [0.0, 0.0, 0.0, -1.0, 1.0])), (0.0, 1.0), (3, 1))]
    if method != "ehrlich":
        cases += [(reference, REFERENCE_INITIAL, REFERENCE_MULTIPLICITIES),
                  (_expression_reference_problem(), REFERENCE_INITIAL,
                   REFERENCE_MULTIPLICITIES)]
    reads = Counter()
    fresh = solver._final_state

    def checked(f, approximations, multiplicities, plan=None, snapshot=None):
        state = fresh(f, approximations, multiplicities, plan, snapshot)
        assert state == fresh(f, approximations, multiplicities)
        reads[_final_read(multiplicities, plan, snapshot)] += 1
        return state

    monkeypatch.setattr(solver, "_final_state", checked)
    settings = SolverSettings(method=method)
    # the fixed mixed problem cycles at its roots until method3 and
    # ehrlich stall, and its residuals pass without a converged status
    cycle = _mixed_problem()
    for f, initial, multiplicities in cases + [cycle]:
        report = solve(f, initial, multiplicities, settings)
        assert report_bytes(report) == report_bytes(cut_at_first_repeat(
            f, reference_solve(f, initial, multiplicities, settings)))
        final = report.history[-1].approximations
        residuals, passes = fresh(f, final, report.history[0].multiplicities)
        assert report.final_residuals == residuals
        if f is not cycle[0]:
            assert (report.status is SolveStatus.converged) == passes
    assert set(reads) == RESIDUAL_READS[method], reads


def _bits(entry):
    """A snapshot entry in a form that compares bit for bit: an array as
    its shape and bytes, anything else by repr, which tells -0.0 from 0.0
    and spells each float exactly."""
    if isinstance(entry, np.ndarray):
        return entry.shape, entry.dtype, entry.tobytes()
    return repr(entry)


@pytest.mark.parametrize("method", METHODS)
def test_a_sweep_returns_the_snapshot_it_read(method, reference_problem):
    _, reference = reference_problem
    cases = [_monomial_snapshot((1,) * 14), _monomial_snapshot((3, 3, 2, 2, 2))]
    if method != "ehrlich":  # ehrlich needs the monomial basis
        cases.append((reference, IterationState(
            np.array(REFERENCE_INITIAL), np.array(REFERENCE_MULTIPLICITIES))))
    settings = SolverSettings(method=method)
    for f, state in cases:
        _, corrections, snapshot = _step(f, state, settings)
        expected = solver._snapshot(f, state, settings)
        assert len(snapshot) == len(expected) == 5
        assert list(map(_bits, snapshot)) == list(map(_bits, expected))
        assert np.array_equal(corrections, [
            single_correction(f, state, i, settings, expected)
            for i in range(len(state.approximations))])


def _fresh_residual_evaluations(f, report, swept, settings):
    """How many residual evaluations of a solve cannot read the snapshot
    of the last sweep computed before them, found from its report; swept
    holds the approximation bytes of every computed sweep in order.  A
    convergence check follows each computed sweep whose corrections all
    fall below the tolerance and whose result stays in the basis domain;
    the final residuals follow unless the last check had the final bytes.
    An evaluation cannot read the snapshot at other bytes, or where the
    snapshot's tensor stops below order alpha_i - 1 (ehrlich's stops at
    order 1)."""
    reaches = settings.method != "ehrlich" \
        or report.history[0].multiplicities.max() <= 2
    evaluations = [
        (state.approximations.tobytes(), before)
        for state, before in zip(report.history[1:], swept)
        if float(np.max(np.abs(state.last_corrections))) < settings.tolerance
        and all(map(f.basis.contains, state.approximations.tolist()))]
    final = report.history[-1].approximations.tobytes()
    if not evaluations or evaluations[-1][0] != final:
        evaluations.append((final, swept[-1] if swept else None))
    return sum(at != before or not reaches for at, before in evaluations)


def _seeded_solves(name, monkeypatch, tmp_path):
    """(slice name, f, initial, multiplicities, settings) of every solve
    that a seed-1 entry of the benchmark workload makes, in sequence
    order: one per solve entry, and one per method of a CLI entry's
    problem file, parsed as `simroots run` parses it."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    for slice_, problem in workloads.generate(name, 1, tmp_path).sequence:
        if slice_.kind == "cli":
            loaded = cli.load_problem(problem.path)
            for method in loaded.methods:
                yield (slice_.name, loaded.f, loaded.initial,
                       loaded.multiplicities,
                       replace(loaded.settings, method=method))
        else:
            yield (slice_.name, problem.f, problem.initial,
                   problem.multiplicities, slice_.settings)


# the reads of _final_state that each workload's seed-1 solves take: each
# read is kept for the workloads it serves, so one that no longer takes
# any of them can go
SEEDED_READS = {
    "reference_cli": {"pair", "tensor", "fresh"},
    "monomial_det": {"pair", "tensor", "fresh"},
    "monomial_ehrlich": {"pair", "fresh"},
    "expression_jets": {"pair", "tensor", "fresh"},
}


@pytest.mark.parametrize("name", SEEDED_READS)
def test_seeded_solves_build_a_tensor_per_sweep_and_per_fresh_check(
        name, monkeypatch, tmp_path):
    # every seed-1 solve of the benchmark workload: one tensor per sweep,
    # computed or raised, one per residual evaluation that cannot read the
    # last computed sweep's snapshot, and one per root evaluated alone
    # after that tensor left the domain or the float range.  A method3 or
    # method13 sweep that returns finds the node block's null vector
    # exactly when some root moves, and every workload of those methods
    # has sweeps that hold every root
    swept, calls, reads = [], Counter(), Counter()
    step, final_state = solver._step, solver._final_state

    def recording(f, state, settings, *args, **kwargs):
        calls["step"] += 1
        before = calls["null"]
        result = step(f, state, settings, *args, **kwargs)
        swept.append(state.approximations.tobytes())
        moved = settings.method != "ehrlich" and bool(result[1].any())
        assert calls["null"] - before == moved
        calls["held"] += settings.method != "ehrlich" and not moved
        return result

    def reading(f, xs, mult, plan=None, snapshot=None):
        reads[_final_read(mult, plan, snapshot)] += 1
        return final_state(f, xs, mult, plan, snapshot)

    monkeypatch.setattr(solver, "_step", recording)
    monkeypatch.setattr(solver, "_final_state", reading)
    monkeypatch.setattr(solver, "node_null_vector", _counting(
        calls, "null", solver.node_null_vector))
    for method in ("tensor", "rows"):
        monkeypatch.setattr(BasisSystem, method, _counting(
            calls, method, getattr(BasisSystem, method)))
    fresh = solves = held = 0
    for slice_name, f, initial, multiplicities, settings in _seeded_solves(
            name, monkeypatch, tmp_path):
        swept.clear()
        calls.clear()
        report = solve(f, initial, multiplicities, settings)
        expected = _fresh_residual_evaluations(f, report, swept, settings)
        assert calls["tensor"] == calls["step"] + expected + calls["rows"], \
            slice_name
        fresh += expected
        held += calls["held"]
        solves += 1
    # some checks read the snapshot and some do not
    assert 0 < fresh < solves
    assert set(reads) == SEEDED_READS[name], reads
    assert (held > 0) is (name != "monomial_ehrlich")


@pytest.mark.parametrize("name", ["monomial_det", "monomial_ehrlich",
                                  "expression_jets"])
def test_seeded_final_residuals_match_an_evaluation_at_each_root(
        name, monkeypatch, tmp_path):
    # every seed-1 solve entry of the workload: final_residuals are
    # |f^(q)(x_i)| for q < alpha_i at the final iterates, bit for bit,
    # from GeneralizedPolynomial.eval, a call path apart from the reads of
    # _final_state; inf for every order of a root where one of them
    # raises.  A converged report has every residual within 1e-6 of
    # 1 + its term magnitude
    for slice_name, f, initial, multiplicities, settings in _seeded_solves(
            name, monkeypatch, tmp_path):
        report = solve(f, initial, multiplicities, settings)
        residuals, bounds = [], []
        for x, alpha in zip(report.history[-1].approximations.tolist(),
                            multiplicities):
            try:
                residuals += [abs(f.eval(x, q)) for q in range(alpha)]
                bounds += [1e-6 * (1.0 + f.term_magnitude(x, q))
                           for q in range(alpha)]
            except (DomainError, OverflowError):
                residuals += [math.inf] * alpha
                bounds += [-math.inf] * alpha
        assert report.final_residuals == residuals, slice_name
        if report.status is SolveStatus.converged:
            assert all(map(float.__le__, residuals, bounds)), slice_name


def test_only_the_root_that_escapes_loses_its_residuals():
    f = from_roots(_monomials(5), RootConfiguration(
        ((-0.5, 2), (0.3, 1), (0.8, 1))))
    xs, mult = np.array([-0.45, 0.32, 0.79]), np.array([2, 1, 1])
    alone = [[abs(value) for value, _ in f.row_sums(f.basis.rows(x, a - 1))]
             for x, a in zip(xs, mult.tolist())]
    assert solver._final_state(f, xs, mult) == (sum(alone, []), False)
    # x^4 overflows at 1e100, and an infinite x is outside every domain
    for escaped in (1e100, math.inf):
        state = solver._final_state(f, np.array([-0.45, escaped, 0.79]), mult)
        assert state == (alone[0] + [math.inf] + alone[2], False)


def test_an_ehrlich_plan_indexes_no_node_block():
    f, state = _monomial_snapshot((1,) * 6)
    for method in METHODS:
        plan = solver._plan(f, state.multiplicities,
                            SolverSettings(method=method))
        unread = method == "ehrlich"
        assert (plan.node is None) is unread, method
        assert (plan.probe is None) is unread, method


@pytest.mark.parametrize("multiplicities", [(1,) * 10, (3, 3, 2, 2, 2)])
def test_ehrlich_solves_match_the_computed_loop(multiplicities):
    f, state = _monomial_snapshot(multiplicities)
    settings = SolverSettings(method="ehrlich")
    for initial in (state.approximations, 0.9 * state.approximations):
        expected = cut_at_first_repeat(f, reference_solve(
            f, initial, multiplicities, settings))
        report = solve(f, initial, multiplicities, settings)
        assert report_bytes(report) == report_bytes(expected)


def test_a_held_root_does_not_read_its_next_row():
    # f = a0 + a1 exp(r x) cancels exactly at x, where f' = a1 r exp(r x)
    # overflows: the hold returns before that row is read
    x, rate = 6.9e-8, 1e10
    a1 = 1e-300
    a0 = -(a1 * math.exp(rate * x))
    f = GeneralizedPolynomial(BasisSystem((constant(), exponential(rate))),
                              np.array([a0, a1]))
    state = IterationState(np.array([x]), np.array([1]))
    for method in ("method3", "method13"):
        assert single_correction(f, state, 0, SolverSettings(method=method)) \
            == 0.0
    with pytest.raises(OverflowError):
        f.eval(x, 1)


@pytest.mark.parametrize("method", METHODS)
def test_the_hold_fires_at_64_eps_of_the_term_magnitude(method):
    # f = x - 0.5 on {1, x} at 0.5 (1 + k eps): |f| = k eps / 2 exactly,
    # against a term magnitude of 1 + k eps / 2; f' = 1 and Q' = 0, so a
    # correction that is not held is f itself
    f = GeneralizedPolynomial(_monomials(2), np.array([-0.5, 1.0]))
    settings = SolverSettings(method=method)
    for k, expected in ((64, 0.0), (256, 128 * solver.EPS)):
        state = IterationState(np.array([0.5 * (1.0 + k * solver.EPS)]),
                               np.array([1]))
        assert single_correction(f, state, 0, settings) == expected, k


def test_settings_validation():
    with pytest.raises(InvalidConfiguration):
        SolverSettings(tolerance=0.0)
    # a tolerance no correction can fall below, or a budget no sweep
    # count can reach exactly, would run a solve the caller did not ask for
    for tolerance in (float("nan"), float("inf"), -1e-3, 10 ** 400, True,
                      "1e-9", None):
        with pytest.raises(InvalidConfiguration):
            SolverSettings(tolerance=tolerance)
    for budget in (0, 2.5, 50.0, True):
        with pytest.raises(InvalidConfiguration):
            SolverSettings(max_iterations=budget)
    assert SolverSettings(max_iterations=np.int64(3)).max_iterations == 3
    assert type(SolverSettings(tolerance=1).tolerance) is float
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
    # starts no sweep can iterate: a scalar, None, a nested or 2-d array,
    # strings, bytes, complex numbers, bools, iterables that are no
    # sequence (a generator, a set, a dict), and numbers float() cannot
    # hold (it raises OverflowError)
    for initial in (0.5, None, [[-0.4, 2.8]], np.array([[-0.4, 2.8]]),
                    ["a", "b"], ["-0.4", "2.8"], b"\x01\x02",
                    [-0.4 + 0j, 2.8], np.array([-0.4, 2.8 + 1j]), [True, 2.8],
                    np.array([True, False]), (x for x in (-0.4, 2.8)),
                    {-0.4, 2.8}, {-0.4: 2, 2.8: 2}, [10 ** 400, 2.9],
                    (-0.4, -10 ** 400), [Fraction(10 ** 400), 2.8]):
        with pytest.raises(InvalidConfiguration):
            solve(f, initial, REFERENCE_MULTIPLICITIES)
    with pytest.raises(InvalidConfiguration):
        solve(f, 0.5, [4])
    # ints, numpy numbers and integer arrays are real starts, up to the
    # largest finite float as an int
    for initial in ([0, 3], (np.float32(-0.4), np.int64(3)), np.array([0, 3]),
                    [-0.4, int(sys.float_info.max)]):
        solve(f, initial, REFERENCE_MULTIPLICITIES)


def test_multiplicities_are_positive_integers(reference_problem):
    for multiplicities in ([True, 2, 3.0], ["2", 2], [2.5, 1.5], [0, 4],
                           [2 + 0j, 2], np.array([True, True]), 2, None,
                           [[2, 2]], b"\x02\x02", iter([2, 2]), {2.0, 3.0},
                           [10 ** 400, 2], [2.0 ** 53, 2]):
        with pytest.raises(InvalidConfiguration):
            positive_integers(multiplicities)
        with pytest.raises(InvalidConfiguration):
            IterationState([-0.4, 2.8], multiplicities)
    # beyond the float range, where converting it would raise OverflowError
    _, f = reference_problem
    with pytest.raises(InvalidConfiguration):
        solve(f, [-0.4, 2.8], [10 ** 400, 2])
    for nodes in (((-0.5, True), (3.0, "2")), ((1.0, 10 ** 400),)):
        with pytest.raises(InvalidConfiguration):
            RootConfiguration(nodes)
    assert positive_integers([2.0, np.int64(3), 1]) == [2, 3, 1]
    assert positive_integers(np.array([2.0, 3.0])) == [2, 3]
    assert type(positive_integers((np.int32(2),))[0]) is int


def _raised_by_every_entry_point(f, state, settings, roots=None):
    """The exception type each correction entry point raises on state,
    one entry per root index in roots (default all) for the standalone
    call."""
    def raised(call):
        with pytest.raises(Exception) as info:
            call()
        return info.type

    if roots is None:
        roots = range(len(state.approximations))
    standalone = {raised(lambda: single_correction(f, state, i, settings))
                  for i in roots}
    return standalone | {
        raised(lambda: _step(f, state, settings)[1]),
    }


def test_a_standalone_correction_refuses_an_index_that_names_no_root(
        reference_problem):
    # -1 would read the last root's correction, 2 no root at all
    _, f = reference_problem
    state = IterationState(np.array(REFERENCE_INITIAL),
                           np.array(REFERENCE_MULTIPLICITIES))
    settings = SolverSettings()
    assert single_correction(f, state, np.int64(1), settings) \
        == single_correction(f, state, 1, settings)
    for i in (-1, 2, True, 1.0, None):
        with pytest.raises(InvalidConfiguration, match="root index"):
            single_correction(f, state, i, settings)


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


def test_a_held_root_does_not_read_its_infinite_q_in_any_entry_point():
    # f = a0 + x + a2 exp(r x) cancels at x0, where the first derivative
    # row of exp(r x) is inf, so the terms of Q_0 are not finite; the
    # sums of every root are formed with the snapshot, and root 0's hold
    # must return before its Q is read
    x0, rate, a2 = 6.9e-8, 1e10, 1e-300
    system = BasisSystem((constant(), power(1), exponential(rate)))
    f = GeneralizedPolynomial(
        system, np.array([-(x0 + a2 * math.exp(rate * x0)), 1.0, a2]))
    state = IterationState(np.array([x0, -0.5]), np.array([1, 1]))
    for method in ("method3", "method13"):
        settings = SolverSettings(method=method)
        assert solver._snapshot(f, state, settings)[2][0][0] is None
        alone = [single_correction(f, state, i, settings) for i in range(2)]
        assert alone[0] == 0.0 and math.isfinite(alone[1]) and alone[1] != 0.0
        assert np.array_equal(alone, _step(f, state, settings)[1])


def test_a_sweep_that_holds_every_root_still_refuses_an_infinite_block():
    # 1e300*1e300*x has infinite jets without raising, but its zero
    # coefficient keeps f = x - 0.5 finite: at 0.5 method3's one root
    # holds, and no correction reads Q'/Q, while method13 steps on f' = 1.
    # Both must still refuse the node block, as node_null_vector does
    system = BasisSystem((constant(), power(1), expression("1e300*1e300*x")))
    f = GeneralizedPolynomial(system, np.array([-0.5, 1.0, 0.0]))
    state = IterationState(np.array([0.5]), np.array([2]))
    for method in ("method3", "method13"):
        settings = SolverSettings(method=method)
        assert _raised_by_every_entry_point(f, state, settings) \
            == {OverflowError}, method
        report = solve(f, [0.5], [2], settings)
        assert report.status is SolveStatus.domain_escape, method
        assert report.iterations_used == 0


def test_a_cancelled_q_is_reported_before_a_later_infinite_q():
    # every member's first derivative vanishes at 0, so Q_0 has only zero
    # terms; at 0.8855 the derivative of exp(800 x) is inf, so Q_1 is not
    # finite.  Each root raises its own error, and a sweep the first in
    # root order
    system = BasisSystem((constant(), power(2),
                          expression("exp(800*x) - 800*x")))
    f = GeneralizedPolynomial(system, np.array([1.0, -1.0, 0.5]))
    state = IterationState(np.array([0.0, 0.8855]), np.array([1, 1]))
    for method in ("method3", "method13"):
        settings = SolverSettings(method=method)
        with pytest.raises(OverflowError):
            single_correction(f, state, 1, settings)
        assert _raised_by_every_entry_point(f, state, settings, roots=[0]) \
            == {DegenerateDenominator}, method
        report = solve(f, state.approximations, (1, 1), settings)
        assert report.status is SolveStatus.degenerate_denominator


# Hand-built snapshot entries for one root at 0.25 with multiplicity 1:
# a (value, scale) pair that passes every guard, and one the hold zeroes
_OK, _HELD = (1.0, 1.0), (0.0, 1.0)
_F = (OverflowError, "a term of f at a basis row is not finite")
_RANK = (DegenerateDenominator,
         "node block singular value ratio 0.000e+00 is at most 1e-14")
_Q = (OverflowError, "a term of Q_0(0.25) is not finite")
_Q_CANCELLED = (DegenerateDenominator, "Q_0(0.25) = 0.000e+00 is negligible"
                " against its term scale 1.000e+00")
_Q_PRIME = (OverflowError, "a term of Q'_0(0.25) is not finite")
_DENOMINATOR = (DegenerateDenominator, "{method} denominator 0.000e+00 is"
                " below 1e-14 of its term scale 2.000e+00")

# ((f^(p), f^(p+1)), rank ratio, (Q, Q'), ehrlich shift, outcome for
# method3 and method13, outcome for ehrlich).  Every row but the last
# fails two or more guards, and the outcome, the correction 0.0 or an
# exception type and message, is the first failing guard's in the order
# method3/method13: f^(p), hold, rank, Q, Q cancellation, Q', f^(p+1),
# denominator; ehrlich: f^(p), hold, f^(p+1), denominator
GUARD_ORDER = [
    ((None, None), 0.0, (None, None), 1.0, _F, _F),
    ((_HELD, None), 0.0, (None, None), 1.0, 0.0, 0.0),
    ((_OK, None), 0.0, (None, None), 1.0, _RANK, _F),
    ((_OK, None), 1.0, (None, None), 1.0, _Q, _F),
    ((_OK, None), 1.0, ((0.0, 1.0), None), 1.0, _Q_CANCELLED, _F),
    ((_OK, None), 1.0, (_OK, None), 1.0, _Q_PRIME, _F),
    ((_OK, None), 1.0, (_OK, _OK), 1.0, _F, _F),
    # f = f' = Q = 1 and Q' = 2: every method's denominator is 1 - 1
    ((_OK, _OK), 1.0, (_OK, (2.0, 2.0)), 1.0, _DENOMINATOR, _DENOMINATOR),
]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("row", range(len(GUARD_ORDER)))
def test_the_first_failing_guard_decides_in_every_entry_point(method, row,
                                                              monkeypatch):
    pair, rank_ratio, q_pair, shift, outcome, ehrlich = GUARD_ORDER[row]
    if method == "ehrlich":
        outcome = ehrlich
    snapshot = ([pair], rank_ratio, [q_pair], [shift], None)
    f = from_roots(_monomials(2), RootConfiguration(((0.5, 1),)))
    state = IterationState(np.array([0.25]), np.array([1]))
    settings = SolverSettings(method=method)
    # the sweep reads the same hand-built snapshot
    monkeypatch.setattr(solver, "_snapshot", lambda *args: snapshot)
    calls = {
        "single_correction": lambda: single_correction(f, state, 0, settings,
                                                       snapshot),
        "_step": lambda: _step(f, state, settings)[1][0],
    }
    for name, call in calls.items():
        if isinstance(outcome, float):
            assert call() == outcome, name
            continue
        kind, message = outcome
        with pytest.raises(kind) as info:
            call()
        assert str(info.value) == message.format(method=method), name


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

