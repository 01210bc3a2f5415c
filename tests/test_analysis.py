"""Diagnostics: phi/psi evaluators, congruence table, order estimation."""

import math

import numpy as np
import pytest

from simroots import (
    GeneralizedPolynomial,
    InsufficientHistory,
    InvalidConfiguration,
    RootConfiguration,
    check_derivative_congruence,
    estimate_order,
    eval_phi,
    eval_psi,
    finite_difference_derivative,
    from_roots,
    make_reference_basis,
    method3_denominator,
    q_value,
    richardson_derivative,
    solve,
)
from simroots.basis import BasisSystem, constant, power


def _monomials(count):
    members = [constant()] + [power(s) for s in range(1, count)]
    return BasisSystem(tuple(members))


@pytest.fixture(scope="module")
def reference_problem():
    system = make_reference_basis()
    f = from_roots(system, RootConfiguration(((-0.5, 2), (3.0, 2))))
    return system, f


def test_phi_vanishes_at_true_roots(reference_problem):
    system, f = reference_problem
    iterate_cfg = RootConfiguration(((-0.4, 2), (2.8, 2)))
    for i, root in enumerate((-0.5, 3.0)):
        assert abs(eval_phi(f, system, iterate_cfg, i, root)) < 1e-12


def test_phi_needs_a_root_location():
    system = _monomials(3)
    f = GeneralizedPolynomial(system, np.array([-1.0, 0.0, 1.0]))
    cfg = RootConfiguration(((0.9, 1), (-1.1, 1)))
    with pytest.raises(InvalidConfiguration):
        eval_phi(f, system, cfg, 0, 0.95)
    # an explicit location works without construction records
    value = eval_phi(f, system, cfg, 0, 1.0, true_root=1.0)
    assert abs(value) < 1e-12


def test_phi_is_homogeneous_in_the_coefficients(reference_problem):
    system, f = reference_problem
    iterate_cfg = RootConfiguration(((-0.4, 2), (2.8, 2)))
    base = eval_phi(f, system, iterate_cfg, 1, 2.95)
    for c in (3.0, 1e-4):
        scaled = GeneralizedPolynomial(system, c * f.coefficients)
        value = eval_phi(scaled, system, iterate_cfg, 1, 2.95, true_root=3.0)
        assert value == pytest.approx(c * base, rel=1e-10)


def test_psi_at_an_exact_simple_root():
    system = _monomials(4)
    f = from_roots(system, RootConfiguration(((0.0, 1), (1.0, 1), (2.0, 1))))
    cfg = RootConfiguration(((-0.1, 1), (1.05, 1), (2.2, 1)))
    # f vanishes at 0, so psi collapses to 2 f' Q there
    lhs = eval_psi(f, system, cfg, 0, 0.0)
    rhs = 2.0 * f.eval(0.0, 1) * q_value(system, cfg, 0, 0.0)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_psi_matches_the_method3_denominator(reference_problem):
    system, f = reference_problem
    cfg = RootConfiguration(((-0.4, 2), (2.8, 2)))
    for i, x in ((0, -0.4), (1, 2.8)):
        alpha = cfg.nodes[i][1]
        lhs = eval_psi(f, system, cfg, i, x)
        rhs = (alpha + 1.0) * q_value(system, cfg, i, x) \
            * method3_denominator(f, cfg, i, x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_psi_vanishing_order_at_a_triple_root():
    system = _monomials(5)
    f = from_roots(system, RootConfiguration(((0.0, 3), (2.0, 1))))
    cfg = RootConfiguration(((0.05, 3), (1.9, 1)))

    def psi(x):
        return eval_psi(f, system, cfg, 0, x)

    scale = max(abs(psi(-0.5)), abs(psi(0.5)))
    assert abs(psi(0.0)) < 1e-12 * scale
    assert abs(richardson_derivative(psi, 0.0, 1)) < 1e-10 * scale
    # the second derivative is the first non-vanishing one
    assert abs(richardson_derivative(psi, 0.0, 2)) > 1e-2 * scale


def test_finite_difference_stencils_are_exact_on_quadratics():
    def square(x):
        return x * x

    assert finite_difference_derivative(square, 1.0, 1, 0.5) == 2.0
    assert finite_difference_derivative(square, 1.0, 2, 0.5) == 2.0


def test_richardson_derivative_accuracy():
    def fun(x):
        return math.sin(3.0 * x)

    assert richardson_derivative(fun, 0.3, 1) == pytest.approx(
        3.0 * math.cos(0.9), rel=1e-10)
    assert richardson_derivative(fun, 0.3, 4) == pytest.approx(
        81.0 * math.sin(0.9), rel=1e-6)


def test_congruence_table_on_a_quadratic_with_known_shift_law():
    # roots 1 and 4 on {1, x, x^2}: the raw-coefficient polynomial is
    # (b - a)(x - a)(x - b), so shifting both nodes by delta changes the
    # probe-derivative determinant by exactly 2 delta (b - a) = 6 delta
    system = _monomials(3)
    f = from_roots(system, RootConfiguration(((1.0, 1), (4.0, 1))))
    assert f.construction_scale == pytest.approx(15.0, rel=1e-12)

    table = check_derivative_congruence(
        f, system, f.construction_roots, f.construction_scale)
    assert [delta for delta, _ in table] == [0.0, 1e-2, 1e-3, 1e-4]
    assert table[0][1] < 1e-12
    for delta, worst in table[1:]:
        assert worst == pytest.approx(6.0 * delta, rel=1e-9)

    halved = check_derivative_congruence(
        f, system, f.construction_roots, f.construction_scale,
        deltas=(1e-2, 5e-3))
    ratio = halved[2][1] / halved[1][1]
    assert 0.3 < ratio < 0.7


def test_congruence_zero_row_on_the_reference_example(reference_problem):
    system, f = reference_problem
    table = check_derivative_congruence(
        f, system, f.construction_roots, f.construction_scale)
    assert table[0][0] == 0.0
    assert table[0][1] < 1e-9 * f.construction_scale
    deviations = [worst for _, worst in table]
    assert deviations[1] > deviations[2] > deviations[3]


def test_estimate_order_on_the_reference_example(reference_problem):
    _, f = reference_problem
    report = solve(f, (-0.4, 2.8), (2, 2))
    estimate = estimate_order(report.history, (-0.5, 3.0))
    assert estimate.method == "log-ratio"
    assert [r for r, _ in estimate.per_root] == [0, 1]
    for _, order in estimate.per_root:
        assert 2.0 < order < 3.5


def test_estimate_order_on_a_quadratically_convergent_sequence():
    # classical one-point square-root iteration from 1.5
    xs = [1.5]
    for _ in range(4):
        x = xs[-1]
        xs.append(0.5 * (x + 2.0 / x))
    history = [(x,) for x in xs]
    estimate = estimate_order(history, (math.sqrt(2.0),))
    order = estimate.per_root[0][1]
    assert 1.8 < order < 2.2


def test_estimate_order_on_a_geometric_sequence():
    history = [(2.0 ** -k,) for k in range(40)]
    estimate = estimate_order(history, (0.0,))
    assert abs(estimate.per_root[0][1] - 1.0) < 0.05


def test_estimate_order_skips_trailing_stalls():
    history = [(0.1,), (0.01,), (1e-4,), (1e-4,), (1e-4,)]
    estimate = estimate_order(history, (0.0,))
    assert estimate.per_root[0][1] == pytest.approx(2.0, rel=1e-12)


def test_estimate_order_insufficient_history():
    with pytest.raises(InsufficientHistory):
        estimate_order([(1.4,), (1.41,)], (math.sqrt(2.0),))
    stalled = [(0.5,), (0.5,), (0.5,), (0.5,)]
    with pytest.raises(InsufficientHistory):
        estimate_order(stalled, (0.5,))

