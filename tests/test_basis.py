"""Basis functions: closed-form derivatives, jets, and the parser."""

import math

import pytest

from simroots import (
    BasisSystem,
    DimensionMismatch,
    DivisionBySingularJet,
    DomainError,
    ExpressionParseError,
    Jet,
    OrderExceedsCap,
    constant,
    cosine,
    exponential,
    expression,
    inverse_quadratic,
    jet_propagate,
    make_reference_basis,
    parse_expression,
    power,
    sine,
)

GENERIC_POINTS = (-1.3, -0.4, 0.7, 1.9)


def eval_basis(b, x, p=0):
    """The p-th derivative of one basis function at x, through the
    system evaluator."""
    return BasisSystem((b, constant())).eval(0, x, p)


def test_power_second_derivative():
    assert eval_basis(power(3), 2.0, 2) == pytest.approx(12.0, rel=1e-14)


def test_sine_first_derivative_at_zero():
    assert eval_basis(sine(3.0), 0.0, 1) == pytest.approx(3.0, rel=1e-14)


def test_inverse_quadratic_values():
    b = inverse_quadratic()
    assert eval_basis(b, 0.0, 0) == pytest.approx(1.0, rel=1e-14)
    assert eval_basis(b, 0.0, 2) == pytest.approx(-2.0, rel=1e-13)
    assert eval_basis(b, 2.0, 0) == pytest.approx(0.2, rel=1e-14)


def test_constant_and_cosine_and_exponential():
    assert eval_basis(constant(), 5.0, 0) == 1.0
    assert eval_basis(constant(), 5.0, 3) == 0.0
    assert eval_basis(cosine(2.0), 0.0, 1) == pytest.approx(0.0, abs=1e-15)
    assert eval_basis(cosine(2.0), 0.0, 2) == pytest.approx(-4.0, rel=1e-14)
    assert eval_basis(exponential(-1.0), 0.0, 1) == pytest.approx(-1.0, rel=1e-14)


def _fd_check(b, points, orders, h=1e-4):
    for x in points:
        for p in orders:
            fd = (eval_basis(b, x + h, p) - eval_basis(b, x - h, p)) / (2 * h)
            exact = eval_basis(b, x, p + 1)
            if abs(exact) > 1e-6:
                assert abs(fd - exact) / abs(exact) < 1e-5
            else:
                assert abs(fd - exact) < 1e-8


def test_catalog_derivative_consistency():
    for b in (power(4), sine(3.0), cosine(1.7), exponential(-1.0),
              inverse_quadratic()):
        _fd_check(b, GENERIC_POINTS, range(0, 4))


def test_jet_matches_catalog_closed_forms():
    pairs = [
        ("sin(3*x)", sine(3.0)),
        ("cos(1.7*x)", cosine(1.7)),
        ("exp(-x)", exponential(-1.0)),
        ("1/(1+x*x)", inverse_quadratic()),
        ("1/(1+x^2)", inverse_quadratic()),
    ]
    for source, catalog in pairs:
        tree = expression(source)
        for x in GENERIC_POINTS:
            for p in range(5):
                got = eval_basis(tree, x, p)
                want = eval_basis(catalog, x, p)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (source, x, p)


def test_jet_square_coefficients():
    jet = jet_propagate("x*x", 3.0, 2)
    assert jet.coefficients == pytest.approx([9.0, 6.0, 1.0])
    assert jet.derivative(2) == pytest.approx(2.0)


def test_jet_sin_derivatives_at_zero():
    jet = jet_propagate("sin(3*x)", 0.0, 3)
    derivs = [jet.derivative(q) for q in range(4)]
    assert derivs == pytest.approx([0.0, 3.0, 0.0, -27.0], abs=1e-12)


def test_jet_derivative_scaling_invariant():
    jet = Jet([2.0, -1.0, 0.25, 7.0])
    for q in range(4):
        assert jet.derivative(q) == jet.coefficients[q] * math.factorial(q)


def test_jet_negative_power():
    jet = jet_propagate("x^-2", 2.0, 1)
    assert jet.coefficients[0] == pytest.approx(0.25, rel=1e-14)
    assert jet.derivative(1) == pytest.approx(-0.25, rel=1e-13)


def test_unary_minus_binds_looser_than_power():
    assert jet_propagate("-x^2", 3.0, 0).coefficients[0] == pytest.approx(-9.0)


def test_division_by_singular_jet():
    with pytest.raises(DivisionBySingularJet):
        jet_propagate("1/(x-0.5)", 0.5, 3)


def test_jet_overflow_raises_overflow_error():
    # sin and cos of an argument that overflowed to inf, and inf - inf in
    # a series product, are ValueErrors inside math
    for source, x in (("sin(x*x*x)", 1e200), ("cos(x^3)", 1e200),
                      ("x*x*x*(1/x)", 1e160)):
        with pytest.raises(OverflowError):
            jet_propagate(source, x, 2)


ROW_SYSTEMS = {
    # power(3) below the top order, so its highest rows are zero
    "catalog": BasisSystem((constant(), power(1), power(3), sine(3.0),
                            cosine(1.7), exponential(-1.0),
                            inverse_quadratic())),
    "expressions": BasisSystem(tuple(expression(s) for s in (
        "1", "x*x", "sin(3*x)", "exp(-x)", "1/(1+x*x)"))),
}


@pytest.mark.parametrize("name", sorted(ROW_SYSTEMS))
def test_rows_agree_with_scalar_eval(name):
    system = ROW_SYSTEMS[name]
    top = 5
    for x in GENERIC_POINTS:
        rows = system.rows(x, top)
        assert rows.shape == (top + 1, len(system))
        for p in range(top + 1):
            for j in range(len(system)):
                assert rows[p, j] == system.eval(j, x, p), (name, x, p, j)


def test_rows_check_the_domain_and_the_cap():
    system = BasisSystem((constant(), power(1)), domain=(0.0, 1.0))
    assert system.rows(0.5, 1).tolist() == [[1.0, 0.5], [0.0, 1.0]]
    for x in (-0.2, 1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            system.rows(x, 1)
    capped = BasisSystem((constant(), expression("x*x", derivative_cap=3)))
    assert capped.rows(0.5, 3)[2].tolist() == [0.0, 2.0]
    with pytest.raises(OrderExceedsCap):
        capped.rows(0.5, 4)


@pytest.mark.parametrize("bad", [
    "2*+3",
    "x^1.5",
    "foo(x)",
    "sin x",
    "(x+1",
    "x $ 2",
    "",
])
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(ExpressionParseError):
        parse_expression(bad)


def test_parser_tree_shape():
    assert parse_expression("x") == ("x",)
    assert parse_expression("1+2*x") == ("add", ("num", 1.0),
                                         ("mul", ("num", 2.0), ("x",)))


def test_expression_cap_enforced():
    b = expression("sin(x)", derivative_cap=4)
    with pytest.raises(OrderExceedsCap):
        eval_basis(b, 0.0, 5)


def test_system_domain_checked_on_eval():
    system = BasisSystem((constant(), power(1)), domain=(0.0, 1.0))
    assert system.eval(1, 0.5, 0) == 0.5
    with pytest.raises(DomainError):
        system.eval(1, -0.2, 0)
    # the interval is open
    with pytest.raises(DomainError):
        system.eval(1, 1.0, 0)


def test_system_needs_two_functions():
    with pytest.raises(DimensionMismatch):
        BasisSystem((constant(),))


def test_system_rejects_empty_domain():
    with pytest.raises(DomainError):
        BasisSystem((constant(), power(1)), domain=(2.0, 2.0))


def test_system_cap_is_minimum_over_members():
    system = BasisSystem((constant(), expression("x*x", derivative_cap=3)))
    assert system.derivative_cap == 3


def test_reference_system():
    system = make_reference_basis()
    assert len(system) == 5
    assert system.derivative_cap >= 4
    assert system.eval(1, 2.0, 0) == pytest.approx(4.0)
    assert system.eval(3, 0.0, 1) == pytest.approx(-1.0)
    assert system.eval(2, 0.0, 1) == pytest.approx(3.0)
    assert system.eval(4, 0.0, 2) == pytest.approx(-2.0, rel=1e-13)
