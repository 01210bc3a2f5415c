"""Basis functions: closed-form derivatives, jets, and the parser."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from simroots import (
    BasisFunction,
    BasisSystem,
    DimensionMismatch,
    DivisionBySingularJet,
    DomainError,
    ExpressionParseError,
    GeneralizedPolynomial,
    InvalidConfiguration,
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
from simroots.basis import MAX_EXPONENT, MAX_ORDER, _column, _gather

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
    # any finite real parameter is stored as a float
    for value in (3, 3.0, np.float64(3.0), np.int64(3), Fraction(3)):
        assert sine(value).omega == cosine(value).omega == 3.0
        assert type(sine(value).omega) is float
        assert type(exponential(value).rate) is float


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
    # coefficients 9, 6, 1 of (3 + t)^2, as derivatives c_q * q!
    assert jet_propagate(parse_expression("x*x"), 3.0, 2) == [9.0, 6.0, 2.0]


def test_jet_sin_derivatives_at_zero():
    derivs = jet_propagate(parse_expression("sin(3*x)"), 0.0, 3)
    assert derivs == pytest.approx([0.0, 3.0, 0.0, -27.0], abs=1e-12)


def test_jet_derivative_scaling_invariant():
    # at 0 a polynomial's Taylor coefficients are its own, exactly
    coefficients = [2.0, -1.0, 0.25, 7.0]
    derivs = jet_propagate(parse_expression("2 - x + 0.25*x^2 + 7*x^3"),
                           0.0, 3)
    assert derivs == [c * math.factorial(q) for q, c in enumerate(coefficients)]


def test_jet_negative_power():
    derivs = jet_propagate(parse_expression("x^-2"), 2.0, 1)
    assert derivs[0] == pytest.approx(0.25, rel=1e-14)
    assert derivs[1] == pytest.approx(-0.25, rel=1e-13)


def test_unary_minus_binds_looser_than_power():
    assert jet_propagate(parse_expression("-x^2"), 3.0, 0) == [-9.0]


def test_division_by_singular_jet():
    with pytest.raises(DivisionBySingularJet):
        jet_propagate(parse_expression("1/(x-0.5)"), 0.5, 3)


def test_jet_overflow_raises_overflow_error():
    # sin and cos of an argument that overflowed to inf, and inf - inf in
    # a series product, are ValueErrors inside math
    for source, x in (("sin(x*x*x)", 1e200), ("cos(x^3)", 1e200),
                      ("x*x*x*(1/x)", 1e160)):
        with pytest.raises(OverflowError):
            jet_propagate(parse_expression(source), x, 2)


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
    # eval reads rows, so rows is checked against the scalar formulas
    system = ROW_SYSTEMS[name]
    top = 5
    for x in GENERIC_POINTS:
        rows = system.rows(x, top)
        assert rows.shape == (top + 1, len(system))
        assert np.array_equal(rows, _scalar_tensor(system, [x], top)[0]), (
            name, x)


def test_rows_check_the_domain_and_the_cap():
    system = BasisSystem((constant(), power(1)), domain=(0.0, 1.0))
    assert system.rows(0.5, 1).tolist() == [[1.0, 0.5], [0.0, 1.0]]
    for x in (-0.2, 1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            system.rows(x, 1)
    members = BasisSystem((constant(), expression("x*x")))
    assert members.rows(0.5, MAX_ORDER)[2].tolist() == [0.0, 2.0]
    with pytest.raises(InvalidConfiguration, match="derivative order"):
        members.rows(0.5, MAX_ORDER + 1)


def test_eval_raises_what_rows_raises():
    # eval is one entry of rows, so another member's overflow decides:
    # exp(800 x) overflows at x = 2; every member stops at MAX_ORDER
    system = BasisSystem((constant(), power(1), exponential(800.0)))
    capped = BasisSystem((sine(1.0), expression("x*x")))
    top = MAX_ORDER + 1
    for exc, reads in (
            (OverflowError, (lambda: system.eval(1, 2.0),
                             lambda: system.rows(2.0, 0))),
            (InvalidConfiguration, (lambda: capped.eval(0, 0.5, top),
                                    lambda: capped.rows(0.5, top)))):
        messages = []
        for read in reads:
            with pytest.raises(exc) as info:
                read()
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    assert system.eval(1, 0.5) == 0.5
    assert capped.eval(0, 0.5, MAX_ORDER) == math.sin(
        0.5 + MAX_ORDER * math.pi / 2.0)


@pytest.mark.parametrize("order", [-1, True, 2.5, None, "1", math.nan,
                                   MAX_ORDER + 1])
def test_derivative_orders_are_nonnegative_integers(order):
    # at the orders -1 and True the tensor was empty and of order 1, and
    # jet_propagate built a jet of any order
    system = BasisSystem((constant(), power(2), sine(1.0),
                          expression("x*x")))
    f = GeneralizedPolynomial(system, np.ones(4))
    for read in (lambda: system.tensor([0.5], order),
                 lambda: system.rows(0.5, order),
                 lambda: system.eval(1, 0.5, order),
                 lambda: f.eval(0.5, order),
                 lambda: f.term_magnitude(0.5, order),
                 lambda: jet_propagate(parse_expression("x*x"), 0.5, order)):
        with pytest.raises(InvalidConfiguration, match="derivative order"):
            read()


def test_integral_orders_read_as_ints():
    system = BasisSystem((constant(), power(2), sine(1.0),
                          expression("x*x")))
    f = GeneralizedPolynomial(system, np.ones(4))
    tree = parse_expression("x^3")
    for order in (2.0, np.int64(2)):
        assert np.array_equal(system.tensor([0.5], order),
                              system.tensor([0.5], 2))
        assert system.eval(1, 0.5, order) == 2.0
        assert f.eval(0.5, order) == f.eval(0.5, 2)
        assert jet_propagate(tree, 0.5, order) == jet_propagate(tree, 0.5, 2)
    # 2.7 is no order, though int() would read it as 2
    with pytest.raises(InvalidConfiguration, match="derivative order"):
        jet_propagate(tree, 0.5, 2.7)
    for order in (MAX_ORDER + 1, MAX_ORDER + 1.0):
        with pytest.raises(InvalidConfiguration, match="derivative order"):
            system.tensor([0.5], order)


def test_eval_refuses_an_index_that_names_no_member():
    # -1 would read the last member
    system = BasisSystem((constant(), power(1), power(2)))
    assert system.eval(np.int64(2), 0.5) == 0.25
    for j in (-1, 3, True, 1.0, None):
        with pytest.raises(InvalidConfiguration, match="member index"):
            system.eval(j, 0.5)


def _scalar_power(s, x, p):
    """The power kind's closed form, one libm pow per entry."""
    return math.perm(s, p) * x ** (s - p) if p <= s else 0.0


def _scalar_tensor(system, xs, top):
    """tensor entry by entry: the scalar power formula for the powers and
    the constant, each other member's own column, one point at a time."""
    out = np.empty((len(xs), top + 1, len(system)))
    for i, x in enumerate(xs):
        for j, b in enumerate(system.functions):
            if b.kind == "power":
                out[i, :, j] = [_scalar_power(b.s, x, p) for p in range(top + 1)]
            elif b.kind == "constant":
                out[i, :, j] = [1.0] + [0.0] * top
            else:
                out[i, :, j] = _column(b, x, top)
    return out


TENSOR_SYSTEMS = {
    **{"monomial-%d" % n: BasisSystem(
        (constant(),) + tuple(power(s) for s in range(1, n + 1)))
       for n in (1, 2, 5, 14, 20, 24)},
    # members out of kind order, power(2) below the top order
    "mixed": BasisSystem((sine(3.0), power(2), constant(), exponential(-1.0),
                          power(7), inverse_quadratic(), expression("x*sin(x)"),
                          cosine(1.7))),
    "sparse": BasisSystem((constant(), power(1), power(200))),
}


@pytest.mark.parametrize("name", sorted(TENSOR_SYSTEMS))
def test_tensor_matches_the_scalar_formulas_bit_for_bit(name):
    system = TENSOR_SYSTEMS[name]
    rng = random.Random(name)
    for _ in range(40):
        scale = rng.choice((1e-3, 1.0, 3.0))
        xs = [rng.uniform(-scale, scale) for _ in range(rng.randint(1, 6))]
        top = rng.randint(0, 8)
        tensor = system.tensor(xs, top)
        assert np.array_equal(tensor, _scalar_tensor(system, xs, top)), (xs, top)
        assert np.array_equal(system.rows(xs[0], top), tensor[0])
        assert all(tensor[0, p, j] == system.eval(j, xs[0], p)
                   for p in range(top + 1) for j in range(len(system)))


def test_systems_with_the_same_members_share_the_gather_tables():
    # a problem file loaded twice builds two equal systems; the second
    # must not rebuild the tables of the first
    members = (power(3), sine(2.5), constant(), power(11), expression("x*x"))
    first, second = BasisSystem(members), BasisSystem(members)
    xs = [-0.7, 0.2, 1.3]
    tensor = first.tensor(xs, 5)
    before = _gather.cache_info()
    assert np.array_equal(second.tensor(xs, 5), tensor)
    after = _gather.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert np.array_equal(tensor, _scalar_tensor(first, xs, 5))
    # the shared tables cannot be changed through one of the systems
    index, factor = _gather(first._exponents, first._table_size, 5)
    assert not index.flags.writeable and not factor.flags.writeable


def test_tensor_overflow_matches_the_scalar_formulas():
    system = TENSOR_SYSTEMS["sparse"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 30^200 is finite, but perm(200, 20) 30^180 overflows to inf,
        # as the int * float product of the scalar formula does
        tensor = system.tensor([30.0, -30.0], 25)
        assert np.isinf(tensor).any()
        assert np.array_equal(tensor, _scalar_tensor(system, [30.0, -30.0], 25))
        # 1e3^200 overflows in pow itself, which raises
        for x in (1e3, -1e3):
            with pytest.raises(OverflowError):
                system.tensor([0.5, x], 2)
            with pytest.raises(OverflowError):
                _scalar_power(200, x, 0)


def test_float_power_is_python_pow_bit_for_bit():
    # tensor's power table is one np.float_power call; Python's x ** k is
    # the scalar formula.  Both are one libm pow per entry: the corpus
    # holds signed zeros, subnormal results (1e-3^k from k = 103) and
    # every k at which the powers of 30 and 1e3 overflow, where x ** k
    # raises and the table holds the signed inf
    rng = random.Random(20)
    centres = [s * c for s in (1.0, -1.0)
               for c in (1e-3, 0.5, 1.0, 1.5, 3.0, 30.0, 1e3)]
    xs = [0.0, -0.0] + centres + [c * rng.uniform(0.5, 2.0)
                                  for c in centres for _ in range(14)]
    orders = range(241)
    with np.errstate(over="ignore"):
        table = np.float_power(np.array(xs)[:, None], np.arange(241.0))
    expected = []
    for x in xs:
        for k in orders:
            try:
                expected.append(x ** k)
            except OverflowError:
                expected.append(math.copysign(math.inf, x) if k % 2
                                else math.inf)
    assert table.size == len(expected) > 50_000
    assert math.inf in expected and any(0.0 < abs(v) < 2.2e-308
                                        for v in expected)
    assert np.array_equal(table.ravel().view(np.int64),
                          np.array(expected).view(np.int64))


def test_tensor_raises_in_the_order_of_the_per_point_loop():
    # a point's powers come before its other members, and its members
    # before the next point's powers: 1/x has a pole at 0, and 1e3^200
    # overflows
    system = BasisSystem((constant(), power(200), expression("1/x")))
    with pytest.raises(DivisionBySingularJet):
        system.tensor([0.0, 1e3], 2)
    with pytest.raises(OverflowError):
        system.tensor([1e3, 0.0], 2)


def test_a_power_only_tensor_overflows_where_the_per_point_loop_did():
    # a system of powers checks only its largest |x|: x ** 5 overflows
    # exactly where |x| ** 5 does, for a negative x to -inf, and the
    # largest |x| may sit at any position
    system = BasisSystem((constant(),) + tuple(power(s) for s in range(1, 6)))

    def per_point(xs):
        """The message of the first x ** 5 that raises, or None."""
        try:
            for x in xs:
                x ** 5
        except OverflowError as exc:
            return str(exc)
        return None

    cases = [[-1e62, 0.5], [0.5, -1e62], [1e61, 2.0, -1e62], [1e62, -1e61],
             [-1e61, 1e61, 0.5], [-3.0, 0.0, 2.0], []]
    for xs in cases:
        expected = per_point(xs)
        if expected is None:
            assert np.array_equal(system.tensor(xs, 2),
                                  _scalar_tensor(system, xs, 2)), xs
            continue
        with pytest.raises(OverflowError) as info:
            system.tensor(xs, 2)
        assert str(info.value) == expected, xs
    assert [per_point(xs) is None for xs in cases] == [False] * 4 + [True] * 3
    # the domain check still comes first
    bounded = BasisSystem(system.functions, domain=(-1e300, 1.0))
    with pytest.raises(DomainError):
        bounded.tensor([-1e62, 2.0], 2)


@pytest.mark.parametrize("bad", [
    "2*+3",
    "x^1.5",
    "foo(x)",
    "sin x",
    "(x+1",
    "x $ 2",
    "",
    # Python's syntax that the grammar leaves out
    "x**2",
    "x#c",
    "x^(2)",
    "x^2^3",
    "+x",
    "x^+2",
    "0x10",
    "1_0",
    "1j",
    "True",
    "sin(x, 1)",
    "sin(x=1)",
    "x.real",
    "x[0]",
    "x<1",
    "x;1",
    None,
    pytest.param(("x",), id="a tuple"),
    # one level beyond MAX_DEPTH, and far beyond it
    pytest.param("(" * 201 + "x" + ")" * 201, id="201 parentheses"),
    pytest.param("sin(" * 201 + "x" + ")" * 201, id="201 sines"),
    pytest.param("-" * 200 + "x*x", id="201 deep unary chain"),
    pytest.param("x*x" + "+0*x" * 200, id="201 deep sum"),
    pytest.param("(" * 300 + "x" + ")" * 300, id="300 parentheses"),
    pytest.param("x*x" + "+0*x" * 3000, id="3001 deep sum"),
    pytest.param("-" * 10000 + "x", id="10000 deep unary chain"),
])
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(ExpressionParseError):
        parse_expression(bad)


def test_parser_tree_shape():
    x = ("x",)
    for source, tree in [
            ("x", x),
            ("1+2*x", ("add", ("num", 1.0), ("mul", ("num", 2.0), x))),
            ("x\n+1", ("add", x, ("num", 1.0))),
            ("x^-2", ("pow", x, -2)),
            ("x ^ - 2", ("pow", x, -2)),
            ("x^2.0", ("pow", x, 2)),
            ("-x^2", ("neg", ("pow", x, 2))),
            ("(x^2)^3", ("pow", ("pow", x, 2), 3)),
            ("2*-3", ("mul", ("num", 2.0), ("neg", ("num", 3.0)))),
            ("sin (x)/007", ("div", ("sin", x), ("num", 7.0))),
            ("x^02-1e+1", ("sub", ("pow", x, 2), ("num", 10.0))),
            ("\u0663*x", ("mul", ("num", 3.0), x))]:
        assert parse_expression(source) == tree


# a power table of 10^30 entries per point is never built
@pytest.mark.parametrize("s", [2.5, True, "2", -1, math.inf, math.nan, None,
                               10 ** 30, MAX_EXPONENT + 1])
def test_power_exponent_is_a_nonnegative_integer(s):
    with pytest.raises(InvalidConfiguration):
        power(s)
    # a hand-built member meets the same rule where every member passes
    with pytest.raises(InvalidConfiguration, match="power exponent"):
        BasisSystem((constant(), BasisFunction("power", s=s)))
    assert power(2.0).s == power(np.int64(2)).s == 2
    assert power(MAX_EXPONENT).s == MAX_EXPONENT
    hand_built = BasisSystem((constant(), BasisFunction("power", s=2.0)))
    assert np.array_equal(hand_built.tensor([1.5, -3.0], 3),
                          BasisSystem((constant(), power(2))).tensor(
                              [1.5, -3.0], 3))


@pytest.mark.parametrize("constructor", [sine, cosine, exponential])
@pytest.mark.parametrize("value", [
    True, "3", None, 1j, math.nan, math.inf, -math.inf,
    pytest.param(10 ** 400, id="10**400")])
def test_catalog_parameters_are_finite_reals(constructor, value):
    with pytest.raises(InvalidConfiguration, match="finite real number"):
        constructor(value)


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


def test_system_rejects_unknown_kinds():
    # before any evaluation, so that solve never sees the member
    with pytest.raises(InvalidConfiguration, match="unknown basis kind 'cubic'"):
        BasisSystem((constant(), power(1), BasisFunction("cubic")))


@pytest.mark.parametrize("kind, name, value", [
    ("sine", "omega", "3"), ("sine", "omega", True),
    ("cosine", "omega", None), ("cosine", "omega", math.nan),
    ("exponential", "rate", "2"), ("exponential", "rate", math.inf)])
def test_system_checks_the_parameter_of_a_hand_built_member(kind, name, value):
    # a member built without sine(), cosine() or exponential() reached the
    # system unchecked: "3" raised TypeError in tensor, and True ran as 1
    member = BasisFunction(kind, **{name: value})
    with pytest.raises(InvalidConfiguration,
                       match="%s must be a finite real number" % name):
        BasisSystem((constant(), power(1), member))


def test_system_rejects_empty_domain():
    with pytest.raises(DomainError):
        BasisSystem((constant(), power(1)), domain=(2.0, 2.0))
    # a NaN bound makes every point fail lo < x < hi
    with pytest.raises(DomainError):
        BasisSystem((constant(), power(1)), domain=(math.nan, 1.0))


@pytest.mark.parametrize("domain", [
    ("0", "1"), (True, 2), (0, 1, 2), (0,), None, 1.0, (0, 1j),
    pytest.param((0, 10 ** 400), id="10**400"), [[0, 1]]])
def test_system_domain_is_two_real_numbers(domain):
    with pytest.raises(InvalidConfiguration, match="domain"):
        BasisSystem((constant(), power(1)), domain=domain)


def test_system_domain_is_stored_as_floats():
    for domain in ((0, 1), [0, 1], np.array([0, 1]), (np.int64(0), 1.0)):
        system = BasisSystem((constant(), power(1)), domain=domain)
        assert system.domain == (0.0, 1.0)
        assert all(type(bound) is float for bound in system.domain)
    # the infinities stay allowed, for open ends
    assert BasisSystem((constant(), power(1)),
                       domain=(-math.inf, 0)).domain == (-math.inf, 0.0)


def test_reference_system():
    system = make_reference_basis()
    assert len(system) == 5
    assert system.rows(0.5, MAX_ORDER).shape == (MAX_ORDER + 1, 5)
    with pytest.raises(InvalidConfiguration, match="derivative order"):
        system.rows(0.5, MAX_ORDER + 1)
    assert system.eval(1, 2.0, 0) == pytest.approx(4.0)
    assert system.eval(3, 0.0, 1) == pytest.approx(-1.0)
    assert system.eval(2, 0.0, 1) == pytest.approx(3.0)
    assert system.eval(4, 0.0, 2) == pytest.approx(-2.0, rel=1e-13)
