"""Generalized polynomial evaluation and root-driven construction."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from simroots import (
    BasisSystem,
    DimensionMismatch,
    GeneralizedPolynomial,
    InvalidConfiguration,
    RootConfiguration,
    constant,
    from_roots,
    make_reference_basis,
    power,
)
from simroots.genpoly import _term_sums


def _monomials(count):
    return BasisSystem(tuple(power(s) if s else constant() for s in range(count)))


def _residual_profile(f, cfg):
    """|f^(q)(x_j)| for each node j and q < alpha_j, in node-block order."""
    return [abs(value) for loc, mult in cfg.nodes
            for value, _ in f.row_sums(f.basis.rows(loc, mult - 1))]


def _quadratic():
    # (x - 1)(x - 2)
    return GeneralizedPolynomial(_monomials(3), (2.0, -3.0, 1.0))


def test_eval_values():
    f = _quadratic()
    assert f.eval(1.0) == 0.0
    assert f.eval(0.0, 1) == -3.0
    assert f.eval(3.0) == 2.0
    assert f.eval(5.0, 2) == 2.0


def test_eval_is_linear_in_coefficients():
    f = _quadratic()
    g = GeneralizedPolynomial(_monomials(3), 7.5 * f.coefficients)
    for x in (-1.2, 0.4, 2.9):
        for p in range(3):
            assert g.eval(x, p) == pytest.approx(7.5 * f.eval(x, p), rel=1e-15)


def test_eval_derivative_consistency():
    system = make_reference_basis()
    f = GeneralizedPolynomial(system, (0.3, -1.1, 0.7, 0.2, -0.5))
    h = 1e-4
    for x in (-0.8, 0.3, 1.7):
        for p in range(3):
            fd = (f.eval(x + h, p) - f.eval(x - h, p)) / (2 * h)
            exact = f.eval(x, p + 1)
            assert fd == pytest.approx(exact, rel=1e-5, abs=1e-8)


def test_term_magnitude_bounds_eval():
    f = GeneralizedPolynomial(make_reference_basis(), (0.3, -1.1, 0.7, 0.2, -0.5))
    for x in (-0.8, 0.3, 1.7):
        assert abs(f.eval(x)) <= f.term_magnitude(x) * (1 + 1e-15)


def _per_row_sums(terms):
    """The per-row sums _term_sums replaced, kept as the reference: value
    and magnitude both exactly rounded fsums."""
    try:
        value, magnitude = math.fsum(terms), math.fsum(map(abs, terms))
    except (OverflowError, ValueError):
        return None
    return (value, magnitude) if math.isfinite(magnitude) else None


def test_term_sums_take_exact_values_and_row_sum_scales():
    rng = np.random.default_rng(14)
    k = 9
    rows = rng.standard_normal((40, k)) * 10.0 ** rng.integers(-30, 30, (40, 1))
    weights = rng.standard_normal(k)
    sums = _term_sums(rows, weights)
    # a stack of (root, order) rows, as the probe rows are, sums the same
    assert _term_sums(rows.reshape(20, 2, k), weights) == sums
    # and so does the stack laid out column by column, as a selection of
    # a tensor's columns is
    assert _term_sums(np.asfortranarray(rows), weights) == sums
    for terms, got in zip(rows * weights, sums):
        value, magnitude = _per_row_sums(terms.tolist())
        assert got[0] == value == math.fsum(terms)
        assert got[1] == np.abs(terms).sum()
        # a plain sum of k terms of one sign is within (k - 1) u
        assert abs(got[1] - magnitude) <= (k - 1) * 2.0 ** -53 * magnitude


def test_term_sums_are_none_where_the_per_row_sums_are():
    inf, nan = math.inf, math.nan
    rows = [[1.0, 2.0, inf], [1.0, -inf, 2.0], [nan, 1.0, 2.0],
            [inf, -inf, 1.0], [1e308, 1e308, -1e308],  # fsum raises
            [1e308, -1e308, 1e308],  # the value fits, the scale does not
            [1.5, -2.5, 0.25], [0.0, 0.0, 0.0]]
    want = [_per_row_sums(row) for row in rows]
    assert [w is None for w in want] == [True] * 6 + [False] * 2
    assert _term_sums(np.array(rows), np.ones(3)) == want
    # the scale overflows; so does a product
    assert _term_sums(np.array([[1e308, 1e308]]), np.ones(2)) == [None] \
        == [_per_row_sums([1e308, 1e308])]
    assert _term_sums(np.array([[1e200, 1.0]]), np.array([1e200, 1.0])) \
        == [None]


def test_term_sums_check_row_by_row_where_a_stack_cannot_be_summed_at_once():
    # each stack equals the per-row sums row for row, in either layout:
    # all its terms are powers of two, so every order of the plain sums
    # gives the exact scale
    big, huge = 2.0 ** 1022, sys.float_info.max
    stacks = [
        # each scale 1.5 * 2**1023 is finite, but their sum is not
        np.array([[2 * big, -big], [-2 * big, big], [1.0, 0.5]]),
        # one row that is None among finite rows
        np.array([[1.0, 2.0, 3.0], [math.inf, 1.0, 1.0], [4.0, -5.0, 6.0]]),
        # a finite scale, as each addition rounds down to huge, whose
        # exact sum overflows: the fsum raises
        np.array([[huge] + [2.0 ** 969] * 3, [1.0, -2.0, 4.0, 8.0]]),
    ]
    for rows in stacks:
        want = [_per_row_sums(row) for row in rows.tolist()]
        weights = np.ones(rows.shape[1])
        assert _term_sums(rows, weights) == want
        assert _term_sums(np.asfortranarray(rows), weights) == want
        assert _term_sums(rows[::-1], weights) == want[::-1]
    assert [None in [_per_row_sums(row) for row in rows.tolist()]
            for rows in stacks] == [False, True, True]
    assert math.isinf(sum(np.abs(stacks[0]).sum(axis=1).tolist()))
    assert np.abs(stacks[2]).sum(axis=1)[0] == huge


def test_from_roots_monomial_double_pair():
    cfg = RootConfiguration(((0.0, 2), (1.0, 2)))
    f = from_roots(_monomials(5), cfg)
    # x^2 (x - 1)^2 up to scale
    want = np.array([0.0, 0.0, 1.0, -2.0, 1.0])
    k = int(np.argmax(np.abs(f.coefficients)))
    ratio = f.coefficients[k] / want[k]
    assert np.allclose(f.coefficients, ratio * want, rtol=1e-12, atol=1e-14)
    assert np.max(np.abs(f.coefficients)) == pytest.approx(1.0)


def test_from_roots_records_construction():
    cfg = RootConfiguration(((-0.5, 2), (3.0, 2)))
    f = from_roots(make_reference_basis(), cfg)
    assert f.construction_roots == cfg
    assert f.construction_scale > 0.0
    raw = f.construction_scale * f.coefficients
    g = GeneralizedPolynomial(f.basis, raw)
    for x in (-1.0, 0.2, 2.4):
        assert g.eval(x) == pytest.approx(f.construction_scale * f.eval(x),
                                          rel=1e-13, abs=1e-16)


def test_from_roots_accepts_plain_pairs():
    f = from_roots(_monomials(3), [(1.0, 1), (2.0, 1)])
    assert f.construction_roots.total_degree == 2
    assert abs(f.eval(1.0)) < 1e-14
    assert abs(f.eval(2.0)) < 1e-14


def test_from_roots_rejects_duplicate_locations():
    with pytest.raises(InvalidConfiguration):
        from_roots(_monomials(5), (((1.0, 2), (1.0, 2))))


def test_residual_profile_exact_roots():
    cfg = RootConfiguration(((-0.5, 2), (3.0, 2)))
    f = from_roots(make_reference_basis(), cfg)
    profile = _residual_profile(f, cfg)
    assert len(profile) == 4
    assert max(profile) < 1e-10


def test_residual_profile_perturbed_roots():
    cfg = RootConfiguration(((-0.5, 2), (3.0, 2)))
    f = from_roots(make_reference_basis(), cfg)
    off = RootConfiguration(((-0.4, 2), (2.8, 2)))
    profile = _residual_profile(f, off)
    assert max(profile) > 1e-6


def test_residual_profile_empty_configuration():
    f = _quadratic()
    assert _residual_profile(f, RootConfiguration(())) == []


def test_random_root_sets_round_trip():
    rng = np.random.default_rng(3)
    basis = _monomials(6)
    for _ in range(5):
        locs = np.sort(rng.uniform(-2.0, 2.0, 3))
        while np.min(np.diff(locs)) < 0.5:
            locs = np.sort(rng.uniform(-2.0, 2.0, 3))
        cfg = RootConfiguration(((locs[0], 2), (locs[1], 1), (locs[2], 2)))
        f = from_roots(basis, cfg)
        assert max(_residual_profile(f, cfg)) < 1e-10


def test_coefficient_length_checked():
    with pytest.raises(DimensionMismatch):
        GeneralizedPolynomial(_monomials(3), (1.0, 2.0))


def test_all_zero_coefficients_rejected():
    with pytest.raises(InvalidConfiguration):
        GeneralizedPolynomial(_monomials(3), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("coefficients", [
    [math.nan, 1.0, 0.0, 0.0, 0.0],
    [math.inf, 1.0, 0.0, 0.0, 0.0],
    np.array([1.0, 2.0, 3.0, 4.0, -math.inf]),
    np.ones((5, 1)),
    ["1", "2", "3", "4", "5"],
    [1j, 1, 1, 1, 1],
    [True, False, False, False, False],
    # float() of these raises OverflowError
    [10 ** 400, 1, 1, 1, 1],
    [1.0, 1.0, 1.0, 1.0, Fraction(-10 ** 400)],
])
def test_coefficients_that_are_not_finite_reals_rejected(coefficients):
    with pytest.raises(InvalidConfiguration):
        GeneralizedPolynomial(make_reference_basis(), coefficients)
