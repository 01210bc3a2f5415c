"""Generalized polynomial evaluation and root-driven construction."""

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


def _monomials(count):
    return BasisSystem(tuple(power(s) if s else constant() for s in range(count)))


def _residual_profile(f, cfg):
    """|f^(q)(x_j)| for each node j and q < alpha_j, in node-block order."""
    return [abs(f.row_sums(row)[0]) for loc, mult in cfg.nodes
            for row in f.basis.rows(loc, mult - 1)]


def _quadratic():
    # (x - 1)(x - 2)
    return GeneralizedPolynomial(_monomials(3), (2.0, -3.0, 1.0))


def test_eval_values():
    f = _quadratic()
    assert f.eval(1.0) == 0.0
    assert f.eval(0.0, 1) == -3.0
    assert f(3.0) == 2.0
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
