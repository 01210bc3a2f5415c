"""Node matrices, determinants, and coefficient extraction."""

import numpy as np
import pytest

from simroots import (
    BasisSystem,
    DimensionMismatch,
    GeneralizedPolynomial,
    InvalidConfiguration,
    RootConfiguration,
    SingularNodeSystem,
    SolverSettings,
    SolveStatus,
    build_matrix,
    constant,
    determinant,
    exponential,
    expression,
    first_row_cofactors,
    from_roots,
    make_reference_basis,
    power,
    q_derivative,
    q_value,
    sine,
    solve,
)
from simroots.confluent import _node_block, node_null_vector


def _monomials(count):
    return BasisSystem(tuple(power(s) if s else constant() for s in range(count)))


def test_root_configuration_basics():
    cfg = RootConfiguration(((1.0, 2), (4.0, 1)))
    assert cfg.total_degree == 3
    assert cfg.locations == (1.0, 4.0)
    assert cfg.multiplicities == (2, 1)
    assert len(cfg) == 2


def test_root_configuration_rejects_duplicates():
    with pytest.raises(InvalidConfiguration):
        RootConfiguration(((1.0, 1), (1.0, 2)))


def test_root_configuration_rejects_bad_multiplicity():
    with pytest.raises(InvalidConfiguration):
        RootConfiguration(((1.0, 0),))


def test_build_matrix_simple_nodes():
    cfg = RootConfiguration(((1.0, 1), (2.0, 1)))
    m = build_matrix(_monomials(3), cfg, 0.0, 0)
    assert np.allclose(m.entries, [[1, 0, 0], [1, 1, 1], [1, 2, 4]])
    m1 = build_matrix(_monomials(3), cfg, 0.0, 1)
    assert np.allclose(m1.entries[0], [0, 1, 0])
    assert np.allclose(m1.entries[1:], m.entries[1:])


def test_build_matrix_confluent_rows():
    cfg = RootConfiguration(((2.0, 2),))
    m = build_matrix(_monomials(3), cfg, 0.5, 0)
    # rows: probe values, node values, node first derivatives
    assert np.allclose(m.entries, [[1, 0.5, 0.25], [1, 2, 4], [0, 1, 4]])


def test_build_matrix_reference_first_row():
    system = make_reference_basis()
    cfg = RootConfiguration(((-0.5, 2), (3.0, 2)))
    m = build_matrix(system, cfg, 0.0, 2)
    assert m.entries[0] == pytest.approx([0.0, 2.0, 0.0, 1.0, -2.0], rel=1e-12)


def test_build_matrix_dimension_check():
    cfg = RootConfiguration(((1.0, 2), (2.0, 2)))
    with pytest.raises(DimensionMismatch):
        build_matrix(_monomials(3), cfg, 0.0, 0)


def test_determinant_small_cases():
    assert determinant(np.eye(3)) == pytest.approx(1.0)
    assert determinant(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(-2.0)
    assert determinant(np.array([[1.0, 1.0], [2.0, 2.0]])) == 0.0


def test_determinant_merged_vandermonde():
    cfg = RootConfiguration(((1.0, 1), (2.0, 1)))
    m = build_matrix(_monomials(3), cfg, 0.0, 0)
    assert determinant(m) == pytest.approx(2.0, rel=1e-14)


def test_determinant_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        determinant(np.ones((2, 3)))


def test_q_value_example():
    cfg = RootConfiguration(((1.0, 1), (2.0, 1)))
    assert q_value(_monomials(3), cfg, 0, 0.0) == pytest.approx(-3.0, rel=1e-13)
    assert q_derivative(_monomials(3), cfg, 0, 0.0) == pytest.approx(2.0, rel=1e-13)


def test_q_vanishes_when_first_row_order_exceeds_degree():
    cfg = RootConfiguration(((1.0, 1), (2.0, 1)))
    m = build_matrix(_monomials(3), cfg, 0.5, 3)
    assert determinant(m) == 0.0


def test_q_matches_derivative_of_unnormalized_polynomial():
    """On its own construction configuration the node determinant equals
    the corresponding derivative of the raw-coefficient polynomial."""
    system = make_reference_basis()
    cfg = RootConfiguration(((-0.5, 2), (3.0, 2)))
    raw = first_row_cofactors(system, cfg)
    f = GeneralizedPolynomial(system, raw)
    for i, (_, alpha) in enumerate(cfg.nodes):
        for probe in (-0.7, 0.1, 1.3, 2.5):
            q = q_value(system, cfg, i, probe)
            assert q == pytest.approx(f.eval(probe, alpha), rel=1e-8), (i, probe)
            qp = q_derivative(system, cfg, i, probe)
            assert qp == pytest.approx(f.eval(probe, alpha + 1), rel=1e-8), (i, probe)


def test_q_invariant_under_node_permutation():
    basis = _monomials(4)
    a = RootConfiguration(((0.9, 1), (2.1, 1), (3.2, 1)))
    b = RootConfiguration(((3.2, 1), (0.9, 1), (2.1, 1)))
    for x in (0.3, 1.5):
        qa = q_value(basis, a, 0, x)
        qb = q_value(basis, b, 1, x)
        assert abs(abs(qa) - abs(qb)) <= 1e-12 * abs(qa)


def test_determinant_against_cofactor_expansion():
    def cofactor_det(a):
        n = a.shape[0]
        if n == 1:
            return a[0, 0]
        total = 0.0
        for j in range(n):
            minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
            total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
        return total

    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5, size=(4, 4))
        assert determinant(a) == pytest.approx(cofactor_det(a), rel=1e-11)


def _assert_proportional(got, want, rel=1e-10):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    k = int(np.argmax(np.abs(want)))
    scale = got[k] / want[k]
    assert scale != 0.0
    assert np.allclose(got, scale * want, rtol=rel, atol=1e-14 * abs(scale))


def test_coefficients_quadratic_from_two_roots():
    cfg = RootConfiguration(((1.0, 1), (2.0, 1)))
    coeffs = from_roots(_monomials(3), cfg).coefficients
    _assert_proportional(coeffs, (2.0, -3.0, 1.0))
    assert max(abs(c) for c in coeffs) == pytest.approx(1.0)


def test_coefficients_linear_from_one_root():
    cfg = RootConfiguration(((5.0, 1),))
    coeffs = from_roots(_monomials(2), cfg).coefficients
    _assert_proportional(coeffs, (-5.0, 1.0))


def test_coefficients_reference_roots_have_tiny_residuals():
    system = make_reference_basis()
    cfg = RootConfiguration(((-0.5, 2), (3.0, 2)))
    coeffs = from_roots(system, cfg).coefficients
    f = GeneralizedPolynomial(system, coeffs)
    for x, alpha in cfg.nodes:
        for q in range(alpha):
            assert abs(f.eval(x, q)) < 1e-10


def _normwise_residual(f, cfg):
    """max |f^(q)(x_j)| / (||a||_inf ||row||_1) over the node rows of cfg."""
    a = float(np.max(np.abs(f.coefficients)))
    return max(abs(f.row_sums(row)[0]) / (a * float(np.sum(np.abs(row))))
               for x, mult in cfg.nodes for row in f.basis.rows(x, mult - 1))


_CONSTRUCTION_CASES = {
    "monomial-%d" % n: (_monomials(n + 1), RootConfiguration(
        tuple((x, 1) for x in np.linspace(-0.9, 0.9, n))))
    for n in (8, 12, 16, 20)
}
_CONSTRUCTION_CASES["mixed-33222"] = (_monomials(13), RootConfiguration(
    tuple(zip((-0.8, -0.4, 0.0, 0.4, 0.8), (3, 3, 2, 2, 2)))))
_CONSTRUCTION_CASES["reference"] = (make_reference_basis(), RootConfiguration(
    ((-0.5, 2), (3.0, 2))))


@pytest.mark.parametrize("case", sorted(_CONSTRUCTION_CASES))
def test_from_roots_residual_is_at_rounding_level(case):
    # n+1 separately rounded minors left 2.7e-15 at n=12 and 2.8e-13 at
    # n=20; the refined null vector stays near 1e-17
    basis, cfg = _CONSTRUCTION_CASES[case]
    assert _normwise_residual(from_roots(basis, cfg), cfg) <= 1e-16


@pytest.mark.parametrize("basis,cfg", [
    (make_reference_basis(), RootConfiguration(((-0.5, 2), (3.0, 2)))),
    (_monomials(3), RootConfiguration(((1.0, 1), (2.0, 1)))),
    (_monomials(5), RootConfiguration(((-0.7, 2), (0.4, 1), (1.1, 1)))),
    (_monomials(7), RootConfiguration(
        tuple((x, 1) for x in (-0.9, -0.5, -0.1, 0.3, 0.6, 0.9)))),
])
def test_first_row_cofactors_match_explicit_minors(basis, cfg):
    block = np.vstack([basis.rows(x, mult - 1) for x, mult in cfg.nodes])
    minors = np.array([(-1.0) ** j * determinant(np.delete(block, j, axis=1))
                       for j in range(block.shape[1])])
    got = first_row_cofactors(basis, cfg)
    assert np.max(np.abs(got - minors)) <= 1e-13 * np.max(np.abs(minors))


def test_from_roots_accepts_an_ill_scaled_basis():
    # exp(30 x) reaches 3e19 on the nodes beside entries of order 1; the
    # unscaled block's singular value ratio (1.3e-20) used to refuse it
    basis = BasisSystem((constant(), power(1), power(2), exponential(30.0)))
    cfg = RootConfiguration(((0.5, 1), (1.0, 1), (1.5, 1)))
    f = from_roots(basis, cfg)
    for method in ("method3", "method13"):
        report = solve(f, (0.55, 0.95, 1.45), (1, 1, 1),
                       SolverSettings(method=method))
        assert report.status is SolveStatus.converged
        assert report.history[-1].approximations == pytest.approx(
            cfg.locations, abs=1e-13)


def test_singular_node_system_detected():
    # even functions cannot separate a symmetric node pair
    basis = BasisSystem((constant(), power(2), power(4)))
    cfg = RootConfiguration(((1.0, 1), (-1.0, 1)))
    with pytest.raises(SingularNodeSystem):
        from_roots(basis, cfg)


def test_singular_node_system_zero_row():
    basis = BasisSystem((power(1), power(2)))
    cfg = RootConfiguration(((0.0, 1),))
    with pytest.raises(SingularNodeSystem):
        from_roots(basis, cfg)


def test_coefficients_dimension_check():
    cfg = RootConfiguration(((1.0, 1),))
    with pytest.raises(DimensionMismatch):
        from_roots(_monomials(3), cfg)


def test_sine_pair_system_regular_away_from_period():
    basis = BasisSystem((sine(1.0), sine(2.0)))
    cfg = RootConfiguration(((1.0, 1),))
    coeffs = from_roots(basis, cfg).coefficients
    f = GeneralizedPolynomial(basis, coeffs)
    assert abs(f.eval(1.0)) < 1e-14


def test_non_finite_node_block_is_refused():
    # x^200 overflows to inf at 100 and 1000 without raising, which used to
    # give NaN coefficients
    basis = BasisSystem((expression("1"), expression("x"),
                         expression("x^200")))
    cfg = RootConfiguration(((100.0, 1), (1000.0, 1)))
    with pytest.raises(OverflowError):
        first_row_cofactors(basis, cfg)
    with pytest.raises(OverflowError):
        from_roots(basis, cfg)


def test_null_vector_of_a_block_with_a_subnormal_column_is_finite():
    # at x = 6.7e-313 the x^3 column holds only 6x, about 2^-1034, and
    # undoing its column scale used to overflow c to inf
    x = 6.67522157557e-313
    block = _node_block(_monomials(4), RootConfiguration(((x, 3),)))
    c, ratio = node_null_vector(block)
    assert np.all(np.isfinite(c)) and ratio > 0.0
    assert c[3] != 0.0
    assert np.max(np.abs(block @ c)) <= 1e-15 * np.max(np.abs(c))
