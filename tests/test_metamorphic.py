"""Metamorphic invariants of solve that hold bit for bit.

- Coefficients times a power of two: every value a sweep sums scales by
  that power exactly, and every ratio a correction reads is unchanged, so
  every state stays, and the final residuals scale by the same power.
  Checked for every method, on monomial bases and on the paper's basis
  {1, x^2, sin 3x, e^-x, 1/(1+x^2)}.  The status and iteration count stay
  too: the residual check that a converged status needs reads the bound
  1e-6 (max_j |a_j| + term magnitude), which scales with the coefficients.
- x -> -x on a monomial basis, with a_j -> (-1)^j a_j: the new polynomial
  is f(-x), and every iterate and correction changes sign and nothing
  else.

Whole histories are compared with np.array_equal.  The problems come from
a seeded generator, so every run checks the same ones.  Permuting the
roots is not such an invariant: the node block is stacked in the order
the roots are listed, and LAPACK's SVD of a row-permuted block rounds
differently.
"""

import numpy as np
import pytest

from simroots import (GeneralizedPolynomial, RootConfiguration,
                      SolverSettings, SolveStatus, from_roots,
                      make_reference_basis, solve)
from simroots import solver
from simroots.basis import BasisSystem, constant, power
from simroots.solver import METHODS

SCALES = (2.0 ** -30, 2.0 ** 40)


def _monomial_problems(multiplicities, count, rng):
    """count problems on {1, x, ..., x^n}, n = sum(multiplicities): roots on
    a jittered even grid in [-0.9, 0.9], each start 5-30% of the gap to the
    nearest other root away from its root, with either sign."""
    m = len(multiplicities)
    basis = BasisSystem((constant(), *(power(s) for s in range(
        1, sum(multiplicities) + 1))))
    step = 1.8 / m
    problems = []
    for _ in range(count):
        roots = -0.9 + (np.arange(m) + 0.5 + rng.uniform(-0.2, 0.2, m)) * step
        gaps = np.array([min(abs(r - o) for o in roots if o != r)
                         for r in roots])
        initial = roots + rng.choice((-1.0, 1.0), m) * rng.uniform(
            0.05, 0.3) * gaps
        f = from_roots(basis, RootConfiguration(tuple(zip(
            roots.tolist(), multiplicities))))
        problems.append((f, tuple(initial.tolist()), multiplicities))
    return problems


def _paper_problems(count, rng):
    """count double-double problems on the paper's basis: roots in
    (-1, 0) and (2.5, 3.5), each start 0.01-0.08 away with either sign."""
    basis = make_reference_basis()
    problems = []
    for _ in range(count):
        roots = (rng.uniform(-1.0, 0.0), rng.uniform(2.5, 3.5))
        initial = tuple(r + rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.08)
                        for r in roots)
        f = from_roots(basis, RootConfiguration(((roots[0], 2),
                                                 (roots[1], 2))))
        problems.append((f, initial, (2, 2)))
    return problems


_RNG = np.random.default_rng(20011)
MONOMIAL = (_monomial_problems((1,) * 8, 6, _RNG)
            + _monomial_problems((3, 2, 2, 1), 6, _RNG))
PAPER = _paper_problems(6, _RNG)


def _assert_mapped(base, other, sign=1.0, scale=1.0):
    """other's report is base's with every iterate and correction times
    sign and every residual times scale, bit for bit, and the same status,
    iteration count and reason."""
    assert (other.status, other.iterations_used, other.reason) == (
        base.status, base.iterations_used, base.reason)
    assert np.array_equal(np.array(other.final_residuals),
                          scale * np.array(base.final_residuals))
    for a, b in zip(base.history, other.history, strict=True):
        assert np.array_equal(b.approximations, sign * a.approximations)
        if a.last_corrections is None:
            assert b.last_corrections is None
        else:
            assert np.array_equal(b.last_corrections,
                                  sign * a.last_corrections)


# ehrlich needs the monomial basis
@pytest.mark.parametrize("basis, method", [
    *(("monomial", method) for method in METHODS),
    ("paper", "method3"), ("paper", "method13")])
def test_power_of_two_coefficient_scaling_keeps_every_state(basis, method):
    settings = SolverSettings(method=method)
    for f, initial, multiplicities in {"monomial": MONOMIAL,
                                       "paper": PAPER}[basis]:
        base = solve(f, initial, multiplicities, settings)
        for c in SCALES:
            scaled = GeneralizedPolynomial(f.basis, c * f.coefficients)
            _assert_mapped(base, solve(scaled, initial, multiplicities,
                                       settings), scale=c)


def test_the_verdict_on_a_held_foreign_point_does_not_depend_on_scale():
    # two (3, 2, 2, 1) method13 solves hold a point 0.159 and 0.145 from
    # their roots from state 6 and 5 on.  A residual bound of 1e-6 (1 +
    # term magnitude) refused it at 2^0 and passed it at 2^-30, where the
    # 1 dwarfs every scaled residual; scaled by max_j |a_j|, it refuses it
    # at every scale, so both solves stall at the held point's repeat
    settings = SolverSettings(method="method13")
    for index, k in ((9, 7), (11, 6)):
        f, initial, multiplicities = MONOMIAL[index]
        for c in (1.0,) + SCALES:
            scaled = GeneralizedPolynomial(f.basis, c * f.coefficients)
            report = solve(scaled, initial, multiplicities, settings)
            assert (report.status, report.iterations_used) == (
                SolveStatus.stalled, k), (index, c)
            state = report.history[-1]
            assert not solver._final_state(scaled, state.approximations,
                                           state.multiplicities)[1]


@pytest.mark.parametrize("method", METHODS)
def test_reflecting_x_negates_every_state(method):
    settings = SolverSettings(method=method)
    for f, initial, multiplicities in MONOMIAL:
        signs = (-1.0) ** np.arange(len(f.coefficients))
        reflected = GeneralizedPolynomial(f.basis, signs * f.coefficients)
        _assert_mapped(solve(f, initial, multiplicities, settings),
                       solve(reflected, tuple(-x for x in initial),
                             multiplicities, settings), sign=-1.0)
