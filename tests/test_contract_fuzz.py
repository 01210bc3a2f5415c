"""Seeded fuzzing of the solver contract on small catalog bases.

Three claims, on bases drawn from powers, sine/cosine with omega up to
1e3, exponentials and the inverse quadratic, with coefficients in [-1, 1]
or anywhere in [-1e300, 1e300], where products with the basis values
leave the float range, and starts anywhere in [-1e308, 1e308]:
- solve returns a report or raises one of its input errors
  (DimensionMismatch, InvalidConfiguration);
- single_correction, called alone, and the corrections of the sweep _step
  agree bitwise on every drawn snapshot, or raise the same exception;
- solve gives the report of the loop that computes every sweep, cut at
  the first state that ends a cycle (a repeat, bit for bit or within
  rounding, or a reflecting root), bit for bit, or raises the same input
  error; a report other than converged or domain_escape is stalled
  exactly when its last state ends a cycle, with that rule's reason, and
  max_iterations spends the budget on states none of which does.
Hypothesis runs derandomized, so every run draws the same examples.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simroots import (
    DimensionMismatch,
    GeneralizedPolynomial,
    InvalidConfiguration,
    IterationState,
    SolveReport,
    SolverSettings,
    SolveStatus,
    single_correction,
    solve,
)
from simroots.basis import (BasisSystem, constant, cosine, exponential,
                            inverse_quadratic, power, sine)
from simroots.solver import METHODS, _step

from reference_loop import (cut_at_first_stall, first_stall,
                            reference_solve, report_bytes)

# no deadline or speed health check: timings vary with the host's load
FUZZ = settings(derandomize=True, database=None, max_examples=100,
                deadline=None, suppress_health_check=[HealthCheck.too_slow])

MEMBERS = st.one_of(
    st.integers(1, 6).map(power),
    st.floats(-1e3, 1e3).filter(bool).map(sine),
    st.floats(-1e3, 1e3).filter(bool).map(cosine),
    st.floats(-5.0, 5.0).filter(bool).map(exponential),
    st.just(inverse_quadratic()),
)
COEFFICIENTS = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e300, 1e300))
STARTS = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e308, 1e308),
                   st.sampled_from([-1e308, -1e200, 1e200, 1e308]))


@st.composite
def problems(draw):
    """(f, initial, multiplicities, settings) on the monomial basis or on
    drawn members; the multiplicities mostly sum to the basis degree, and
    sometimes break it on purpose."""
    multiplicities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    degree = sum(multiplicities)
    if draw(st.booleans()):
        members = [power(s) for s in range(1, degree + 1)]
    else:
        members = draw(st.lists(MEMBERS, min_size=degree, max_size=degree))
    system = BasisSystem((constant(), *members))
    coefficients = draw(st.lists(COEFFICIENTS, min_size=len(system),
                                 max_size=len(system)).filter(any))
    f = GeneralizedPolynomial(system, np.array(coefficients))
    broken = draw(st.sampled_from([None] * 5 + [0, 2.5, "sum"]))
    if broken == "sum":
        multiplicities[0] += 1
    elif broken is not None:
        multiplicities[0] = broken
    initial = draw(st.lists(STARTS, min_size=len(multiplicities),
                            max_size=len(multiplicities)))
    method = draw(st.sampled_from(METHODS))
    return f, initial, multiplicities, SolverSettings(method=method,
                                                      max_iterations=8)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the contract compares exception types
        return type(exc)


@FUZZ
@given(problems())
def test_solve_returns_a_report_or_refuses_its_input(problem):
    f, initial, multiplicities, solver_settings = problem
    try:
        report = solve(f, initial, multiplicities, solver_settings)
    except (DimensionMismatch, InvalidConfiguration):
        return
    assert isinstance(report, SolveReport)
    assert len(report.history) == report.iterations_used + 1


@FUZZ
@given(problems())
def test_standalone_and_swept_corrections_agree(problem):
    f, initial, multiplicities, solver_settings = problem
    try:
        state = IterationState(np.array(initial), multiplicities)
    except InvalidConfiguration:
        return
    standalone = []
    for i in range(len(initial)):
        standalone.append(_outcome(
            lambda: single_correction(f, state, i, solver_settings)))
        if isinstance(standalone[-1], type):
            break
    swept = _outcome(lambda: _step(f, state, solver_settings)[1])
    if isinstance(swept, type):
        # the sweep raises what the first failing root raises alone
        assert standalone[-1] is swept
    else:
        assert not isinstance(standalone[-1], type), standalone[-1]
        assert np.array(standalone).tobytes() == swept.tobytes()


@FUZZ
@given(problems(), st.sampled_from([8, 30]))
def test_solve_matches_the_loop_that_computes_every_sweep(problem, budget):
    f, initial, multiplicities, solver_settings = problem
    solver_settings = replace(solver_settings, max_iterations=budget)
    expected = _outcome(lambda: reference_solve(
        f, initial, multiplicities, solver_settings))
    got = _outcome(lambda: solve(f, initial, multiplicities, solver_settings))
    if isinstance(expected, type):
        assert expected in (DimensionMismatch, InvalidConfiguration)
        assert got is expected
        return
    assert report_bytes(got) == report_bytes(cut_at_first_stall(f, expected))
    stall = first_stall(got.history)
    # only the last state may end a cycle; a solve may also converge or
    # leave the domain there, as when a sweep holds every root at a root
    assert stall is None or stall[0] == got.iterations_used
    if got.status not in (SolveStatus.converged, SolveStatus.domain_escape):
        assert (stall is not None) is (got.status is SolveStatus.stalled)
    assert got.reason == (stall[1] if got.status is SolveStatus.stalled
                          else None)
    if got.status is SolveStatus.max_iterations:
        assert got.iterations_used == budget
