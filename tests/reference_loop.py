"""The solve loop that computes every sweep, repeated snapshots included.

`solve` stops as `stalled` at the first state whose approximations repeat
the bytes of an earlier state; this loop computes every sweep with `_step`
until it converges, a guard fires or the budget runs out.  So `solve`
must give this loop's report cut at its first repeated state
(`cut_at_first_repeat`).  Tests compare them on fixed and fuzzed problems.
"""

import numpy as np

from simroots import solver
from simroots.errors import DegenerateDenominator, DomainError, IterateCollision
from simroots.solver import (IterationState, SolveReport, SolverSettings,
                             SolveStatus)


def reference_solve(f, initial, multiplicities, settings=None):
    settings = settings or SolverSettings()
    state = IterationState(np.array(initial, dtype=float), multiplicities)
    mult = state.multiplicities
    solver._check_inputs(f, mult.tolist(), settings)
    history = [state]
    status = residuals = None

    if not all(f.basis.contains(x) for x in state.approximations):
        status = SolveStatus.domain_escape

    while status is None:
        if state.k >= settings.max_iterations:
            status = SolveStatus.max_iterations
            break
        try:
            new, corrections, _ = solver._step(f, state, settings)
        except IterateCollision:
            status = SolveStatus.iterate_collision
            break
        except DegenerateDenominator:
            status = SolveStatus.degenerate_denominator
            break
        except (DomainError, OverflowError):
            status = SolveStatus.domain_escape
            break
        state = IterationState(new, mult, state.k + 1, corrections)
        history.append(state)
        if not all(f.basis.contains(x) for x in new):
            status = SolveStatus.domain_escape
            break
        if float(np.max(np.abs(corrections))) < settings.tolerance:
            residuals, passes = solver._final_state(f, new, mult)
            if passes:
                status = SolveStatus.converged
                break

    final = history[-1]
    if status is not SolveStatus.converged:
        residuals, _ = solver._final_state(f, final.approximations, mult)
    return SolveReport(history, status, final.k, residuals)


def report_bytes(report):
    """Everything a report holds, as bytes where it holds floats: status,
    iterations_used, final_residuals and, per state, k, multiplicities,
    approximations and last_corrections (None before the first sweep)."""
    states = [(s.k, s.multiplicities.tobytes(), s.approximations.tobytes(),
               None if s.last_corrections is None
               else s.last_corrections.tobytes())
              for s in report.history]
    return (report.status, report.iterations_used,
            np.array(report.final_residuals, dtype=float).tobytes(), states)


def first_repeat(history):
    """(j, k) for the first state k whose approximation bytes repeat those
    of an earlier state j, or None when no state repeats."""
    seen = {}
    for state in history:
        j = seen.setdefault(state.approximations.tobytes(), state.k)
        if j != state.k:
            return j, state.k
    return None


def cut_at_first_repeat(f, report):
    """The report `solve` gives where this loop gave `report`: its history
    up to the first repeated state k, status stalled, iterations_used k and
    fresh residuals at state k.  A report with no repeat, or one that
    converges at the repeat itself, is returned as it is."""
    repeat = first_repeat(report.history)
    if repeat is None or (report.status is SolveStatus.converged
                          and report.iterations_used == repeat[1]):
        return report
    history = report.history[:repeat[1] + 1]
    residuals, _ = solver._final_state(f, history[-1].approximations,
                                       history[-1].multiplicities)
    return SolveReport(history, SolveStatus.stalled, repeat[1], residuals)
