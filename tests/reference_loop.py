"""The solve loop without cycle replay: one computed sweep per iteration.

`solve` replays the sweeps after its iterates repeat an earlier snapshot
bit for bit; this loop computes every one of them with `_step`, so the two
must give the same report.  Tests compare them on fixed and fuzzed problems.
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
