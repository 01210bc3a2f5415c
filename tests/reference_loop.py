"""The solve loop that computes every sweep, cycles included.

`solve` stops as `stalled` at the first state that ends a cycle no later
sweep can leave (`first_stall`); this loop computes every sweep with
`_step` until it converges, a guard fires or the budget runs out.  So
`solve` must give this loop's report cut at its first such state
(`cut_at_first_stall`).  Tests compare them on fixed and fuzzed problems.
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
    approximations and last_corrections (None before the first sweep),
    and the reason."""
    states = [(s.k, s.multiplicities.tobytes(), s.approximations.tobytes(),
               None if s.last_corrections is None
               else s.last_corrections.tobytes())
              for s in report.history]
    return (report.status, report.iterations_used,
            np.array(report.final_residuals, dtype=float).tobytes(), states,
            report.reason)


def _largest(state):
    return max(abs(c) for c in state.last_corrections.tolist())


def first_stall(history):
    """(k, reason) for the first state k that ends a solve as stalled, or
    None: state k has the approximation bytes of an earlier state j; or
    sweep k's largest correction is at least half of sweep k - 1's, and
    either every x_i is within 4 eps (1 + |x_i|) of state k - 2's, or
    some root i of even multiplicity alpha has its corrections of sweeps
    k - 3 to k all above 1e-6 (1 + |x_i|), each over the one before in
    [-1.05, -0.9].  The reason is the one `solve` gives."""
    eps = 2.0 ** -52
    seen = {}
    for k, state in enumerate(history):
        j = seen.setdefault(state.approximations.tobytes(), k)
        if j != k:
            return k, "state %d repeats state %d (period %d)" % (k, j, k - j)
        if k < 2 or _largest(state) < 0.5 * _largest(history[k - 1]):
            continue
        xs = state.approximations.tolist()
        if all(abs(x - y) <= 4.0 * eps * (1.0 + abs(x)) for x, y in zip(
                xs, history[k - 2].approximations.tolist())):
            return k, "state %d is within 4 eps of state %d (period 2)" % (
                k, k - 2)
        if k < 4:
            continue
        for i, alpha in enumerate(state.multiplicities.tolist()):
            corrections = [s.last_corrections[i] for s in history[k - 3:k + 1]]
            if alpha % 2 or not all(abs(c) > 1e-6 * (1.0 + abs(xs[i]))
                                    for c in corrections):
                continue
            ratios = [b / a for a, b in zip(corrections, corrections[1:])]
            if all(-1.05 <= ratio <= -0.9 for ratio in ratios):
                return k, (
                    "root %d reflects: correction ratios %s about "
                    "1 - alpha/mu = -1 (alpha %d, mu %d)"
                    % (i, ", ".join("%.4f" % r for r in ratios), alpha,
                       alpha // 2))
    return None


def cut_at_first_stall(f, report):
    """The report `solve` gives where this loop gave `report`: its history
    up to the first stalled state k, status stalled, iterations_used k, the
    rule's reason and fresh residuals at state k.  A report with no such
    state, or one that converges or leaves the domain at that state
    itself (those tests run first), is returned as it is."""
    stall = first_stall(report.history)
    if stall is None or (report.iterations_used == stall[0]
                         and report.status in (SolveStatus.converged,
                                               SolveStatus.domain_escape)):
        return report
    k, reason = stall
    history = report.history[:k + 1]
    residuals, _ = solver._final_state(f, history[-1].approximations,
                                       history[-1].multiplicities)
    return SolveReport(history, SolveStatus.stalled, k, residuals, reason)
