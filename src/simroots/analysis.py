"""Diagnostics for the iteration's local structure.

phi and psi are the numerator and denominator polynomials of the correction
written in expanded form around a true root x_i, with Q built on the current
iterate snapshot:

    phi(x) = (a+1) [(x - x_i) f'(x) - a f(x)] Q_i(x) - (x - x_i) f(x) Q_i'(x)
    psi(x) = (a+1) f'(x) Q_i(x) - f(x) Q_i'(x)

where a = alpha_i.  phi vanishes to order alpha_i + 1 at the true root and
psi to order alpha_i - 1, which is what drives the cubic local convergence;
the checks here make those vanishing orders observable through
finite differences, without trusting the iteration itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from .confluent import RootConfiguration, q_derivative, q_value
from .errors import InsufficientHistory, InvalidConfiguration

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OrderEstimate:
    per_root: tuple
    method: str = "log-ratio"


def _true_root(f, i, override):
    if override is not None:
        return float(override)
    if f.construction_roots is None:
        raise InvalidConfiguration(
            "the polynomial does not carry construction roots; "
            "pass true_root explicitly"
        )
    return f.construction_roots.nodes[i][0]


def eval_phi(f, basis, iterate_cfg, i, x, true_root=None):
    """The expanded correction numerator at x for root index i.

    The true root location is taken from the polynomial's construction
    roots unless given explicitly.
    """
    xi = _true_root(f, i, true_root)
    alpha = iterate_cfg.nodes[i][1]
    fx = f.eval(x, 0)
    fpx = f.eval(x, 1)
    q = q_value(basis, iterate_cfg, i, x)
    qp = q_derivative(basis, iterate_cfg, i, x)
    return (alpha + 1.0) * ((x - xi) * fpx - alpha * fx) * q - (x - xi) * fx * qp


def eval_psi(f, basis, iterate_cfg, i, x):
    """The expanded correction denominator at x for root index i."""
    alpha = iterate_cfg.nodes[i][1]
    fx = f.eval(x, 0)
    fpx = f.eval(x, 1)
    q = q_value(basis, iterate_cfg, i, x)
    qp = q_derivative(basis, iterate_cfg, i, x)
    return (alpha + 1.0) * fpx * q - fx * qp


def finite_difference_derivative(fun, x, q, h):
    """Central binomial-stencil estimate of the q-th derivative."""
    total = math.fsum(
        (-1.0) ** k * math.comb(q, k) * fun(x + (q / 2.0 - k) * h)
        for k in range(q + 1)
    )
    return total / h ** q


def richardson_derivative(fun, x, q, h=1e-2):
    """Two-level Richardson extrapolation of the central stencil.

    Uses step sizes h, h/2, h/4, eliminating the h^2 and h^4 error terms.
    """
    d1 = finite_difference_derivative(fun, x, q, h)
    d2 = finite_difference_derivative(fun, x, q, h / 2.0)
    d3 = finite_difference_derivative(fun, x, q, h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def check_derivative_congruence(f, basis, true_cfg, scale,
                                deltas=(1e-2, 1e-3, 1e-4), probe_grid=None):
    """Deviation table of Q_i against scale * f^(alpha_i) under node shifts.

    Every node of true_cfg is moved by +delta; the reported deviation is
    the sup over all root indices and the probe grid of
    |Q_i(x) - scale * f^(alpha_i)(x)|.  A zero-shift row comes first: at
    the exact nodes the two quantities agree to rounding, and the
    deviation grows at most linearly in the shift.

    scale is the factor relating f's (normalized) coefficients to the raw
    cofactors; from_roots stores it as construction_scale.
    """
    if probe_grid is None:
        locs = true_cfg.locations
        probe_grid = np.linspace(min(locs) - 0.5, max(locs) + 0.5, 25)
    table = []
    for delta in (0.0,) + tuple(deltas):
        shifted = RootConfiguration(
            tuple((loc + delta, m) for loc, m in true_cfg.nodes)
        )
        worst = 0.0
        for i in range(len(true_cfg)):
            alpha = true_cfg.nodes[i][1]
            for x in probe_grid:
                dev = abs(q_value(basis, shifted, i, float(x))
                          - scale * f.eval(float(x), alpha))
                if dev > worst:
                    worst = dev
        table.append((delta, worst))
    return table


def _error_sequence(history, true_root, index):
    errors = []
    for entry in history:
        approx = getattr(entry, "approximations", entry)
        errors.append(abs(float(approx[index]) - true_root))
    return errors


def estimate_order(history, true_roots):
    """Empirical convergence order from an iteration history.

    For each root the estimate is ln e[k+1] / ln e[k] over the last
    strictly decreasing error pair that sits above the rounding floor
    100 * eps * (1 + |root|).  Trailing stalled entries, where a finished
    iterate no longer moves, are skipped because their ratio is
    meaningless.  Both errors of a pair must be below 1 for the log ratio
    to measure contraction.

    Raises InsufficientHistory when a root has fewer than 3 errors above
    the floor, or no usable pair at all.
    """
    per_root = []
    for r, root in enumerate(true_roots):
        root = float(root)
        errors = _error_sequence(history, root, r)
        floor = 100.0 * EPS * (1.0 + abs(root))
        usable = sum(1 for e in errors if e > floor)
        if usable < 3:
            raise InsufficientHistory(
                "root %d has only %d errors above the rounding floor" % (r, usable)
            )
        chosen = None
        for k in range(len(errors) - 1):
            ek, ek1 = errors[k], errors[k + 1]
            if ek1 > floor and floor < ek < 1.0 and ek1 < ek:
                chosen = math.log(ek1) / math.log(ek)
        if chosen is None:
            raise InsufficientHistory(
                "root %d has no usable decreasing error pair" % (r,)
            )
        per_root.append((r, chosen))
    return OrderEstimate(per_root=tuple(per_root))

