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

from .confluent import (RootConfiguration, _node_block, checked_index,
                        determinant, q_derivative, q_value)
from .errors import DimensionMismatch, InsufficientHistory, InvalidConfiguration
from .genpoly import checked_sums

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OrderEstimate:
    per_root: tuple
    method: str = "log-ratio"


def _construction_roots(f):
    if f.construction_roots is None:
        raise InvalidConfiguration(
            "the polynomial does not carry construction roots; "
            "build it with from_roots or pass true_root explicitly"
        )
    return f.construction_roots


def eval_phi(f, iterate_cfg, i, x, true_root=None):
    """The expanded correction numerator at x for root index i.

    The true root location is taken from the polynomial's construction
    roots unless given explicitly; Q is built on f's basis.  Raises
    InvalidConfiguration unless i indexes a node of iterate_cfg, and of
    the construction roots where it reads them.
    """
    alpha = iterate_cfg.nodes[checked_index(i, len(iterate_cfg),
                                            "root index")][1]
    if true_root is None:
        roots = _construction_roots(f)
        true_root = roots.nodes[checked_index(i, len(roots), "root index")][0]
    xi = float(true_root)
    fx = f.eval(x, 0)
    fpx = f.eval(x, 1)
    q = q_value(f.basis, iterate_cfg, i, x)
    qp = q_derivative(f.basis, iterate_cfg, i, x)
    return (alpha + 1.0) * ((x - xi) * fpx - alpha * fx) * q - (x - xi) * fx * qp


def eval_psi(f, iterate_cfg, i, x):
    """The expanded correction denominator at x for root index i, checked
    as in eval_phi."""
    alpha = iterate_cfg.nodes[checked_index(i, len(iterate_cfg),
                                            "root index")][1]
    fx = f.eval(x, 0)
    fpx = f.eval(x, 1)
    q = q_value(f.basis, iterate_cfg, i, x)
    qp = q_derivative(f.basis, iterate_cfg, i, x)
    return (alpha + 1.0) * fpx * q - fx * qp


def finite_difference_derivative(fun, x, q, h):
    """Central binomial-stencil estimate of the q-th derivative."""
    total = math.fsum(
        (-1.0) ** k * math.comb(q, k) * fun(x + (q / 2.0 - k) * h)
        for k in range(q + 1)
    )
    return total / h ** q


def richardson_derivative(fun, x, q):
    """Two-level Richardson extrapolation of the central stencil.

    Uses step sizes h, h/2, h/4 with h = 1e-2, eliminating the h^2 and
    h^4 error terms.
    """
    h = 1e-2
    d1 = finite_difference_derivative(fun, x, q, h)
    d2 = finite_difference_derivative(fun, x, q, h / 2.0)
    d3 = finite_difference_derivative(fun, x, q, h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def check_derivative_congruence(f):
    """Deviation table of Q_i against scale * f^(alpha_i) under node shifts.

    Every construction root of f is moved by +delta, delta in 0, 1e-2,
    1e-3, 1e-4; the deviation is the sup over all root indices and a
    25-point probe grid of |Q_i(x) - scale * f^(alpha_i)(x)|, with scale
    = f.construction_scale.  At the exact nodes the two quantities agree
    to rounding, and the deviation grows at most linearly in the shift.
    Raises InvalidConfiguration when f carries no construction roots.

    Each entry is what q_value and f.eval give point by point: every
    shift's node block is built once, and for each multiplicity alpha the
    probe rows of order alpha and f^(alpha) on the grid come from one
    basis.tensor call.
    """
    true_cfg = _construction_roots(f)
    basis, scale = f.basis, f.construction_scale
    locs = true_cfg.locations
    probe_grid = np.linspace(min(locs) - 0.5, max(locs) + 0.5, 25)
    probes = {}  # alpha: (the probe rows, scale * f^(alpha) at each)
    for alpha in true_cfg.multiplicities:
        if alpha not in probes:
            rows = basis.tensor(probe_grid, alpha)[:, alpha]
            probes[alpha] = rows, [scale * checked_sums(sums)[0]
                                   for sums in f.row_sums(rows)]
    table = []
    for delta in (0.0, 1e-2, 1e-3, 1e-4):
        block = _node_block(basis, RootConfiguration(
            tuple((loc + delta, m) for loc, m in true_cfg.nodes)))
        worst = 0.0
        for alpha in true_cfg.multiplicities:
            for row, target in zip(*probes[alpha]):
                dev = abs(determinant(np.vstack([row, block])) - target)
                if dev > worst:
                    worst = dev
        table.append((delta, worst))
    return table


def estimate_order(history, true_roots):
    """Empirical convergence order from an iteration history.

    For each root the estimate is ln e[k+1] / ln e[k] over the last
    strictly decreasing error pair that sits above the rounding floor
    100 * eps * (1 + |root|).  Trailing stalled entries, where a finished
    iterate no longer moves, are skipped because their ratio is
    meaningless.  Both errors of a pair must be below 1 for the log ratio
    to measure contraction.

    Raises DimensionMismatch unless every entry of history (an
    IterationState or a sequence of approximations) holds one
    approximation per true root, and InsufficientHistory when a root has
    fewer than 3 errors above the floor, or no usable pair at all.
    """
    rows = [getattr(entry, "approximations", entry) for entry in history]
    for row in rows:
        if len(row) != len(true_roots):
            raise DimensionMismatch(
                "%d true roots for a history entry of %d approximations"
                % (len(true_roots), len(row)))
    per_root = []
    for r, root in enumerate(true_roots):
        root = float(root)
        errors = [abs(float(row[r]) - root) for row in rows]
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

