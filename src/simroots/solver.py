"""Simultaneous root iterations with multiplicity-aware corrections.

All methods are total-step: every correction of iteration k+1 is computed
from the full k-th snapshot, so the per-root work is order-independent and
can run concurrently.

method3   x' = x - alpha f / (f' - f Q'/((alpha+1) Q))
method13  x' = x - f^(alpha-1) / (f^(alpha) - f^(alpha-1) Q'/(2 Q))
ehrlich   x' = x - alpha / (f'/f - sum_{j != i} alpha_j/(x_i - x_j))

Q and Q' are confluent determinants det([r; B]) on the current iterate
snapshot: B is the block of node rows, shared by every root, and r is a
probe row of basis derivatives at x_i.  Since det([r; B]) = kappa (r . c)
for the null vector c of B, with one kappa for every probe row, the ratio
Q'/Q is (r_{alpha+1} . c) / (r_alpha . c): one SVD of B per sweep
(confluent.node_null_vector) serves all roots and both probe orders.  A
rank guard stops the solve when B is numerically singular, because c is
then an arbitrary direction.  For a pure monomial basis the ratio
Q'/((alpha+1) Q) equals the pairwise sum monomial_shortcut, which is the
ehrlich form's stand-in for it.

Every correction reads one snapshot, which only _snapshot builds: the
input and collision checks, one BasisSystem.rows(x_i, top_i) per root, and
either the null vector of B (rows 0 .. alpha_i - 1 of each root, stacked)
or the ehrlich pairwise sums; f^(p) and the probe rows share those rows.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .confluent import RootConfiguration, _node_block, node_null_vector
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    DomainError,
    InvalidConfiguration,
    IterateCollision,
)

EPS = float(np.finfo(float).eps)

# Residuals below this multiple of the rounding magnitude of the summed
# coefficient-basis products carry no positional information; stepping on
# them would inject corrections of pure noise, so the position is held.
NOISE_FLOOR_FACTOR = 64.0

# A correction-converged state must also look like a root of the claimed
# multiplicities; otherwise the iteration is frozen at a foreign zero and
# must not report convergence.
RESIDUAL_VALIDATION_FACTOR = 1e-6

METHODS = ("method3", "method13", "ehrlich")


class SolveStatus(Enum):
    converged = "converged"
    max_iterations = "max_iterations"
    degenerate_denominator = "degenerate_denominator"
    iterate_collision = "iterate_collision"
    domain_escape = "domain_escape"


@dataclass(frozen=True)
class SolverSettings:
    method: str = "method3"
    tolerance: float = 1e-11
    max_iterations: int = 50
    denominator_floor: float = 1e-14
    collision_threshold: float = 1e-12

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidConfiguration(
                "unknown method %r (known: %s)"
                % (self.method, ", ".join(METHODS)))
        if self.tolerance <= 0.0:
            raise InvalidConfiguration("tolerance must be positive")
        if self.denominator_floor <= 0.0:
            raise InvalidConfiguration("denominator_floor must be positive")
        if self.max_iterations < 1:
            raise InvalidConfiguration("max_iterations must be at least 1")


@dataclass
class IterationState:
    """Snapshot of all approximations after k iterations."""

    approximations: np.ndarray
    multiplicities: np.ndarray
    k: int = 0
    last_corrections: np.ndarray | None = None

    def __post_init__(self):
        self.approximations = np.asarray(self.approximations, dtype=float)
        mult = np.asarray(self.multiplicities, dtype=float)
        if len(self.approximations) != len(mult):
            raise DimensionMismatch(
                "%d approximations but %d multiplicities"
                % (len(self.approximations), len(mult))
            )
        if not all(m >= 1 and m.is_integer() for m in mult.tolist()):
            raise InvalidConfiguration(
                "multiplicities must be positive integers, got %r"
                % (self.multiplicities,))
        self.multiplicities = mult.astype(int)

    def configuration(self):
        return RootConfiguration(
            tuple(zip(self.approximations.tolist(), self.multiplicities.tolist()))
        )


@dataclass
class SolveReport:
    history: list
    status: SolveStatus
    iterations_used: int
    final_residuals: list


def _check_collisions(xs, base_threshold):
    """Raise IterateCollision for the first pair i < j, in row order, with
    |x_i - x_j| <= base_threshold * (1 + max(|x_i|, |x_j|))."""
    with np.errstate(over="ignore"):  # an inf gap is no collision
        gap = np.abs(xs[:, None] - xs)
    limit = base_threshold * (1.0 + np.maximum.outer(np.abs(xs), np.abs(xs)))
    hits = np.argwhere(np.triu(gap <= limit, 1))
    if len(hits):
        i, j = hits[0]
        raise IterateCollision(
            "approximations %d and %d are %.3e apart (limit %.3e)"
            % (i, j, gap[i, j], limit[i, j])
        )


def is_monomial_basis(basis):
    """True for the ordered pure-power family {1, x, ..., x^n}."""
    for j, b in enumerate(basis.functions):
        if b.kind == "power" and b.s == j:
            continue
        if j == 0 and b.kind == "constant":
            continue
        return False
    return True


def _pairwise_sums(xs, mult):
    """sum over j != i of mult_j / (xs_i - xs_j) for every i, xs distinct;
    each an exactly rounded math.fsum, so the order of terms is moot."""
    with np.errstate(over="ignore"):  # an inf gap adds a zero quotient
        quotients = mult / (xs[:, None] - xs + np.eye(len(xs)))
    np.fill_diagonal(quotients, 0.0)
    return [math.fsum(row) for row in quotients.tolist()]


def monomial_shortcut(state, i, collision_threshold=1e-12):
    """sum over j != i of alpha_j / (x_i - x_j) on the current snapshot.

    For the monomial basis this equals Q'/((alpha+1) Q) at x_i exactly, so
    the determinant pair can be skipped.
    """
    _check_collisions(state.approximations, collision_threshold)
    return _pairwise_sums(state.approximations, state.multiplicities)[i]


def _q_ratio(null, probe, i, x, factor, denominator_floor):
    """Q'(x) / (factor * Q(x)) from the null vector of the node block.

    null is node_null_vector of the node block and probe the basis rows of
    orders alpha_i and alpha_i + 1 at x, the probe point of root i.
    With r_p the probe row of order p at x, Q = kappa (r_alpha . c)
    and Q' = kappa (r_{alpha+1} . c), so kappa cancels and each is one
    compensated dot product.  Two guards raise DegenerateDenominator, and
    neither depends on the scale of c:
    - the rank guard, when the node block's singular value ratio is at
      most denominator_floor: c is then no null vector, and the ratio
      would be an arbitrary step;
    - the cancellation guard, when |Q| is at most denominator_floor times
      the summed term magnitudes sum_j |c_j r_j|, which fires on genuine
      cancellation rather than on the overall magnitude of an ill-scaled
      node block.
    """
    c, rank_ratio = null
    if rank_ratio <= denominator_floor:
        raise DegenerateDenominator(
            "node block singular value ratio %.3e is at most %g"
            % (rank_ratio, denominator_floor)
        )
    terms = c * probe[0]
    q = math.fsum(terms)
    scale = float(np.sum(np.abs(terms)))
    if scale == 0.0 or abs(q) <= denominator_floor * scale:
        raise DegenerateDenominator(
            "Q_%d(%g) = %.3e is negligible against its term scale %.3e"
            % (i, x, q, scale)
        )
    qp = math.fsum(c * probe[1])
    return qp / (factor * q)


def method3_denominator(f, cfg, i, x, denominator_floor=1e-14):
    """The method3 denominator f'(x) - f(x) Q'(x)/((alpha_i+1) Q(x)).

    Exposed for the diagnostic identity that multiplying it by
    (alpha_i + 1) Q(x) reproduces the psi evaluator.
    """
    alpha = cfg.nodes[i][1]
    null = node_null_vector(_node_block(f.basis, cfg))
    probe = f.basis.rows(x, alpha + 1)[alpha:]
    ratio = _q_ratio(null, probe, i, x, alpha + 1.0, denominator_floor)
    return f.eval(x, 1) - f.eval(x, 0) * ratio


def _guarded_quotient(numerator, term_a, term_b, floor, label):
    """numerator / (term_a - term_b) with a scale-relative magnitude guard."""
    den = term_a - term_b
    scale = abs(term_a) + abs(term_b)
    if scale == 0.0 or abs(den) <= floor * scale:
        raise DegenerateDenominator(
            "%s denominator %.3e is below %g of its term scale %.3e"
            % (label, den, floor, scale)
        )
    return numerator / den


def _top_order(method, alpha):
    # method3 and method13 read the probe row of order alpha + 1
    return 1 if method == "ehrlich" else int(alpha) + 1


def _check_inputs(f, multiplicities, settings):
    """DimensionMismatch unless the multiplicities sum to the basis degree;
    InvalidConfiguration for ehrlich off the monomial basis, or when the
    method needs derivatives above the basis cap."""
    if int(multiplicities.sum()) != len(f.basis) - 1:
        raise DimensionMismatch(
            "multiplicities sum to %d but the basis supports degree %d"
            % (int(multiplicities.sum()), len(f.basis) - 1))
    if settings.method == "ehrlich" and not is_monomial_basis(f.basis):
        raise InvalidConfiguration("ehrlich needs the monomial basis")
    order = _top_order(settings.method, multiplicities.max(initial=1))
    if order > f.basis.derivative_cap:
        raise InvalidConfiguration(
            "%s needs derivatives of order %d but the basis caps them at %d"
            % (settings.method, order, f.basis.derivative_cap))


def _snapshot(f, state, settings):
    """Checks the inputs and collisions, then returns (rows, null, shifts):
    rows[i] = f.basis.rows(x_i, top_i), with null = node_null_vector of the
    node block (method3, method13) or shifts = the pairwise sums (ehrlich)."""
    xs, mult = state.approximations, state.multiplicities
    _check_inputs(f, mult, settings)
    _check_collisions(xs, settings.collision_threshold)
    rows = [f.basis.rows(float(x), _top_order(settings.method, a))
            for x, a in zip(xs, mult)]
    if settings.method == "ehrlich":
        return rows, None, _pairwise_sums(xs, mult)
    block = np.vstack([r[:a] for r, a in zip(rows, mult)])
    return rows, node_null_vector(block), None


def single_correction(f, state, i, settings, snapshot=None):
    """Correction for root index i from the current snapshot.

    A sweep passes the _snapshot it builds once; a call without one builds
    it here.  Pure in all arguments, so calls for different i may run in
    any order or concurrently and produce identical values.
    """
    all_rows, null, shifts = snapshot or _snapshot(f, state, settings)
    rows = all_rows[i]
    x = float(state.approximations[i])
    alpha = int(state.multiplicities[i])
    method = settings.method
    floor = settings.denominator_floor
    # every method steps on f^(p) over f^(p+1): p = alpha - 1 for method13
    p = alpha - 1 if method == "method13" else 0
    fp, magnitude = f.row_sums(rows[p])
    if abs(fp) <= NOISE_FLOOR_FACTOR * EPS * magnitude:
        # a root hit, or a residual of pure rounding noise: hold position
        return 0.0
    if method == "ehrlich":
        return _guarded_quotient(float(alpha), f.row_sums(rows[1])[0] / fp,
                                 shifts[i], floor, "ehrlich")
    if method == "method3":
        numerator, factor = alpha * fp, alpha + 1.0
    else:
        numerator, factor = fp, 2.0
    ratio = _q_ratio(null, rows[alpha:alpha + 2], i, x, factor, floor)
    return _guarded_quotient(
        numerator, f.row_sums(rows[p + 1])[0], fp * ratio, floor, method)


def _compute_corrections(f, state, settings, map_=map):
    """Corrections for every root index of the snapshot, in index order.

    map_ runs single_correction over the indices with one shared _snapshot:
    the builtin map in turn, an executor's map concurrently.
    """
    snapshot = _snapshot(f, state, settings)
    return np.array(list(map_(
        lambda i: single_correction(f, state, i, settings, snapshot),
        range(len(state.approximations)))))


def parallel_corrections(f, state, settings, max_workers=None):
    """Corrections computed concurrently, one task per root index.

    Results are gathered in index order; values are bitwise identical to
    the sequential path because each task is a pure function of the shared
    snapshot.
    """
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return _compute_corrections(f, state, settings, pool.map)


def _step(f, state, settings):
    corrections = _compute_corrections(f, state, settings)
    with np.errstate(over="ignore"):  # an inf iterate ends in domain_escape
        return state.approximations - corrections, corrections


def step_method3(f, state, settings=None):
    """One total-step sweep of the multiplicity-aware third-order method."""
    return _step(f, state, _with_method(settings, "method3"))[0]


def step_method13(f, state, settings=None):
    """One total-step sweep of the higher-derivative baseline method."""
    return _step(f, state, _with_method(settings, "method13"))[0]


def ehrlich_step(f, state, settings=None):
    """One total-step sweep of the classical algebraic iteration; on the
    monomial basis only, where the pairwise sums stand in for Q'/Q."""
    return _step(f, state, _with_method(settings, "ehrlich"))[0]


def _with_method(settings, method):
    return replace(settings or SolverSettings(), method=method)


def _residual_sums(f, approximations, multiplicities):
    """Per root, (f^(q)(x), its term magnitude) for q < alpha, or None when
    x has left the basis domain or a value the float range."""
    out = []
    for x, alpha in zip(approximations, multiplicities):
        try:
            out.append([f.row_sums(row)
                        for row in f.basis.rows(x, int(alpha) - 1)])
        except (DomainError, OverflowError):
            out.append(None)
    return out


def _residuals_validate(sums):
    return all(root is not None and not any(
        abs(value) > RESIDUAL_VALIDATION_FACTOR * (1.0 + magnitude)
        for value, magnitude in root) for root in sums)


def _final_residuals(sums, multiplicities):
    out = []
    for root, alpha in zip(sums, multiplicities):
        out.extend([math.inf] * int(alpha) if root is None
                   else [abs(value) for value, _ in root])
    return out


def solve(f, initial, multiplicities, settings=None):
    """Iterate the selected method until the largest correction falls
    below tolerance, the iteration budget runs out, or a guard fires.

    Guards never raise out of this function; they land in report.status.
    Inputs no sweep can iterate raise DimensionMismatch or
    InvalidConfiguration (see IterationState and _check_inputs).  The
    report history includes the initial snapshot, so its length is
    iterations_used + 1.
    """
    settings = settings or SolverSettings()
    state = IterationState(np.array(initial, dtype=float), multiplicities)
    mult = state.multiplicities
    _check_inputs(f, mult, settings)
    history = [state]
    status = sums = None

    if not all(f.basis.contains(x) for x in state.approximations):
        status = SolveStatus.domain_escape

    while status is None:
        if state.k >= settings.max_iterations:
            status = SolveStatus.max_iterations
            break
        try:
            new, corrections = _step(f, state, settings)
        except IterateCollision:
            status = SolveStatus.iterate_collision
            break
        except DegenerateDenominator:
            status = SolveStatus.degenerate_denominator
            break
        except (DomainError, OverflowError):
            # an evaluation left the basis domain or the float range
            status = SolveStatus.domain_escape
            break
        state = IterationState(new, mult, state.k + 1, corrections)
        history.append(state)
        if not all(f.basis.contains(x) for x in new):
            status = SolveStatus.domain_escape
            break
        if float(np.max(np.abs(corrections))) < settings.tolerance:
            sums = _residual_sums(f, new, mult)
            if _residuals_validate(sums):
                status = SolveStatus.converged
                break
            # frozen at a point that is not a root of the claimed
            # multiplicities; keep stepping until the budget runs out

    final = history[-1]
    if status is not SolveStatus.converged:
        sums = _residual_sums(f, final.approximations, mult)
    return SolveReport(history, status, final.k, _final_residuals(sums, mult))
