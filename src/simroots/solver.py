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
Q'/((alpha+1) Q) collapses to the pairwise sum used by the ehrlich form,
which is exposed separately as monomial_shortcut.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .confluent import RootConfiguration, node_null_vector
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
    use_monomial_shortcut: bool = False

    def __post_init__(self):
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
        self.multiplicities = np.asarray(self.multiplicities, dtype=int)
        if len(self.approximations) != len(self.multiplicities):
            raise DimensionMismatch(
                "%d approximations but %d multiplicities"
                % (len(self.approximations), len(self.multiplicities))
            )

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


def _noise_floor(f, x, p):
    return NOISE_FLOOR_FACTOR * EPS * f.term_magnitude(x, p)


def _check_collisions(approximations, base_threshold):
    xs = approximations
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            gap = abs(xs[i] - xs[j])
            limit = base_threshold * (1.0 + max(abs(xs[i]), abs(xs[j])))
            if gap <= limit:
                raise IterateCollision(
                    "approximations %d and %d are %.3e apart (limit %.3e)"
                    % (i, j, gap, limit)
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


def monomial_shortcut(state, i, collision_threshold=1e-12):
    """sum over j != i of alpha_j / (x_i - x_j) on the current snapshot.

    For the monomial basis this equals Q'/((alpha+1) Q) at x_i exactly, so
    the determinant pair can be skipped.
    """
    xs = state.approximations
    mult = state.multiplicities
    _check_collisions(xs, collision_threshold)
    xi = xs[i]
    return math.fsum(
        mult[j] / (xi - xs[j]) for j in range(len(xs)) if j != i
    )


def _q_ratio(f, cfg, i, x, factor, denominator_floor, null=None):
    """Q'(x) / (factor * Q(x)) from the null vector of the node block.

    null is node_null_vector(f.basis, cfg), built here when not given.
    With r_p the probe row of order p at x, Q = kappa (r_alpha . c) and
    Q' = kappa (r_{alpha+1} . c), so kappa cancels and each is one
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
    basis = f.basis
    c, rank_ratio = null if null is not None else node_null_vector(basis, cfg)
    if rank_ratio <= denominator_floor:
        raise DegenerateDenominator(
            "node block singular value ratio %.3e is at most %g"
            % (rank_ratio, denominator_floor)
        )
    alpha = cfg.nodes[i][1]
    terms = c * [basis.eval(j, x, alpha) for j in range(len(c))]
    q = math.fsum(terms)
    scale = float(np.sum(np.abs(terms)))
    if scale == 0.0 or abs(q) <= denominator_floor * scale:
        raise DegenerateDenominator(
            "Q_%d(%g) = %.3e is negligible against its term scale %.3e"
            % (i, x, q, scale)
        )
    qp = math.fsum(c * [basis.eval(j, x, alpha + 1) for j in range(len(c))])
    return qp / (factor * q)


def method3_denominator(f, cfg, i, x, denominator_floor=1e-14):
    """The method3 denominator f'(x) - f(x) Q'(x)/((alpha_i+1) Q(x)).

    Exposed for the diagnostic identity that multiplying it by
    (alpha_i + 1) Q(x) reproduces the psi evaluator.
    """
    alpha = cfg.nodes[i][1]
    ratio = _q_ratio(f, cfg, i, x, alpha + 1.0, denominator_floor)
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


def single_correction(f, state, i, settings, null=None):
    """Correction for root index i from the current snapshot.

    null is the snapshot's node_null_vector, shared across a sweep; it is
    built from the snapshot when not given.  Pure in all arguments, so
    calls for different i may run in any order or concurrently and
    produce identical values.
    """
    x = float(state.approximations[i])
    alpha = int(state.multiplicities[i])
    method = settings.method
    if method == "method3":
        fx = f.eval(x, 0)
        if abs(fx) <= _noise_floor(f, x, 0):
            return 0.0
        if settings.use_monomial_shortcut:
            ratio = monomial_shortcut(state, i, settings.collision_threshold)
        else:
            ratio = _q_ratio(
                f, state.configuration(), i, x, alpha + 1.0,
                settings.denominator_floor, null,
            )
        return _guarded_quotient(
            alpha * fx, f.eval(x, 1), fx * ratio, settings.denominator_floor,
            "method3",
        )
    if method == "method13":
        num = f.eval(x, alpha - 1)
        if abs(num) <= _noise_floor(f, x, alpha - 1):
            return 0.0
        ratio = _q_ratio(
            f, state.configuration(), i, x, 2.0, settings.denominator_floor,
            null,
        )
        return _guarded_quotient(
            num, f.eval(x, alpha), num * ratio, settings.denominator_floor,
            "method13",
        )
    if method == "ehrlich":
        fx = f.eval(x, 0)
        if abs(fx) <= _noise_floor(f, x, 0):
            # root hit: the logarithmic derivative blows up, hold position
            return 0.0
        shifted = monomial_shortcut(state, i, settings.collision_threshold)
        return _guarded_quotient(
            float(alpha), f.eval(x, 1) / fx, shifted,
            settings.denominator_floor, "ehrlich",
        )
    raise InvalidConfiguration("unknown method %r" % (method,))


def _sweep_null_vector(f, state, settings):
    """The snapshot's node_null_vector for the determinant-ratio methods,
    None for those that never form Q'/Q."""
    if settings.method == "method13" or (
            settings.method == "method3"
            and not settings.use_monomial_shortcut):
        return node_null_vector(f.basis, state.configuration())
    return None


def _compute_corrections(f, state, settings):
    _check_collisions(state.approximations, settings.collision_threshold)
    null = _sweep_null_vector(f, state, settings)
    return np.array(
        [single_correction(f, state, i, settings, null)
         for i in range(len(state.approximations))]
    )


def parallel_corrections(f, state, settings, max_workers=None):
    """Corrections computed concurrently, one task per root index.

    Results are gathered in index order; values are bitwise identical to
    the sequential path because each task is a pure function of the shared
    snapshot.
    """
    _check_collisions(state.approximations, settings.collision_threshold)
    null = _sweep_null_vector(f, state, settings)
    indices = range(len(state.approximations))
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        out = list(pool.map(
            lambda i: single_correction(f, state, i, settings, null), indices))
    return np.array(out)


def _step(f, state, settings):
    corrections = _compute_corrections(f, state, settings)
    return state.approximations - corrections, corrections


def step_method3(f, state, settings=None):
    """One total-step sweep of the multiplicity-aware third-order method."""
    settings = _with_method(settings, "method3")
    return _step(f, state, settings)[0]


def step_method13(f, state, settings=None):
    """One total-step sweep of the higher-derivative baseline method."""
    settings = _with_method(settings, "method13")
    return _step(f, state, settings)[0]


def ehrlich_step(f, state, settings=None):
    """One total-step sweep of the classical algebraic iteration.

    Requires the ordered monomial basis; the pairwise shortcut sum stands
    in for the determinant ratio.
    """
    if not is_monomial_basis(f.basis):
        raise InvalidConfiguration("ehrlich steps need the monomial basis")
    settings = _with_method(settings, "ehrlich")
    return _step(f, state, settings)[0]


def _with_method(settings, method):
    if settings is None:
        return SolverSettings(method=method)
    if settings.method != method:
        return replace(settings, method=method)
    return settings


def _residuals_validate(f, approximations, multiplicities):
    for x, alpha in zip(approximations, multiplicities):
        for q in range(alpha):
            try:
                limit = RESIDUAL_VALIDATION_FACTOR * (
                    1.0 + f.term_magnitude(x, q))
                residual = abs(f.eval(x, q))
            except OverflowError:
                return False
            if residual > limit:
                return False
    return True


def _final_residuals(f, approximations, multiplicities):
    out = []
    for x, alpha in zip(approximations, multiplicities):
        for q in range(int(alpha)):
            try:
                out.append(abs(f.eval(x, q)))
            except (DomainError, OverflowError):
                out.append(math.inf)
    return out


def solve(f, initial, multiplicities, settings=None):
    """Iterate the selected method until the largest correction falls
    below tolerance, the iteration budget runs out, or a guard fires.

    Guards never raise out of this function; they land in report.status.
    The report history includes the initial snapshot, so its length is
    iterations_used + 1.
    """
    if settings is None:
        settings = SolverSettings()
    approx = np.asarray(initial, dtype=float)
    mult = np.asarray(multiplicities, dtype=int)
    if len(approx) != len(mult):
        raise DimensionMismatch(
            "%d initial approximations but %d multiplicities"
            % (len(approx), len(mult))
        )
    if int(mult.sum()) != len(f.basis) - 1:
        raise DimensionMismatch(
            "multiplicities sum to %d but the basis supports degree %d"
            % (int(mult.sum()), len(f.basis) - 1)
        )
    if settings.method == "ehrlich" and not is_monomial_basis(f.basis):
        raise InvalidConfiguration("ehrlich needs the monomial basis")
    if settings.use_monomial_shortcut and not is_monomial_basis(f.basis):
        raise InvalidConfiguration("the monomial shortcut needs the monomial basis")

    state = IterationState(approx.copy(), mult.copy())
    history = [state]
    status = None

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
        state = IterationState(new, mult.copy(), state.k + 1, corrections)
        history.append(state)
        if not all(f.basis.contains(x) for x in new):
            status = SolveStatus.domain_escape
            break
        if float(np.max(np.abs(corrections))) < settings.tolerance:
            if _residuals_validate(f, new, mult):
                status = SolveStatus.converged
                break
            # frozen at a point that is not a root of the claimed
            # multiplicities; keep stepping until the budget runs out

    final = history[-1]
    return SolveReport(
        history=history,
        status=status,
        iterations_used=final.k,
        final_residuals=_final_residuals(f, final.approximations,
                                         final.multiplicities),
    )
