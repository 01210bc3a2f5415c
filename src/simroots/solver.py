"""Simultaneous root iterations with multiplicity-aware corrections.

All methods are total-step: every correction of iteration k+1 is computed
from the full k-th snapshot, so the per-root work (single_correction) may
run in any order or concurrently; a sweep (_step) runs it in index order.

method3   x' = x - alpha f / (f' - f Q'/((alpha+1) Q))
method13  x' = x - f^(alpha-1) / (f^(alpha) - f^(alpha-1) Q'/(2 Q))
ehrlich   x' = x - alpha / (f'/f - sum_{j != i} alpha_j/(x_i - x_j))

Q and Q' are confluent determinants det([r; B]) on the current iterate
snapshot: B is the block of node rows, shared by every root, and r is a
probe row of basis derivatives at x_i.  Since det([r; B]) = kappa (r . c)
for the null vector c of B, with one kappa for every probe row, the ratio
Q'/Q is (r_{alpha+1} . c) / (r_alpha . c): one SVD of B per sweep in
which some root can move (confluent.node_null_vector) serves all roots
and both probe orders.  A rank guard stops the solve when B is
numerically singular, because c is then an arbitrary direction, and a
cancellation guard when |Q| is negligible against its terms
sum_j |c_j r_j|; neither reads the scale of c.  For a pure monomial
basis the ratio Q'/((alpha+1) Q) equals the pairwise sum
sum_{j != i} alpha_j/(x_i - x_j) (_pairwise_sums), which is the ehrlich
form's stand-in for it.

A solve checks its inputs and indexes what its sweeps read once (_plan).
Every correction reads one snapshot, which only _snapshot builds: the
collision check, one BasisSystem.tensor over every root, f^(p) and
f^(p+1) at every root from one product with the nonzero coefficients,
and either Q and Q' at every root from one product of the probe rows
with the null vector of B (_q_sums), unless the noise-floor hold keeps
every root, or the ehrlich pairwise sums.  Both
products go through genpoly._term_sums: each value an exactly rounded
fsum, each term scale one plain row sum.  A correction is then scalar
arithmetic and guards.

The collision check compares neighbours in sorted order only: between
the two values of any colliding pair lies a neighbour pair with the same
limit and a gap no larger (_check_collisions).  NaN is left out of the
sort, since it has no place in the order and collides with nothing.

So a sweep and the checks on its result are pure functions of the
approximations, and solve stops (stalled) once an accepted state repeats
the bytes of an earlier one: no later sweep could give anything new.
For the same reason a sweep (_step) returns the snapshot it read, tensor
included, and the convergence check after a sweep that kept every
iterate's bytes (one that held every root) reads the residuals from its
row sums or its tensor (_final_state), not from the basis again.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import MAX_ORDER
from .confluent import (_row_maxima, checked_index, finite_real,
                        node_null_vector, node_rows, positive_integers,
                        real_sequence)
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    DomainError,
    InvalidConfiguration,
    IterateCollision,
)
from .genpoly import _term_sums, checked_sums

EPS = float(np.finfo(float).eps)

# Relative floor of every denominator guard: the node block's rank, |Q|
# against its terms, and each correction's denominator against its terms.
DENOMINATOR_FLOOR = 1e-14
COLLISION_THRESHOLD = 1e-12  # relative to 1 + max(|x_i|, |x_j|)

# Residuals below this multiple of the rounding magnitude of the summed
# coefficient-basis products carry no positional information; stepping on
# them would inject corrections of pure noise, so the position is held.
# The magnitude is a plain sum of k terms of one sign, within (k - 1) u of
# the exact one: that moves the floor by a relative (k - 1) u, far inside
# the order-of-magnitude choice of 64, so its last bits do not matter.
NOISE_FLOOR_FACTOR = 64.0
HOLD_FLOOR = NOISE_FLOOR_FACTOR * EPS  # of the hold and _snapshot's scan

# A correction-converged state must also look like a root of the claimed
# multiplicities; otherwise the iteration is frozen at a foreign zero and
# must not report convergence.
RESIDUAL_VALIDATION_FACTOR = 1e-6

METHODS = ("method3", "method13", "ehrlich")


class SolveStatus(Enum):
    converged = "converged"
    max_iterations = "max_iterations"
    stalled = "stalled"
    degenerate_denominator = "degenerate_denominator"
    iterate_collision = "iterate_collision"
    domain_escape = "domain_escape"


@dataclass(frozen=True)
class SolverSettings:
    method: str = "method3"
    tolerance: float = 1e-11
    max_iterations: int = 50

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidConfiguration(
                "unknown method %r (known: %s)"
                % (self.method, ", ".join(METHODS)))
        tolerance = finite_real(self.tolerance, "tolerance")
        if not tolerance > 0.0:
            raise InvalidConfiguration("tolerance must be positive, got %r"
                                       % (tolerance,))
        object.__setattr__(self, "tolerance", tolerance)
        if isinstance(self.max_iterations, bool) or not isinstance(
                self.max_iterations, (int, np.integer)) or self.max_iterations < 1:
            raise InvalidConfiguration("max_iterations must be a positive integer")


@dataclass
class IterationState:
    """Snapshot of all approximations after k iterations.  Raises
    InvalidConfiguration unless the approximations are a real_sequence and
    the multiplicities positive integers, DimensionMismatch unless they
    are as many."""

    approximations: np.ndarray
    multiplicities: np.ndarray
    k: int = 0
    last_corrections: np.ndarray | None = None

    def __post_init__(self):
        if not real_sequence(self.approximations):
            raise InvalidConfiguration(
                "approximations must be a sequence of real numbers, got %r"
                % (self.approximations,))
        self.approximations = np.array(self.approximations, dtype=float)
        self.multiplicities = np.array(
            positive_integers(self.multiplicities), dtype=int)
        if len(self.approximations) != len(self.multiplicities):
            raise DimensionMismatch(
                "%d approximations but %d multiplicities"
                % (len(self.approximations), len(self.multiplicities))
            )


@dataclass
class SolveReport:
    history: list
    status: SolveStatus
    iterations_used: int
    final_residuals: list


def _check_collisions(xs):
    """Raise IterateCollision for the first pair i < j, in row order, with
    |x_i - x_j| <= COLLISION_THRESHOLD * (1 + max(|x_i|, |x_j|)).

    One sorted pass decides whether any pair collides: if a < c < b, then
    |c| <= max(|a|, |b|), so one of (a, c) and (c, b) has the limit of
    (a, b) and, rounding being monotone, a gap no larger.  So some pair
    collides only if two neighbours in sorted order do.  NaN is left out:
    a pair with NaN never collides, and values with NaN have no sorted
    order.  Only when two neighbours collide does the scan of every pair
    run, to name the first colliding pair in row order.
    """
    values = xs.tolist()
    ordered = sorted(x for x in values if x == x)  # NaN != NaN
    for a, b in zip(ordered, ordered[1:]):
        if b - a <= COLLISION_THRESHOLD * (1.0 + max(abs(a), abs(b))):
            break
    else:
        return
    # an overflowed gap is inf and collides only with an infinite limit;
    # inf - inf is NaN and collides with none
    for i, a in enumerate(values):
        for j, b in enumerate(values[i + 1:], i + 1):
            gap = abs(b - a)
            limit = COLLISION_THRESHOLD * (1.0 + max(abs(a), abs(b)))
            if gap <= limit:
                raise IterateCollision(
                    "approximations %d and %d are %.3e apart (limit %.3e)"
                    % (i, j, gap, limit))


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
    with np.errstate(over="ignore"):  # an inf gap gives a zero quotient
        gaps = xs[:, None] - xs
        np.fill_diagonal(gaps, 1.0)
        quotients = mult / gaps
    np.fill_diagonal(quotients, 0.0)
    return list(map(math.fsum, quotients.tolist()))


def _q_sums(probes, c):
    """(Q, Q') of every root, up to the common factor kappa: with probes[i]
    = (r_alpha, r_{alpha+1}) of root i, the _term_sums of Q = r_alpha . c
    and Q' = r_{alpha+1} . c from one product, each (value, scale) or
    None; single_correction raises OverflowError where it reads a None."""
    sums = _term_sums(probes, c)
    return list(zip(sums[::2], sums[1::2]))


def _guarded_quotient(numerator, term_a, term_b, label):
    """numerator / (term_a - term_b) with a scale-relative magnitude guard."""
    den = term_a - term_b
    scale = abs(term_a) + abs(term_b)
    if scale == 0.0 or abs(den) <= DENOMINATOR_FLOOR * scale:
        raise DegenerateDenominator(
            "%s denominator %.3e is below %g of its term scale %.3e"
            % (label, den, DENOMINATOR_FLOOR, scale)
        )
    return numerator / den


def _check_inputs(f, alphas, settings):
    """DimensionMismatch unless the multiplicities alphas (a list of ints)
    sum to the basis degree; InvalidConfiguration for ehrlich off the
    monomial basis, or when the method needs derivatives above
    basis.MAX_ORDER.  Returns the highest order the method's sweeps read."""
    if sum(alphas) != len(f.basis) - 1:
        raise DimensionMismatch(
            "multiplicities sum to %d but the basis supports degree %d"
            % (sum(alphas), len(f.basis) - 1))
    if settings.method == "ehrlich" and not is_monomial_basis(f.basis):
        raise InvalidConfiguration("ehrlich needs the monomial basis")
    # method3 and method13 read the probe row of order alpha + 1; ehrlich's
    # sweeps read order 1, and the residuals of every method alpha - 1
    alpha = max(alphas, default=1)
    order = 1 if settings.method == "ehrlich" else alpha + 1
    needed = max(order, alpha - 1)
    if needed > MAX_ORDER:
        raise InvalidConfiguration(
            "%s needs derivatives of order %d but the basis caps them at %d"
            % (settings.method, needed, MAX_ORDER))
    return order


_Plan = namedtuple("_Plan", "top read node probe nonzero paired")


def _plan(f, mult, settings):
    """_check_inputs, then what the sweeps of a solve read, indexed once:
    the top order of a sweep's tensor; flat indices, in the tensor, of the
    nonzero coefficients' entries in the rows of orders p_i and p_i + 1
    of root i (read); the rows of the node block (node) and the rows of
    orders alpha_i, alpha_i + 1 of root i (probe), numbered as in the
    tensor's (m (top + 1), n + 1) reshape, both None for ehrlich, which
    does not read them; the nonzero coefficients; and whether the rows
    p_i, p_i + 1 of every root start with all its node rows, that is
    p_i = 0 and alpha_i <= 2 (paired)."""
    alphas = mult.tolist()
    top = _check_inputs(f, alphas, settings)
    columns = np.flatnonzero(f.coefficients)
    first = np.arange(len(mult)) * (top + 1)  # root i's row of order 0
    # every method steps on f^(p) over f^(p+1): p = alpha - 1 for method13
    method13 = settings.method == "method13"
    p = first + (mult - 1 if method13 else 0)
    step_rows = (p[:, None] + (0, 1)).reshape(-1, 1)
    node = probe = None
    if settings.method != "ehrlich":
        node = np.flatnonzero(np.arange(top + 1) < mult[:, None])
        probe = (first + mult)[:, None] + (0, 1)
    return _Plan(top, step_rows * len(f.basis) + columns, node, probe,
                 f.coefficients[columns],
                 max(alphas) <= (1 if method13 else 2))


def _snapshot(f, state, settings, plan=None):
    """Checks the collisions, then returns (sums, rank_ratio, q_sums,
    shifts, tensor) from one tensor = f.basis.tensor(xs, top), top the
    highest order any root needs: sums[i] = f.row_sums of rows p_i and
    p_i + 1 of root i, the orders its step reads; for method3 and
    method13, the singular value ratio of the node block and _q_sums on
    its null vector; for ehrlich, shifts = the pairwise sums.  Where the
    hold zeroes every correction, none reads Q'/Q: the node block is only
    checked to be finite, and rank_ratio and q_sums are None.  A call
    without a plan builds it."""
    plan = plan or _plan(f, state.multiplicities, settings)
    xs, mult = state.approximations, state.multiplicities
    _check_collisions(xs)
    tensor = f.basis.tensor(xs, plan.top)
    pairs = _term_sums(tensor.take(plan.read), plan.nonzero)
    sums = list(zip(pairs[::2], pairs[1::2]))
    if settings.method == "ehrlich":
        return sums, None, None, _pairwise_sums(xs, mult), tensor
    rows = tensor.reshape(-1, tensor.shape[2])
    if all(at and abs(at[0]) <= HOLD_FLOOR * at[1] for at, _ in sums):
        _row_maxima(rows[plan.node])
        return sums, None, None, None, tensor
    c, rank_ratio = node_null_vector(rows[plan.node])
    return sums, rank_ratio, _q_sums(rows[plan.probe], c), None, tensor


def single_correction(f, state, i, settings, snapshot=None):
    """Correction for root index i from the current snapshot.

    A sweep passes the _snapshot it builds once; a call without one
    refuses an i that is no root index (InvalidConfiguration,
    confluent.checked_index), then builds it here.  Pure in all arguments,
    so calls for different i may run in any order or concurrently and
    produce identical values.  Each guard
    reads only its own entry of the snapshot, in this order: f^(p), the
    noise-floor hold, the rank guard, Q and its cancellation guard, Q',
    f^(p+1) and the denominator guard; for ehrlich f^(p), the hold,
    f^(p+1) and the denominator guard.
    """
    if snapshot is None:
        i = checked_index(i, len(state.approximations), "root index")
        snapshot = _snapshot(f, state, settings)
    sums, rank_ratio, q_sums, shifts, _ = snapshot
    at_p, at_next = sums[i]
    # an entry is a (value, scale) tuple, so only None reaches checked_sums
    fp, magnitude = at_p or checked_sums(at_p)
    if abs(fp) <= HOLD_FLOOR * magnitude:
        # a root hit, or a residual of pure rounding noise: hold position
        return 0.0
    alpha = int(state.multiplicities[i])
    method = settings.method
    if method == "ehrlich":
        return _guarded_quotient(
            float(alpha), (at_next or checked_sums(at_next))[0] / fp,
            shifts[i], "ehrlich")
    if rank_ratio <= DENOMINATOR_FLOOR:
        raise DegenerateDenominator(
            "node block singular value ratio %.3e is at most %g"
            % (rank_ratio, DENOMINATOR_FLOOR))
    at_q, at_qp = q_sums[i]
    x = state.approximations[i]
    if at_q is None:
        raise OverflowError("a term of Q_%d(%g) is not finite" % (i, x))
    q, scale = at_q
    if scale == 0.0 or abs(q) <= DENOMINATOR_FLOOR * scale:
        raise DegenerateDenominator(
            "Q_%d(%g) = %.3e is negligible against its term scale %.3e"
            % (i, x, q, scale))
    if at_qp is None:
        raise OverflowError("a term of Q'_%d(%g) is not finite" % (i, x))
    if method == "method3":
        numerator, factor = alpha * fp, alpha + 1.0
    else:
        numerator, factor = fp, 2.0
    return _guarded_quotient(numerator, (at_next or checked_sums(at_next))[0],
                             fp * (at_qp[0] / (factor * q)), method)


def _step(f, state, settings, plan=None):
    """One total-step sweep: (new approximations, corrections, snapshot),
    the corrections of every root index in index order, all read from the
    one _snapshot returned."""
    snapshot = _snapshot(f, state, settings, plan)
    corrections = np.array([
        single_correction(f, state, i, settings, snapshot)
        for i in range(len(state.approximations))])
    with np.errstate(over="ignore"):  # an inf iterate ends in domain_escape
        return state.approximations - corrections, corrections, snapshot


def _final_state(f, xs, mult, plan=None, snapshot=None):
    """(residuals, passes) at the approximations xs: |f^(q)(x_i)| for q <
    alpha_i in root order, inf for every order of a root where a sum is
    None (x_i left the basis domain or a value the float range), and
    whether every root's sums are finite and each value is at most
    RESIDUAL_VALIDATION_FACTOR (1 + its term magnitude).  Given the
    _snapshot a sweep with this plan built at these approximations (the
    same bytes), the sums are read from it: the first alpha_i of root i's
    pair of sums when the plan is paired, else the node rows of its
    tensor when that reaches order alpha_i - 1 of every root (ehrlich's
    stops at order 1).  No entry of a tensor depends on its top order
    (jets are prefix-stable, and each power entry is one libm pow), and
    _term_sums sums each row alike, so both give the bits of a fresh
    tensor.  Otherwise one fresh tensor serves every root; when it raises,
    each root is evaluated alone, so that only a root that escapes loses
    its residuals."""
    alphas = mult.tolist()
    if snapshot is not None and plan.paired:
        sums = [s for pair, alpha in zip(snapshot[0], alphas)
                for s in pair[:alpha]]
    elif snapshot is not None and snapshot[-1].shape[1] >= max(alphas):
        sums = f.row_sums(node_rows(snapshot[-1], mult))
    else:
        try:
            sums = f.row_sums(node_rows(f.basis.tensor(xs, max(alphas) - 1),
                                        mult))
        except (DomainError, OverflowError):
            sums = []
            for x, alpha in zip(xs, alphas):
                try:
                    sums += f.row_sums(f.basis.rows(x, alpha - 1))
                except (DomainError, OverflowError):
                    sums += [None] * alpha
    residuals, passes, end = [], True, 0
    for alpha in alphas:
        root = sums[end:end + alpha]
        end += alpha
        if None in root:
            residuals += [math.inf] * alpha
            passes = False
            continue
        for value, magnitude in root:
            residuals.append(abs(value))
            if abs(value) > RESIDUAL_VALIDATION_FACTOR * (1.0 + magnitude):
                passes = False
    return residuals, passes


def _accepted(approximations, multiplicities, k, corrections):
    """An IterationState of checked arrays, not validated again."""
    state = object.__new__(IterationState)
    state.__dict__.update(approximations=approximations, k=k,
                          multiplicities=multiplicities.copy(),
                          last_corrections=corrections)
    return state


def solve(f, initial, multiplicities, settings=None):
    """Iterate the selected method until the largest correction falls
    below tolerance, a state repeats, the budget runs out or a guard fires.

    Guards never raise out of this function; they land in report.status.
    Inputs no sweep can iterate raise DimensionMismatch or
    InvalidConfiguration (see IterationState and _check_inputs), checked
    once for the _plan all sweeps read.  The report history includes the
    initial snapshot, so its length is iterations_used + 1.  One domain
    test per state, ahead of the repeat and budget tests, ends the solve
    at a state outside the basis domain as domain_escape; a sweep below
    tolerance is checked for convergence first, which an escaped root's
    inf residuals fail.  A state with the approximation bytes of an
    earlier one (-0.0 is not 0.0) ends the solve as stalled, even at the
    budget: every later sweep would repeat one before it.  The convergence
    check reads the sweep's snapshot when the sweep kept the iterates'
    bytes, and a fresh tensor otherwise; the final residuals are fresh
    unless that check read them at the final bytes (_final_state).
    """
    settings = settings or SolverSettings()
    state = IterationState(initial, multiplicities)
    mult = state.multiplicities
    plan = _plan(f, mult, settings)
    history = [state]
    residuals = summed = None
    seen = set()  # approximations.tobytes() of every accepted state

    while True:
        if not all(map(f.basis.contains, state.approximations.tolist())):
            status = SolveStatus.domain_escape
            break
        key = state.approximations.tobytes()
        if key in seen:
            status = SolveStatus.stalled
            break
        seen.add(key)
        if state.k >= settings.max_iterations:
            status = SolveStatus.max_iterations
            break
        try:
            new, corrections, snapshot = _step(f, state, settings, plan)
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
        state = _accepted(new, mult, state.k + 1, corrections)
        history.append(state)
        if np.abs(corrections).max() < settings.tolerance:
            summed = new.tobytes()
            residuals, passes = _final_state(
                f, new, mult, plan, snapshot if summed == key else None)
            if passes:
                status = SolveStatus.converged
                break

    final = history[-1]
    if summed != final.approximations.tobytes():
        residuals, _ = _final_state(f, final.approximations, mult)
    return SolveReport(history, status, final.k, residuals)
