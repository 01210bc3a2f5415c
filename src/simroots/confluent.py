"""Confluent node matrices, their determinants, and root-driven coefficients.

A node of multiplicity alpha contributes a block of rows holding basis
derivatives of orders 0 .. alpha-1.  Prepending one probe row of a chosen
derivative order gives the square confluent matrix whose determinant, as a
function of the probe point, is the generalized polynomial vanishing to the
prescribed orders at the nodes (up to a constant factor).

Because the probe point enters only the first row and a determinant is
linear in each row, differentiating the determinant with respect to the
probe variable equals building the same matrix with the first row
differentiated.  q_value and q_derivative rely on that identity instead of
numerical differentiation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidConfiguration,
    SingularNodeSystem,
)

SINGULARITY_RELATIVE_THRESHOLD = 1e-12


@dataclass(frozen=True)
class RootConfiguration:
    """Node/multiplicity pairs (x_j, alpha_j), used both for exact roots
    and for iterate snapshots."""

    nodes: tuple

    def __post_init__(self):
        normalized = tuple((float(x), int(m)) for x, m in self.nodes)
        object.__setattr__(self, "nodes", normalized)
        locations = [x for x, _ in normalized]
        if len(set(locations)) != len(locations):
            raise InvalidConfiguration("node locations must be pairwise distinct")
        if any(m < 1 for _, m in normalized):
            raise InvalidConfiguration("multiplicities must be positive integers")

    @property
    def total_degree(self):
        return sum(m for _, m in self.nodes)

    @property
    def locations(self):
        return tuple(x for x, _ in self.nodes)

    @property
    def multiplicities(self):
        return tuple(m for _, m in self.nodes)

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class ConfluentMatrix:
    """Square matrix of basis derivatives plus the plan of its rows.

    row_plan holds one ("probe", point, order) entry followed by
    ("node", location, order) entries with orders 0 .. alpha_j - 1
    inside each node block.
    """

    entries: np.ndarray
    row_plan: tuple


def _node_rows(basis, cfg):
    n1 = len(basis)
    rows = []
    plan = []
    for loc, mult in cfg.nodes:
        for q in range(mult):
            rows.append([basis.eval(j, loc, q) for j in range(n1)])
            plan.append(("node", loc, q))
    return rows, plan


def _checked_size(basis, cfg):
    """len(basis), after checking that cfg makes the bordered block square."""
    n1 = len(basis)
    if cfg.total_degree + 1 != n1:
        raise DimensionMismatch(
            "node multiplicities sum to %d but the basis has %d functions"
            % (cfg.total_degree, n1)
        )
    return n1


def build_matrix(basis, cfg, probe, first_row_order):
    """Assemble the confluent matrix for a node configuration.

    Parameters
    ----------
    basis : BasisSystem
    cfg : RootConfiguration
        Must satisfy total_degree == len(basis) - 1 so the matrix is square.
    probe : float
        Point at which the first row is evaluated.
    first_row_order : int
        Derivative order of the first row.

    Returns
    -------
    ConfluentMatrix
    """
    n1 = _checked_size(basis, cfg)
    first = [basis.eval(j, probe, first_row_order) for j in range(n1)]
    rows, plan = _node_rows(basis, cfg)
    entries = np.array([first] + rows, dtype=float)
    row_plan = tuple([("probe", float(probe), int(first_row_order))] + plan)
    return ConfluentMatrix(entries, row_plan)


def determinant(matrix):
    """Determinant by row-pivoted triangular elimination.

    Accepts a ConfluentMatrix or any square array.  Returns 0.0 for an
    exactly singular matrix; callers apply their own magnitude thresholds.
    Entries are eliminated in place on a copy, with the sign tracked
    through row swaps.  Fine for the small dimensions used here; growth
    can overflow for dimensions in the hundreds.
    """
    a = matrix.entries if isinstance(matrix, ConfluentMatrix) else matrix
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise DimensionMismatch("determinant needs a square matrix")
    sign = 1.0
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            return 0.0
        if p != k:
            a[[k, p]] = a[[p, k]]
            sign = -sign
        for i in range(k + 1, n):
            factor = a[i, k] / a[k, k]
            if factor != 0.0:
                a[i, k + 1:] -= factor * a[k, k + 1:]
    return sign * float(np.prod(np.diag(a)))


def hadamard_bound(entries):
    """Product of row euclidean norms, an upper bound on |det|."""
    a = np.asarray(entries, dtype=float)
    return float(np.prod(np.linalg.norm(a, axis=1)))


def first_row_cofactors(basis, cfg):
    """Cofactors of the probe row: c_j = (-1)^j det(node block minus column j).

    The node block does not involve the probe point or the first-row order,
    so one cofactor vector serves every root index and every derivative
    order on a snapshot.  Expanding the confluent determinant along its
    first row gives Q(x) = sum_j c_j phi_j^(p)(x), and sum_j |c_j phi_j^(p)(x)|
    is the cancellation scale of that value.
    """
    n1 = _checked_size(basis, cfg)
    rows, _ = _node_rows(basis, cfg)
    block = np.array(rows, dtype=float)
    coeffs = np.empty(n1)
    for j in range(n1):
        minor = np.delete(block, j, axis=1)
        coeffs[j] = (-1.0) ** j * determinant(minor)
    return coeffs


def _binary_exponents(a, axis):
    """Exponents e with max |a| along axis in [2^(e-1), 2^e); 0 where zero."""
    return np.frexp(np.max(np.abs(a), axis=axis))[1]


def node_null_vector(basis, cfg):
    """Null vector c of the node block and its singular value ratio.

    The node block B stacks the node rows of cfg; it is n x (n+1), so its
    null space is one-dimensional when B has full rank.  Bordering B with
    any probe row r gives det([r; B]) = kappa (r . c) with one constant
    kappa for the whole block, so a single factorization serves every root
    index and every probe order on a snapshot.

    B is first equilibrated by powers of two, rows and then columns, so
    the scaling is exact and c stays a null vector of B itself: c is the
    last right singular vector of the scaled block with the column scales
    undone.  The returned ratio sigma_min / sigma_max of the scaled block
    (0.0 for a zero block) says how far B is from rank deficiency, below
    which c is an arbitrary direction rather than a null vector.  The
    scaling keeps that ratio from reading basis functions of very
    different magnitudes, such as exp(30 x) beside 1, as rank deficiency.
    """
    _checked_size(basis, cfg)
    rows, _ = _node_rows(basis, cfg)
    block = np.array(rows, dtype=float)
    if not np.isfinite(block).all():
        # expression jets overflow to inf without raising, and the SVD
        # can fail to return at all on a non-finite entry
        raise OverflowError("the node block has non-finite basis values")
    block = np.ldexp(block, -_binary_exponents(block, 1)[:, None])
    column_exponents = _binary_exponents(block, 0)
    block = np.ldexp(block, -column_exponents)
    _, sv, vt = np.linalg.svd(block)
    ratio = float(sv[-1] / sv[0]) if sv[0] else 0.0
    return np.ldexp(vt[-1], -column_exponents), ratio


def q_value(basis, cfg, i, x):
    """Q_i at x: the confluent determinant with its first row differentiated
    alpha_i times, built on the current iterate configuration.

    Evaluated by pivoted elimination of the full matrix.  Expanding along
    the probe row with first_row_cofactors instead loses accuracy, because
    each cofactor is a separately rounded minor.  The probe-row expansion
    with node_null_vector, which the solver uses for Q_i'/Q_i, has no
    minors and keeps the accuracy of this elimination against a 50-digit
    oracle.
    """
    alpha = cfg.nodes[i][1]
    return determinant(build_matrix(basis, cfg, x, alpha))


def q_derivative(basis, cfg, i, x):
    """Derivative of Q_i at x, via first-row order alpha_i + 1."""
    alpha = cfg.nodes[i][1]
    return determinant(build_matrix(basis, cfg, x, alpha + 1))


def raw_coefficients_from_roots(basis, cfg):
    """Unnormalized coefficients a_j = (-1)^j M_j from the node-row minors.

    M_j deletes column j of the node-row block; the resulting combination
    vanishes to order alpha_j at every node.  Raises SingularNodeSystem
    when the node block is numerically rank-deficient, which signals a
    node set violating the Haar condition: the minors then form a noise
    vector rather than a meaningful coefficient direction.  Rank deficiency
    is judged by the smallest-to-largest singular value ratio, which stays
    honest for blocks whose entries span many orders of magnitude.
    """
    coeffs = first_row_cofactors(basis, cfg)
    rows, _ = _node_rows(basis, cfg)
    block = np.array(rows, dtype=float)
    sv = np.linalg.svd(block, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= SINGULARITY_RELATIVE_THRESHOLD * sv[0]:
        raise SingularNodeSystem(
            "node block is numerically rank-deficient "
            "(singular value ratio %.3e)"
            % (float(sv[-1] / sv[0]) if sv[0] else 0.0)
        )
    return coeffs


def coefficients_from_roots(basis, cfg, normalize=True):
    """Coefficient vector of the generalized polynomial with the given roots.

    With normalize=True (the default) the vector is scaled to unit maximum
    magnitude.  The unnormalized vector makes Q_i at the exact nodes equal
    f^(alpha_i) without any scale factor; the normalized one is preferred
    everywhere else to keep magnitudes tame.
    """
    coeffs = raw_coefficients_from_roots(basis, cfg)
    if normalize:
        coeffs = coeffs / np.max(np.abs(coeffs))
    return coeffs
