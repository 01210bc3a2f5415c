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

import math
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
    """Square matrix of basis derivatives: one probe row, then the node
    rows of orders 0 .. alpha_j - 1 for each node in turn."""

    entries: np.ndarray


def _node_block(basis, cfg):
    """The n x (n+1) node block of cfg, from one basis.rows call per node.

    Raises DimensionMismatch unless cfg makes the bordered block square.
    """
    if cfg.total_degree + 1 != len(basis):
        raise DimensionMismatch(
            "node multiplicities sum to %d but the basis has %d functions"
            % (cfg.total_degree, len(basis))
        )
    return np.vstack([basis.rows(loc, mult - 1) for loc, mult in cfg.nodes])


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
    block = _node_block(basis, cfg)
    first = basis.rows(probe, first_row_order)[first_row_order]
    return ConfluentMatrix(np.vstack([first, block]))


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


def first_row_cofactors(basis, cfg):
    """Cofactors of the probe row: c_j = (-1)^j det(node block minus column j).

    Expanding the confluent determinant along its first row gives
    Q(x) = sum_j c_j phi_j^(p)(x), so c is the unnormalized coefficient
    vector of the generalized polynomial that vanishes to order alpha_j at
    every node; from_roots normalizes it.

    The cofactors are kappa times the null vector of the node block B, by
    the identity det([r; B]) = kappa (r . c).  So c comes from
    node_null_vector, refined by one step of iterative refinement: the
    residual B c in compensated sums, then the least-squares correction on
    the same equilibrated block.  One determinant fixes kappa:
    det([e_k; B]) = kappa c_k for the largest |c_k|.

    Raises SingularNodeSystem when B is numerically rank-deficient, which
    signals a node set violating the Haar condition: c is then an
    arbitrary direction rather than a coefficient vector.  Raises
    OverflowError on a non-finite node block.
    """
    block = _node_block(basis, cfg)
    c, ratio = node_null_vector(block)
    if ratio <= SINGULARITY_RELATIVE_THRESHOLD:
        raise SingularNodeSystem(
            "node block is numerically rank-deficient "
            "(singular value ratio %.3e)" % ratio
        )
    scaled, row_exponents, column_exponents = _equilibrated(block)
    residual = [math.fsum(terms) for terms in (block * c).tolist()]
    step = np.linalg.lstsq(scaled, np.ldexp(residual, -row_exponents))[0]
    c = c - np.ldexp(step, -column_exponents)
    k = int(np.argmax(np.abs(c)))
    unit_row = np.eye(len(c))[k]
    return determinant(np.vstack([unit_row, block])) / c[k] * c


def _binary_exponents(a, axis):
    """Exponents e with max |a| along axis in [2^(e-1), 2^e); 0 where zero."""
    return np.frexp(np.max(np.abs(a), axis=axis))[1]


def _equilibrated(block):
    """(S, row exponents, column exponents) with S = 2^-r B 2^-c, B the
    node block scaled by powers of two, rows and then columns, so the
    scaling is exact.  Raises OverflowError when a basis value is not
    finite: expression jets overflow to inf without raising, and an SVD
    can fail to return at all on a non-finite entry."""
    if not np.isfinite(block).all():
        raise OverflowError("the node block has non-finite basis values")
    row_exponents = _binary_exponents(block, 1)
    block = np.ldexp(block, -row_exponents[:, None])
    column_exponents = _binary_exponents(block, 0)
    return np.ldexp(block, -column_exponents), row_exponents, column_exponents


def node_null_vector(block):
    """Null vector c of the node block and its singular value ratio.

    The node block B stacks the node rows of a configuration: rows of
    orders 0 .. alpha_j - 1 at each node.  It is n x (n+1), so its null
    space is one-dimensional when B has full rank.  Bordering B with any
    probe row r gives det([r; B]) = kappa (r . c) with one constant kappa
    for the whole block, so a single factorization serves every root
    index and every probe order on a snapshot.

    B is first equilibrated by powers of two (_equilibrated), so c stays
    a null vector of B itself: c is the last right singular vector of the
    scaled block with the column scales undone.  The returned ratio
    sigma_min / sigma_max of the scaled block (0.0 for a zero block) says
    how far B is from rank deficiency, below which c is an arbitrary
    direction rather than a null vector.  The scaling keeps that ratio
    from reading basis functions of very different magnitudes, such as
    exp(30 x) beside 1, as rank deficiency.
    """
    scaled, _, column_exponents = _equilibrated(block)
    _, sv, vt = np.linalg.svd(scaled)
    ratio = float(sv[-1] / sv[0]) if sv[0] else 0.0
    exponents = -column_exponents
    if exponents.max() > 512:
        # a column below 2^-512 could carry c past the float range; c's
        # scale is free, so bring its largest entry into [0.5, 1) instead
        exponents -= int(np.max(np.frexp(vt[-1])[1] + exponents))
    return np.ldexp(vt[-1], exponents), ratio


def q_value(basis, cfg, i, x):
    """Q_i at x: the confluent determinant with its first row differentiated
    alpha_i times, built on the current iterate configuration.

    Evaluated by pivoted elimination of the full matrix, independently of
    the null vector the solver uses for Q_i'/Q_i, so the two can check
    each other.
    """
    alpha = cfg.nodes[i][1]
    return determinant(build_matrix(basis, cfg, x, alpha))


def q_derivative(basis, cfg, i, x):
    """Derivative of Q_i at x, via first-row order alpha_i + 1."""
    alpha = cfg.nodes[i][1]
    return determinant(build_matrix(basis, cfg, x, alpha + 1))
