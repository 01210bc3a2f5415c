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
numerical differentiation.  Every determinant here is one LAPACK LU
(determinant); the solver reads Q_i'/Q_i from an SVD of the node block
instead (node_null_vector).
"""

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidConfiguration,
    SingularNodeSystem,
)

SINGULARITY_RELATIVE_THRESHOLD = 1e-12


def real_sequence(values):
    """True when values is a 1-d sequence of real numbers: a numpy array
    of integer or float dtype, or a list, tuple or other Sequence of ints,
    floats or other numbers.Real, bools excluded.  Strings, bytes, sets,
    generators, complex numbers, None, nested sequences and numbers that
    float() cannot hold (it raises OverflowError) are not."""
    if isinstance(values, np.ndarray):
        return values.ndim == 1 and values.dtype.kind in "iuf"
    # lists, tuples and all-float sequences skip the ABC checks
    if not isinstance(values, (list, tuple, Sequence)) or isinstance(
            values, (bytes, bytearray)):
        return False
    kinds = set(map(type, values))
    if kinds <= {float}:
        return True
    if not all(issubclass(kind, numbers.Real) and not issubclass(kind, bool)
               for kind in kinds):
        return False
    try:  # float() of an int or a Fraction beyond the float range raises
        list(map(float, values))
    except OverflowError:
        return False
    return True


def positive_integers(multiplicities):
    """The multiplicities as a list of ints.  Raises InvalidConfiguration
    unless they are a real_sequence of positive integers below 2^53, each
    exact as a float; integral floats such as 2.0 and numpy integers pass,
    bools and strings do not."""
    if real_sequence(multiplicities) and all(
            1 <= m < 2 ** 53 and m % 1 == 0 for m in multiplicities):
        return [int(m) for m in multiplicities]
    raise InvalidConfiguration("multiplicities must be positive integers "
                               "below 2^53, got %r" % (multiplicities,))


def finite_real(value, name):
    """value as a float.  Raises InvalidConfiguration unless it is a
    numbers.Real other than bool that float() holds, and finite."""
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(
            value, bool):  # float and int skip the numbers.Real ABC check
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise InvalidConfiguration("%s must be a finite real number, got %r"
                               % (name, value))


def checked_index(i, size, name):
    """i as an int.  Raises InvalidConfiguration unless it is an int or a
    numpy integer, not a bool, from 0 to size - 1: no index wraps."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not (
            0 <= i < size):
        raise InvalidConfiguration("%s must be an integer from 0 to %d, got %r"
                                   % (name, size - 1, i))
    return int(i)


@dataclass(frozen=True)
class RootConfiguration:
    """Node/multiplicity pairs (x_j, alpha_j), used both for exact roots
    and for iterate snapshots."""

    nodes: tuple

    def __post_init__(self):
        multiplicities = positive_integers([m for _, m in self.nodes])
        locations = [x for x, _ in self.nodes]
        if not real_sequence(locations):
            raise InvalidConfiguration("node locations must be real numbers, "
                                       "got %r" % (locations,))
        locations = list(map(float, locations))
        object.__setattr__(self, "nodes",
                           tuple(zip(locations, multiplicities)))
        if len(set(locations)) != len(locations):
            raise InvalidConfiguration("node locations must be pairwise distinct")

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


def node_rows(tensor, multiplicities):
    """The rows of orders 0 .. alpha_i - 1 at each point i of a basis
    tensor (BasisSystem.tensor), stacked in point order: the node block
    of those points with those multiplicities."""
    orders = np.arange(tensor.shape[1])
    return tensor[orders < np.asarray(multiplicities)[:, None]]


def _node_block(basis, cfg):
    """The n x (n+1) node block of cfg, from one basis.tensor call.

    Raises DimensionMismatch unless cfg makes the bordered block square.
    """
    if cfg.total_degree + 1 != len(basis):
        raise DimensionMismatch(
            "node multiplicities sum to %d but the basis has %d functions"
            % (cfg.total_degree, len(basis))
        )
    top = max(cfg.multiplicities) - 1
    return node_rows(basis.tensor(cfg.locations, top), cfg.multiplicities)


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
    numpy.ndarray
        One probe row, then the node rows of orders 0 .. alpha_j - 1 for
        each node in turn.
    """
    block = _node_block(basis, cfg)
    first = basis.rows(probe, first_row_order)[first_row_order]
    return np.vstack([first, block])


def determinant(matrix):
    """Determinant of a square array from LAPACK's partial-pivoting LU
    (np.linalg.det).  Returns 0.0 for an exactly singular matrix; callers
    apply their own magnitude thresholds."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("determinant needs a square matrix")
    return float(np.linalg.det(a))


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
    scaled, row_exponents, column_exponents = _equilibrated(block)
    c, ratio = _null_vector(scaled, column_exponents)
    if ratio <= SINGULARITY_RELATIVE_THRESHOLD:
        raise SingularNodeSystem(
            "node block is numerically rank-deficient "
            "(singular value ratio %.3e)" % ratio
        )
    residual = [math.fsum(terms) for terms in (block * c).tolist()]
    step = np.linalg.lstsq(scaled, np.ldexp(residual, -row_exponents))[0]
    c = c - np.ldexp(step, -column_exponents)
    k = int(np.argmax(np.abs(c)))
    unit_row = np.eye(len(c))[k]
    return determinant(np.vstack([unit_row, block])) / c[k] * c


def _row_maxima(block):
    """max |b_j| of each row b of the node block; OverflowError unless all
    are finite (max propagates NaN): expression jets overflow to inf
    without raising, and an SVD can fail to return on a non-finite entry."""
    maxima = np.abs(block).max(axis=1)
    if not np.isfinite(maxima).all():
        raise OverflowError("the node block has non-finite basis values")
    return maxima


def _equilibrated(block):
    """(S, row exponents, column exponents): S = 2^-r B 2^-c, the node
    block B scaled exactly by powers of two, rows and then columns, each
    2^e within a factor 2 above the largest |entry| of its row or column
    (e = 0 for a zero one).  Raises as _row_maxima."""
    row_exponents = np.frexp(_row_maxima(block))[1]
    block = np.ldexp(block, -row_exponents[:, None])
    column_exponents = np.frexp(np.abs(block).max(axis=0))[1]
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
    return _null_vector(scaled, column_exponents)


def _null_vector(scaled, column_exponents):
    """node_null_vector from the equilibrated block and its column
    exponents (_equilibrated)."""
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

    Evaluated by an LU of the full matrix (determinant), independently of
    the SVD null vector the solver uses for Q_i'/Q_i, so the two can check
    each other.  Raises InvalidConfiguration unless i indexes a node.
    """
    alpha = cfg.nodes[checked_index(i, len(cfg), "root index")][1]
    return determinant(build_matrix(basis, cfg, x, alpha))


def q_derivative(basis, cfg, i, x):
    """Derivative of Q_i at x, via first-row order alpha_i + 1; i as for
    q_value."""
    alpha = cfg.nodes[checked_index(i, len(cfg), "root index")][1]
    return determinant(build_matrix(basis, cfg, x, alpha + 1))
