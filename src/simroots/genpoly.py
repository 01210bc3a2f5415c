"""Generalized polynomials: coefficient vectors over a basis system."""

import math
from dataclasses import dataclass

import numpy as np

from . import confluent
from .confluent import RootConfiguration
from .errors import DimensionMismatch, InvalidConfiguration


@dataclass(frozen=True)
class GeneralizedPolynomial:
    """f(x) = sum_j a_j phi_j(x) over a fixed basis system.

    construction_roots and construction_scale are populated by from_roots:
    the stored roots let diagnostics locate the true zeros, and the scale s
    restores the unnormalized coefficient vector as s * coefficients.
    The coefficients must be a confluent.real_sequence of finite values,
    not all zero (InvalidConfiguration), one per basis function
    (DimensionMismatch).
    """

    basis: object
    coefficients: np.ndarray
    construction_roots: RootConfiguration | None = None
    construction_scale: float | None = None

    def __post_init__(self):
        if not confluent.real_sequence(self.coefficients):
            raise InvalidConfiguration("coefficients must be a 1-d sequence "
                                       "of real numbers")
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != len(self.basis):
            raise DimensionMismatch(
                "got %d coefficients for a basis of %d functions"
                % (len(coeffs), len(self.basis))
            )
        if not (np.isfinite(coeffs).all() and np.any(coeffs)):
            raise InvalidConfiguration("coefficients must be finite and not "
                                       "all zero, got %r" % (coeffs,))

    def row_sums(self, rows):
        """[(sum_j a_j r_j, sum_j |a_j r_j|) for each row r of rows]: with
        rows = basis.rows(x, top), f^(p)(x) and its term magnitude for
        every order p, from one product over the nonzero coefficients
        (_term_sums): exactly rounded values, magnitudes as plain row sums.
        None where a row's sums leave the float range; checked_sums()
        turns it into OverflowError where it is read.
        """
        columns = np.flatnonzero(self.coefficients)
        return _term_sums(rows[:, columns], self.coefficients[columns])

    def eval(self, x, p=0):
        """Evaluate the p-th derivative at x by compensated summation; p as
        for BasisSystem.tensor."""
        return checked_sums(self.row_sums(self.basis.rows(x, p)[-1:])[0])[0]

    def term_magnitude(self, x, p=0):
        """Sum of |a_j phi_j^(p)(x)|, the roundoff scale of eval(x, p):
        a plain row sum, within (k - 1) u of exact for k terms."""
        return checked_sums(self.row_sums(self.basis.rows(x, p)[-1:])[0])[1]


def _term_sums(rows, weights):
    """(value, scale) of every row of rows * weights, rows stacked on all
    axes but the last: the value sum_j w_j r_j, whose terms cancel, as an
    exactly rounded math.fsum; the scale sum_j |w_j r_j| as one numpy row
    sum, within (k - 1) u of exact for k terms.  The products are laid out
    in C order whatever the layout of rows, because numpy sums a row in an
    order that depends on it, so that equal rows get equal scales.  None
    where the scale is not finite (a term is not, or the sum overflows) or
    the fsum overflows.  The scales are not negative, so their sum is
    finite only when each of them is: then every row is summed at once,
    and the rows are checked one by one only otherwise."""
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are None
        products = np.multiply(rows, weights, order="C").reshape(
            -1, len(weights))
        scales = np.abs(products).sum(axis=1).tolist()
    terms = products.tolist()
    if math.isfinite(sum(scales)):
        try:
            return list(zip(map(math.fsum, terms), scales))
        except OverflowError:
            pass
    sums = []
    for row, scale in zip(terms, scales):
        try:
            sums.append((math.fsum(row), scale)
                        if math.isfinite(scale) else None)
        except OverflowError:
            sums.append(None)
    return sums


def checked_sums(sums):
    """One entry of row_sums; OverflowError where it is None."""
    if sums is None:
        raise OverflowError("a term of f at a basis row is not finite")
    return sums


def from_roots(basis, cfg):
    """Construct the generalized polynomial vanishing to order alpha_j at
    each node of cfg, normalized to unit maximum coefficient magnitude."""
    if not isinstance(cfg, RootConfiguration):
        cfg = RootConfiguration(tuple(cfg))
    raw = confluent.first_row_cofactors(basis, cfg)
    scale = float(np.max(np.abs(raw)))
    return GeneralizedPolynomial(basis, raw / scale, cfg, scale)
