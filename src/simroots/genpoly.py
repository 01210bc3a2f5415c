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
    """

    basis: object
    coefficients: np.ndarray
    construction_roots: RootConfiguration | None = None
    construction_scale: float | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) != len(self.basis):
            raise DimensionMismatch(
                "got %d coefficients for a basis of %d functions"
                % (len(coeffs), len(self.basis))
            )
        if not np.any(coeffs):
            raise InvalidConfiguration("coefficients must not all be zero")

    def row_sums(self, row):
        """(sum_j a_j r_j, sum_j |a_j r_j|) for one row r of basis values:
        with r = basis.rows(x, top)[p], f^(p)(x) and its term magnitude.

        Compensated sums over the nonzero coefficients.  Raises
        OverflowError when a term is not finite, where the sum would be
        inf, nan, or a ValueError for inf - inf.
        """
        a = self.coefficients
        nonzero = a != 0.0
        terms = a[nonzero] * row[nonzero]
        if not np.isfinite(terms).all():
            raise OverflowError("a term of f at a basis row is not finite")
        terms = terms.tolist()
        return math.fsum(terms), math.fsum(map(abs, terms))

    def eval(self, x, p=0):
        """Evaluate the p-th derivative at x by compensated summation."""
        return self.row_sums(self.basis.rows(x, p)[p])[0]

    __call__ = eval

    def term_magnitude(self, x, p=0):
        """Sum of |a_j phi_j^(p)(x)|, the roundoff scale of eval(x, p)."""
        return self.row_sums(self.basis.rows(x, p)[p])[1]


def from_roots(basis, cfg):
    """Construct the generalized polynomial vanishing to order alpha_j at
    each node of cfg, normalized to unit maximum coefficient magnitude."""
    if not isinstance(cfg, RootConfiguration):
        cfg = RootConfiguration(tuple(cfg))
    raw = confluent.first_row_cofactors(basis, cfg)
    scale = float(np.max(np.abs(raw)))
    return GeneralizedPolynomial(basis, raw / scale, cfg, scale)
