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

    def row_sums(self, rows):
        """[(sum_j a_j r_j, sum_j |a_j r_j|) for each row r of rows]: with
        rows = basis.rows(x, top), f^(p)(x) and its term magnitude for
        every order p.

        One product over the nonzero coefficients for the whole stack,
        then compensated sums per row.  A row whose sums leave the float
        range gives None: a term that is not finite (the sum would be inf,
        nan, or a ValueError for inf - inf), or an fsum that overflows.
        checked_sums() turns that None into OverflowError where it is read.
        """
        columns = np.flatnonzero(self.coefficients)
        return _term_sums(rows[:, columns], self.coefficients[columns])

    def eval(self, x, p=0):
        """Evaluate the p-th derivative at x by compensated summation."""
        return checked_sums(self.row_sums(self.basis.rows(x, p)[p:])[0])[0]

    __call__ = eval

    def term_magnitude(self, x, p=0):
        """Sum of |a_j phi_j^(p)(x)|, the roundoff scale of eval(x, p)."""
        return checked_sums(self.row_sums(self.basis.rows(x, p)[p:])[0])[1]


def _term_sums(rows, coefficients):
    """row_sums of rows already cut to the columns of these coefficients."""
    with np.errstate(over="ignore"):  # a product out of range gives None
        return [_sums(terms) for terms in (rows * coefficients).tolist()]


def _sums(terms):
    try:
        value, magnitude = math.fsum(terms), math.fsum(map(abs, terms))
    except (OverflowError, ValueError):
        return None
    # |value| <= magnitude, which is finite exactly when every term is
    return (value, magnitude) if math.isfinite(magnitude) else None


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
