"""The solver's ratio Q_i'/Q_i against a 50-digit determinant oracle.

The oracle takes the confluent matrices exactly as built in double
precision and divides their determinants in 50-digit arithmetic, so it
measures only the error of the linear algebra.  The null-vector ratio
must be no less accurate than the pivoted-determinant ratio
q_derivative / q_value, up to a factor of 10, at every root index.
The measured errors are printed (visible with pytest -s).
"""

import numpy as np
import pytest

from simroots import (
    RootConfiguration,
    build_matrix,
    make_reference_basis,
    q_derivative,
    q_value,
)
from simroots.basis import BasisSystem, constant, power
from simroots.confluent import _node_block, node_null_vector
from simroots.solver import _q_ratio

mp = pytest.importorskip("mpmath")


def _monomials(count):
    members = [constant()] + [power(s) for s in range(1, count)]
    return BasisSystem(tuple(members))


def _simple_nodes(n):
    # Chebyshev points in [-0.95, 0.95], jittered off their symmetry
    k = np.arange(n)
    xs = 0.95 * np.cos(np.pi * (k + 0.5) / n) + 0.01 * np.sin(k)
    return tuple((float(x), 1) for x in xs)


CASES = {
    "monomial n=8": (_monomials(9), _simple_nodes(8)),
    "monomial n=16": (_monomials(17), _simple_nodes(16)),
    "mixed (3,3,2,2,2) n=12": (
        _monomials(13),
        ((-0.8, 3), (-0.3, 3), (0.2, 2), (0.55, 2), (0.9, 2))),
    "reference start": (make_reference_basis(), ((-0.4, 2), (2.8, 2))),
    "reference roots": (make_reference_basis(), ((-0.5, 2), (3.0, 2))),
}


def _oracle_ratio(basis, cfg, i, x):
    alpha = cfg.nodes[i][1]
    with mp.workdps(50):
        q = mp.det(mp.matrix(build_matrix(basis, cfg, x, alpha).entries.tolist()))
        qp = mp.det(mp.matrix(
            build_matrix(basis, cfg, x, alpha + 1).entries.tolist()))
        return qp / q


def _relative_error(value, exact):
    with mp.workdps(50):
        return float(abs((mp.mpf(value) - exact) / exact))


@pytest.mark.parametrize("name", list(CASES))
def test_null_vector_ratio_against_the_oracle(name):
    basis, nodes = CASES[name]
    cfg = RootConfiguration(nodes)
    null = node_null_vector(_node_block(basis, cfg))
    null_error = pivoted_error = 0.0
    for i, (x, alpha) in enumerate(cfg.nodes):
        exact = _oracle_ratio(basis, cfg, i, x)
        probe = basis.rows(x, alpha + 1)[alpha:]
        null_ratio = _q_ratio(null, probe, i, x, 1.0, 1e-14)
        pivoted_ratio = q_derivative(basis, cfg, i, x) / q_value(basis, cfg, i, x)
        null_error = max(null_error, _relative_error(null_ratio, exact))
        pivoted_error = max(pivoted_error, _relative_error(pivoted_ratio, exact))
    print("%s: null vector %.2e, pivoted %.2e"
          % (name, null_error, pivoted_error))
    assert null_error <= 10.0 * pivoted_error
