"""The solver's ratio Q_i'/Q_i against a 50-digit determinant oracle.

The oracle takes the confluent matrices exactly as built in double
precision and divides their determinants in 50-digit arithmetic, so it
measures only the error of the linear algebra.  The null-vector ratio
Q'_i/Q_i, read from the per-snapshot sums of every root (_q_sums), must
be no less accurate than the LU-determinant ratio
q_derivative / q_value, up to a factor of 10, at every root index.
The same oracle checks the one determinant behind from_roots: kappa's
det([e_k; B]) in first_row_cofactors.  The measured errors are printed
(visible with pytest -s).
"""

import numpy as np
import pytest

from simroots import (
    RootConfiguration,
    build_matrix,
    determinant,
    first_row_cofactors,
    make_reference_basis,
    q_derivative,
    q_value,
)
from simroots.basis import BasisSystem, constant, power
from simroots.confluent import _node_block, node_null_vector
from simroots.solver import _q_sums

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
        q = mp.det(mp.matrix(build_matrix(basis, cfg, x, alpha).tolist()))
        qp = mp.det(mp.matrix(
            build_matrix(basis, cfg, x, alpha + 1).tolist()))
        return qp / q


def _relative_error(value, exact):
    with mp.workdps(50):
        return float(abs((mp.mpf(value) - exact) / exact))


@pytest.mark.parametrize("name", list(CASES))
def test_null_vector_ratio_against_the_oracle(name):
    basis, nodes = CASES[name]
    cfg = RootConfiguration(nodes)
    c, _ = node_null_vector(_node_block(basis, cfg))
    mult = np.array(cfg.multiplicities)
    tensor = basis.tensor(cfg.locations, int(mult.max()) + 1)
    probes = tensor[np.arange(len(mult))[:, None], mult[:, None] + (0, 1)]
    q_sums = _q_sums(probes, c)
    null_error = pivoted_error = 0.0
    for i, (x, alpha) in enumerate(cfg.nodes):
        exact = _oracle_ratio(basis, cfg, i, x)
        (q, _), (qp, _) = q_sums[i]
        null_ratio = qp / q
        pivoted_ratio = q_derivative(basis, cfg, i, x) / q_value(basis, cfg, i, x)
        null_error = max(null_error, _relative_error(null_ratio, exact))
        pivoted_error = max(pivoted_error, _relative_error(pivoted_ratio, exact))
    print("%s: null vector %.2e, pivoted %.2e"
          % (name, null_error, pivoted_error))
    assert null_error <= 10.0 * pivoted_error


def _jittered_grid(rng, multiplicities):
    # distinct roots on an even grid in [-1, 1], each moved by up to 1/8
    # of the grid step, as in the benchmark's monomial problems
    step = 2.0 / len(multiplicities)
    return tuple((-1.0 + (k + 0.5 + 0.25 * (rng.random() - 0.5)) * step, m)
                 for k, m in enumerate(multiplicities))


def _paper_pair(rng):
    return ((rng.uniform(-1.0, 0.0), 2), (rng.uniform(2.5, 3.5), 2))


# (basis, seeded node configurations, bound): each bound is 4 times the
# worst relative error of the LAPACK determinant over the 8 seeded
# configurations (1.7e-15, 8.9e-14, 5.6e-12, 2.1e-9, 1.5e-12, 4.6e-16),
# rounded up
KAPPA_CASES = {
    "monomial n=6": (_monomials(7), lambda rng: _jittered_grid(rng, (1,) * 6),
                     7e-15),
    "monomial n=10": (_monomials(11),
                      lambda rng: _jittered_grid(rng, (1,) * 10), 3.6e-13),
    "monomial n=14": (_monomials(15),
                      lambda rng: _jittered_grid(rng, (1,) * 14), 2.3e-11),
    "monomial n=20": (_monomials(21),
                      lambda rng: _jittered_grid(rng, (1,) * 20), 8.2e-9),
    "mixed (3,3,2,2,2) n=12": (
        _monomials(13), lambda rng: _jittered_grid(rng, (3, 3, 2, 2, 2)),
        6.1e-12),
    "reference (2,2)": (make_reference_basis(), _paper_pair, 1.9e-15),
}


@pytest.mark.parametrize("name", list(KAPPA_CASES))
def test_kappa_determinant_against_the_oracle(name):
    basis, configurations, bound = KAPPA_CASES[name]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(8):
        cfg = RootConfiguration(configurations(rng))
        c = first_row_cofactors(basis, cfg)
        k = int(np.argmax(np.abs(c)))
        bordered = np.vstack([np.eye(len(c))[k], _node_block(basis, cfg)])
        with mp.workdps(50):
            exact = mp.det(mp.matrix(bordered.tolist()))
        worst = max(worst, _relative_error(determinant(bordered), exact))
    print("%s: kappa determinant %.2e (bound %.1e)" % (name, worst, bound))
    assert worst <= bound

