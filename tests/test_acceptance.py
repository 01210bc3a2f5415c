"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single verdict line with the measured margin, then
asserts it.  The worked example is the reference basis
{1, x^2, sin 3x, exp(-x), 1/(1+x^2)} with double roots at -0.5 and 3,
iterated from (-0.4, 2.8).
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from simroots import (
    GeneralizedPolynomial,
    IterationState,
    RootConfiguration,
    SolverSettings,
    SolveStatus,
    build_matrix,
    check_derivative_congruence,
    determinant,
    estimate_order,
    eval_phi,
    from_roots,
    make_reference_basis,
    q_derivative,
    q_value,
    richardson_derivative,
    single_correction,
    solve,
)
from simroots import solver
from simroots.basis import BasisSystem, constant, exponential, power, sine

METHOD3_CELLS = (
    (-0.5001904855, 2.9812593584),
    (-0.5000000001, 2.9999296686),
    (-0.5000000000, 3.0000000000),
)
METHOD13_CELLS = (
    ((-0.5021054, 5e-8), (2.9677106, 5e-8)),
    ((-0.500000081, 5e-10), (2.99935, 5e-6)),
    ((-0.5000000000, 5e-11), (2.9999999915, 5e-11)),
)


def _monomials(count):
    members = [constant()] + [power(s) for s in range(1, count)]
    return BasisSystem(tuple(members))


def _reference_polynomial():
    system = make_reference_basis()
    return system, from_roots(system, RootConfiguration(((-0.5, 2), (3.0, 2))))


def _verdict(number, label, ok, detail):
    line = "criterion %02d %s: %s (%s)" % (
        number, label, "PASS" if ok else "FAIL", detail)
    print(line)
    return line


def _random_problem(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, min(4, n) + 1))
    m = max(m, -(-n // 3))
    if m == 1:
        parts = [n]
    else:
        while True:
            cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1,
                                      replace=False))
            parts = np.diff(np.concatenate(([0], cuts, [n]))).tolist()
            if max(parts) <= 3:
                break
    while True:
        locs = np.sort(rng.uniform(-1.1, 1.1, m))
        if m == 1 or np.min(np.diff(locs)) >= 0.55:
            break
    cfg = RootConfiguration(tuple(zip(locs.tolist(), parts)))
    f = from_roots(_monomials(n + 1), cfg)
    states = locs + rng.uniform(0.04, 0.10, m) * rng.choice([-1.0, 1.0], m)
    if m > 1 and np.min(np.diff(np.sort(states))) < 0.275:
        states = locs + rng.uniform(0.04, 0.10, m)
    return f, IterationState(states, np.array(parts))


def test_01_worked_example_table_method3():
    _, f = _reference_polynomial()
    started = time.perf_counter()
    report = solve(f, (-0.4, 2.8), (2, 2))
    elapsed = time.perf_counter() - started
    worst = 0.0
    for k, cells in enumerate(METHOD3_CELLS, start=1):
        got = report.history[k].approximations
        worst = max(worst, float(np.max(np.abs(got - np.array(cells)))))
    ok = worst < 1e-8 and elapsed < 1.0 \
        and report.status is SolveStatus.converged
    line = _verdict(1, "worked-example table, method3", ok,
                    "max cell deviation %.3e, %.3f s" % (worst, elapsed))
    assert ok, line


def test_02_worked_example_table_method13():
    _, f = _reference_polynomial()
    report = solve(f, (-0.4, 2.8), (2, 2), SolverSettings(method="method13"))
    worst_margin = 0.0
    ok = report.status is SolveStatus.converged
    for k, cells in enumerate(METHOD13_CELLS, start=1):
        got = report.history[k].approximations
        for value, (expected, tolerance) in zip(got, cells):
            margin = abs(value - expected) / tolerance
            worst_margin = max(worst_margin, margin)
            ok = ok and margin <= 1.0
    line = _verdict(2, "worked-example table, method13", ok,
                    "worst deviation %.3f of its printed-precision budget"
                    % worst_margin)
    assert ok, line


def test_03_reduction_identity_on_random_monomial_problems():
    rng = np.random.default_rng(20260819)
    worst_ratio = 0.0
    worst_step = 0.0
    for _ in range(50):
        f, state = _random_problem(rng)
        xs, mult = state.approximations, state.multiplicities
        cfg = RootConfiguration(tuple(zip(xs.tolist(), mult.tolist())))
        sums = solver._pairwise_sums(xs, mult)  # what ehrlich runs
        for i in range(len(cfg)):
            x = float(state.approximations[i])
            alpha = int(state.multiplicities[i])
            direct = q_derivative(f.basis, cfg, i, x) / (
                (alpha + 1.0) * q_value(f.basis, cfg, i, x))
            shortcut = sums[i]
            # a lone node makes both sides exactly zero
            if shortcut != direct:
                worst_ratio = max(worst_ratio,
                                  abs(shortcut - direct) / abs(direct))
        generalized = solver._step(f, state, SolverSettings())[0]
        classical = solver._step(f, state,
                                 SolverSettings(method="ehrlich"))[0]
        gap = np.abs(generalized - classical)
        live = gap > 0.0
        if np.any(live):
            worst_step = max(worst_step, float(np.max(
                gap[live] / np.abs(generalized[live]))))
    ok = worst_ratio < 1e-9 and worst_step < 1e-12
    line = _verdict(3, "classical reduction on 50 random monomial problems",
                    ok, "ratio deviation %.3e, step deviation %.3e"
                    % (worst_ratio, worst_step))
    assert ok, line


def test_04_exactness_and_congruence_under_node_shifts():
    _, f = _reference_polynomial()
    table = check_derivative_congruence(f)
    exact_row = table[0][1]
    decays = all(table[k + 1][1] <= 0.15 * table[k][1]
                 for k in range(1, len(table) - 1))
    shrinks = table[1][1] <= 0.15 * f.construction_scale
    ok = exact_row < 1e-9 * f.construction_scale and decays and shrinks
    line = _verdict(4, "derivative congruence at and near the exact nodes",
                    ok, "zero-shift deviation %.3e of scale %.4g, "
                    "decade ratios %.4f and %.4f"
                    % (exact_row / f.construction_scale, f.construction_scale,
                       table[2][1] / table[1][1], table[3][1] / table[2][1]))
    assert ok, line


def _phi_margins(f, iterate_cfg, roots):
    worst = 0.0
    for i, root in enumerate(roots):
        alpha = iterate_cfg.nodes[i][1]

        def phi(x):
            return eval_phi(f, iterate_cfg, i, x, true_root=root)

        scale = max(abs(phi(root - 0.5)), abs(phi(root + 0.5)))
        for q in range(1, alpha + 1):
            value = abs(richardson_derivative(phi, root, q))
            worst = max(worst, value / scale)
    return worst


def test_05_correction_numerator_vanishes_to_full_order():
    _, f = _reference_polynomial()
    worst_a = _phi_margins(f, RootConfiguration(((-0.4, 2), (2.8, 2))),
                           (-0.5, 3.0))

    mono = _monomials(5)
    g = from_roots(mono, RootConfiguration(((0.0, 3), (2.0, 1))))
    worst_b = _phi_margins(g, RootConfiguration(((0.05, 3), (1.9, 1))),
                           (0.0, 2.0))
    ok = worst_a < 1e-4 and worst_b < 1e-4
    line = _verdict(5, "numerator derivatives vanish at the true roots", ok,
                    "worked example %.3e, monomial triple root %.3e "
                    "of local scale" % (worst_a, worst_b))
    assert ok, line


def test_06_empirical_convergence_order():
    _, f = _reference_polynomial()
    report = solve(f, (-0.4, 2.8), (2, 2))
    reference_orders = dict(estimate_order(report.history,
                                           (-0.5, 3.0)).per_root)

    mono = _monomials(3)
    g = from_roots(mono, RootConfiguration(((1.0, 1), (-1.0, 1))))
    classical = solve(g, (0.9, -1.2), (1, 1), SolverSettings(method="ehrlich"))
    classical_orders = dict(estimate_order(classical.history,
                                           (1.0, -1.0)).per_root)
    ok = reference_orders[1] >= 2.3 and all(
        order >= 2.5 for order in classical_orders.values())
    line = _verdict(6, "empirical convergence orders", ok,
                    "worked example x_2 %.3f, classical quadratic %.3f / %.3f"
                    % (reference_orders[1], classical_orders[0],
                       classical_orders[1]))
    assert ok, line


def test_07_scale_invariance_of_the_iteration():
    system, f = _reference_polynomial()
    base = solve(f, (-0.4, 2.8), (2, 2))
    deviations = {}
    for c in (1e-6, 1.0, 1e6):
        scaled = GeneralizedPolynomial(system, c * f.coefficients)
        report = solve(scaled, (-0.4, 2.8), (2, 2))
        worst = 0.0
        for a, b in zip(base.history, report.history):
            worst = max(worst, float(np.max(
                np.abs(a.approximations - b.approximations)
                / np.abs(a.approximations))))
        deviations[c] = worst
    ok = all(worst <= 1e-13 for worst in deviations.values())
    line = _verdict(7, "coefficient scale invariance of all iterates", ok,
                    ", ".join("c=%g: %.3e" % (c, worst)
                              for c, worst in deviations.items()))
    assert ok, line


def test_08_fixed_point_at_the_exact_roots():
    _, f = _reference_polynomial()
    report = solve(f, (-0.5, 3.0), (2, 2))
    final = report.history[-1]
    largest = float(np.max(np.abs(final.last_corrections)))
    ok = report.status is SolveStatus.converged and largest < 1e-12
    line = _verdict(8, "exact roots are a fixed point", ok,
                    "status %s, max correction %.3e"
                    % (report.status.value, largest))
    assert ok, line


def _naive_cofactor_det(entries):
    size = len(entries)
    if size == 1:
        return entries[0][0]
    total = 0.0
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in entries[1:]]
        total += (-1.0) ** j * entries[0][j] * _naive_cofactor_det(minor)
    return total


def test_09_determinant_against_cofactor_expansion():
    rng = np.random.default_rng(11)
    corpus = [np.eye(k) for k in range(1, 5)]
    corpus.append(np.array([[1.0, 2.0], [3.0, 4.0]]))
    corpus.append(np.array([[2.0, 0.0, 1.0],
                            [1.0, 5.0, -2.0],
                            [0.0, 3.0, 1.0]]))
    corpus.append(rng.uniform(-2.0, 2.0, (3, 3)))
    corpus.append(rng.uniform(-2.0, 2.0, (4, 4)))
    # confluent matrices with multiplicity blocks, dimension <= 4
    corpus.append(build_matrix(_monomials(3),
                               RootConfiguration(((0.5, 2),)), 0.7, 2))
    corpus.append(build_matrix(_monomials(4),
                               RootConfiguration(((0.5, 3),)), -0.3, 3))
    corpus.append(build_matrix(_monomials(4),
                               RootConfiguration(((-0.4, 2), (0.8, 1))),
                               0.1, 2))
    trimmed = BasisSystem((constant(), power(2), sine(3.0), exponential(-1.0)))
    corpus.append(build_matrix(trimmed,
                               RootConfiguration(((0.3, 2), (1.2, 1))),
                               0.6, 2))
    worst = 0.0
    for matrix in corpus:
        entries = np.asarray(matrix, dtype=float)
        pivoted = determinant(entries)
        naive = _naive_cofactor_det(entries.tolist())
        worst = max(worst, abs(pivoted - naive) / max(abs(naive), 1e-300))
    ok = worst < 1e-12
    line = _verdict(9, "pivoted determinant versus cofactor expansion", ok,
                    "worst relative deviation %.3e over %d matrices"
                    % (worst, len(corpus)))
    assert ok, line


def test_10_total_step_order_and_parallel_determinism():
    system, f = _reference_polynomial()
    report = solve(f, (-0.4, 2.8), (2, 2))
    mono = _monomials(3)
    g = from_roots(mono, RootConfiguration(((1.0, 1), (-1.0, 1))))
    rng = np.random.default_rng(20260819)
    cases = [
        (f, report.history[0], SolverSettings()),
        (f, report.history[1], SolverSettings()),
        (f, report.history[0], SolverSettings(method="method13")),
        (g, IterationState(np.array([0.9, -1.2]), np.array([1, 1])),
         SolverSettings(method="ehrlich")),
    ]
    for _ in range(3):
        h, state = _random_problem(rng)
        cases.append((h, state, SolverSettings()))
    ok = True
    for h, state, settings in cases:
        count = len(state.approximations)
        forward = np.array([single_correction(h, state, i, settings)
                            for i in range(count)])
        backward = np.empty(count)
        for i in reversed(range(count)):
            backward[i] = single_correction(h, state, i, settings)
        shuffled = np.empty(count)
        for i in rng.permutation(count):
            shuffled[i] = single_correction(h, state, int(i), settings)
        # no shared snapshot: each task builds its own, concurrently
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = np.array(list(pool.map(
                lambda i: single_correction(h, state, i, settings),
                range(count))))
        ok = ok and np.array_equal(forward, backward) \
            and np.array_equal(forward, shuffled) \
            and np.array_equal(forward, concurrent) \
            and np.array_equal(state.approximations - forward,
                               state.approximations - concurrent)
    ok = bool(ok)
    line = _verdict(10, "per-root corrections are order-independent", ok,
                    "%d snapshots, sequential / reversed / shuffled / "
                    "concurrent all bitwise equal" % len(cases))
    assert ok, line
