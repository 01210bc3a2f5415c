"""A ledger of false convergence claims that may only fall.

A false claim is a `converged` result whose final approximations lie
outside the benchmark's accuracy gate (bench/tracing.within_gate).  The
ledger counts them per (workload, slice, method) over every problem of
each slice of seed 1 of bench/workloads.generate, a CLI problem file once
per method as `simroots run` parses it, and on named cases.  Each count
is an upper bound at its present value, and so is their sum.  The
`converged` results inside the gate are counted too, each a lower bound
at its present value, so that no change lowers a false count by refusing
everything.  A change that lowers a count lowers its pin with it.
"""

import random
from collections import Counter
from pathlib import Path

import pytest

from simroots import (RootConfiguration, SolverSettings, SolveStatus, cli,
                      from_roots, solve)

BENCH = Path(__file__).resolve().parents[1] / "bench"

WORKLOADS = ("reference_cli", "monomial_det", "monomial_ehrlich",
             "expression_jets")

# (workload, slice, method) -> converged outside the gate; 0 for any other
FALSE_CLAIMS = {
    ("reference_cli", "double-double", "method13"): 16,
    ("reference_cli", "double-double", "method3"): 1,
    ("expression_jets", "simple-triple.method3", "method3"): 11,
    ("expression_jets", "simple-triple.method13", "method13"): 3,
}

# (workload, slice, method) -> converged inside the gate, for every key
# with a converged result
TRUE_CLAIMS = {
    ("reference_cli", "demo", "method3"): 1,
    ("reference_cli", "demo", "method13"): 1,
    ("reference_cli", "double-double", "method3"): 971,
    ("reference_cli", "double-double", "method13"): 968,
    ("monomial_det", "n6.method3", "method3"): 33,
    ("monomial_det", "n10.method3", "method3"): 42,
    ("monomial_det", "n14.method3", "method3"): 33,
    ("monomial_det", "mixed.method13", "method13"): 6,
    ("monomial_ehrlich", "n6.ehrlich", "ehrlich"): 48,
    ("monomial_ehrlich", "n10.ehrlich", "ehrlich"): 48,
    ("monomial_ehrlich", "n14.ehrlich", "ehrlich"): 48,
    ("monomial_ehrlich", "n20.ehrlich", "ehrlich"): 24,
    ("expression_jets", "double-double.method3", "method3"): 125,
    ("expression_jets", "double-double.method13", "method13"): 124,
    ("expression_jets", "simple-triple.method3", "method3"): 91,
    ("expression_jets", "simple-triple.method13", "method13"): 124,
}

# the (3,3,2,2,2) monomial corpus, random.Random(7), 30 draws with every
# start 5% of the gap from its root: method -> (false, true) claims
MIXED_CORPUS = {"method3": (20, 10), "ehrlich": (20, 10), "method13": (0, 30)}

# {1, 1.001} on {1, x, x^2} claimed as one double root, started at 0.9:
# method13 steps on f'/f'' and reports converged at 1.0005, the zero of f'
# between the two roots; method -> false claims
NEAR_DOUBLE = {"method3": 0, "method13": 1, "ehrlich": 0}


def _tally(counts, key, report, roots, within_gate):
    if report.status is SolveStatus.converged:
        inside = within_gate(report.history[-1].approximations.tolist(),
                             roots)
        counts[key + (inside,)] += 1


@pytest.fixture(scope="module")
def bench_modules():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        import tracing
        import workloads
        yield workloads, tracing.within_gate


@pytest.fixture(scope="module")
def ledger(bench_modules, tmp_path_factory):
    """Counter of (workload, slice, method, inside the gate) over every
    converged solve of every problem of every slice, seed 1."""
    workloads, within_gate = bench_modules
    counts = Counter()
    for name in WORKLOADS:
        workload = workloads.generate(name, 1, tmp_path_factory.mktemp(name))
        for slice_ in workload.slices:
            for problem in slice_.problems:
                if slice_.kind == "cli":
                    loaded = cli.load_problem(problem.path)
                    runs = [(loaded.f, loaded.initial, loaded.multiplicities,
                             settings)
                            for settings in loaded.settings.values()]
                else:
                    runs = [(problem.f, problem.initial,
                             problem.multiplicities, slice_.settings)]
                for f, initial, multiplicities, settings in runs:
                    _tally(counts, (name, slice_.name, settings.method),
                           solve(f, initial, multiplicities, settings),
                           problem.roots, within_gate)
        workload.close()
    return counts


@pytest.mark.parametrize("name", WORKLOADS)
def test_false_claims_do_not_rise(name, ledger):
    false = {key[:3]: n for key, n in ledger.items()
             if key[0] == name and not key[3]}
    for key, n in false.items():
        assert n <= FALSE_CLAIMS.get(key, 0), (key, n)


@pytest.mark.parametrize("name", WORKLOADS)
def test_true_claims_do_not_fall(name, ledger):
    true = {key[:3]: n for key, n in ledger.items()
            if key[0] == name and key[3]}
    pinned = {key: n for key, n in TRUE_CLAIMS.items() if key[0] == name}
    assert set(true) == set(pinned)
    for key, n in pinned.items():
        assert true[key] >= n, (key, true[key])


def test_the_sum_of_false_claims_does_not_rise(ledger):
    assert sum(n for key, n in ledger.items() if not key[3]) <= sum(
        FALSE_CLAIMS.values()) == 31


@pytest.mark.parametrize("method", MIXED_CORPUS)
def test_mixed_corpus_claims(method, bench_modules):
    workloads, within_gate = bench_modules
    counts = Counter()
    for problem in workloads._monomial_problems(
            random.Random(7), workloads.MIXED, 30, (0.05, 0.05)):
        _tally(counts, (), solve(problem.f, problem.initial,
                                 problem.multiplicities,
                                 SolverSettings(method=method)),
               problem.roots, within_gate)
    false, true = MIXED_CORPUS[method]
    assert counts[(False,)] <= false
    assert counts[(True,)] >= true


@pytest.mark.parametrize("method", NEAR_DOUBLE)
def test_two_simple_roots_claimed_double(method, bench_modules):
    workloads, within_gate = bench_modules
    f = from_roots(workloads.monomial_basis(2),
                   RootConfiguration(((1.0, 1), (1.001, 1))))
    report = solve(f, [0.9], [2], SolverSettings(method=method))
    final = report.history[-1].approximations.tolist()
    claims = report.status is SolveStatus.converged and not any(
        within_gate(final, [root]) for root in (1.0, 1.001))
    assert claims <= NEAR_DOUBLE[method]
    if claims:
        assert final == [pytest.approx(1.0005, abs=1e-12)]
