"""Seeded inputs for the benchmark workloads.

Every workload is a list of slices.  A slice is one kind of operation (one
basis, root configuration and method) with a pool of seeded problems and a
weight; `Workload.sequence` interleaves the slices by weight, so any prefix
of the sequence holds each slice in close to its weighted share.

The quantities that decide how hard a problem is (root positions and how
far each start sits from its root) come from a Halton sequence shifted by a
seeded random offset.  Any prefix of the pool then covers the same ranges
evenly, whatever the seed and however many ops a run gets through, so the
spread between runs reflects the program rather than sampling luck.

Only `simroots` public functions are used here; the true roots of every
problem are known because each polynomial is built with `from_roots`.
"""

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import simroots
from simroots import RootConfiguration, SolverSettings
from simroots.basis import BasisSystem, constant, expression, power

HERE = Path(__file__).resolve().parent
DEMO = HERE / "problems" / "demo.json"

# The paper's basis {1, x^2, sin 3x, e^-x, 1/(1+x^2)} written as expressions.
PAPER_EXPRESSIONS = ("1", "x*x", "sin(3*x)", "exp(-x)", "1/(1+x*x)")

# Root ranges around the paper's worked example (-0.5, 3).
PAPER_LEFT = (-1.0, 0.0)
PAPER_RIGHT = (2.5, 3.5)
# A start lies this far from its root, in absolute units, with a random sign.
PAPER_START_OFFSET = (0.01, 0.08)

# Monomial roots sit on an even grid in [-1, 1] with a jitter of this share
# of the grid step; a start lies this share of the gap to the nearest other
# root away from its root.
MONO_JITTER = 0.25
MONO_START_SHARE = (0.05, 0.3)

# Multiplicities (3,3,2,2,2), n=12, with starts closer in: at 2-10% of the
# gap method13 converges in 4-5 sweeps, while method3 and ehrlich run out
# the 50-sweep budget from any start.
MIXED = (3, 3, 2, 2, 2)
MIXED_START_SHARE = (0.02, 0.1)

# method3 and ehrlich on the mixed slice end after 50 sweeps wherever
# rounding noise has thrown the iterates; about 1 seeded problem in 20 ends
# inside the gate by chance, and that chance would decide fail_frac and
# digits_min from seed to seed.  So both get this one fixed problem: roots
# at the grid centres, starts 10% of the gap away with alternating signs.
# method3 ends 9.4e-4 and ehrlich 1.9 from the roots, as most seeded
# problems do (at 5% of the gap method3 ends 7.8e-7 away, inside the gate).
FIXED_MIXED_ROOTS = (-0.8, -0.4, 0.0, 0.4, 0.8)
FIXED_MIXED_START_SHARE = 0.1


@dataclass
class Problem:
    """One seeded input: a polynomial with known roots and the starts."""

    f: object
    roots: tuple
    initial: tuple
    multiplicities: tuple
    path: Path | None = None


@dataclass
class Slice:
    name: str
    kind: str  # "solve" or "cli"
    weight: int
    problems: list
    settings: SolverSettings | None = None


@dataclass
class Workload:
    name: str
    slices: list
    workdir: Path | None = None
    sequence: list = field(init=False)

    def __post_init__(self):
        self.sequence = _interleave(self.slices)

    @property
    def period(self):
        """Ops in one round of the interleave, each slice its weight."""
        return sum(s.weight for s in self.slices)

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _interleave(slices):
    """Smooth weighted round-robin over the slices, one period of
    sum(weights) entries per pass, cycling each slice through its pool
    until the longest pool has been visited once."""
    total = sum(s.weight for s in slices)
    periods = max(-(-len(s.problems) // s.weight) for s in slices)
    credit = [0] * len(slices)
    taken = [0] * len(slices)
    out = []
    for _ in range(periods * total):
        for k, s in enumerate(slices):
            credit[k] += s.weight
        k = max(range(len(slices)), key=lambda j: credit[j])
        credit[k] -= total
        s = slices[k]
        out.append((s, s.problems[taken[k] % len(s.problems)]))
        taken[k] += 1
    return out


def _radical_inverse(k, base):
    out, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        out += digit * scale
        scale /= base
    return out


def _qmc(rng, count, dims):
    """The first count points of the Halton sequence in [0, 1)^dims, each
    coordinate shifted modulo 1 by a seeded offset."""
    bases = (2, 3, 5, 7, 11, 13)[:dims]
    shifts = [rng.random() for _ in bases]
    return [tuple((_radical_inverse(k, b) + s) % 1.0 for b, s in zip(bases, shifts))
            for k in range(1, count + 1)]


def _between(lo_hi, u):
    lo, hi = lo_hi
    return lo + (hi - lo) * u


def _signed_offset(lo_hi, u):
    """An offset of size in [lo, hi) and either sign from one uniform u:
    its first binary digit gives the sign, the rest the size."""
    size = _between(lo_hi, (2.0 * u) % 1.0)
    return size if u < 0.5 else -size


def monomial_basis(n):
    return BasisSystem(tuple([constant()] + [power(s) for s in range(1, n + 1)]))


def paper_basis():
    return simroots.make_reference_basis()


def expression_basis():
    return BasisSystem(tuple(expression(src) for src in PAPER_EXPRESSIONS))


def _paper_problems(rng, basis, multiplicities, count):
    """Two-root problems over the paper's basis, starts offset from the roots."""
    out = []
    for u in _qmc(rng, count, 4):
        roots = (_between(PAPER_LEFT, u[0]), _between(PAPER_RIGHT, u[1]))
        initial = tuple(
            r + _signed_offset(PAPER_START_OFFSET, v)
            for r, v in zip(roots, u[2:])
        )
        cfg = RootConfiguration(tuple(zip(roots, multiplicities)))
        f = simroots.from_roots(basis, cfg)
        out.append(Problem(f, roots, initial, tuple(multiplicities)))
    return out


def _monomial_problems(rng, multiplicities, count, start_share=MONO_START_SHARE):
    """Problems over {1, x, ..., x^n}, n = sum(multiplicities), with the
    distinct roots on a jittered even grid in [-1, 1]."""
    m = len(multiplicities)
    basis = monomial_basis(sum(multiplicities))
    step = 2.0 / m
    out = []
    for (u,) in _qmc(rng, count, 1):
        roots = tuple(
            -1.0 + (k + 0.5) * step + (rng.random() - 0.5) * MONO_JITTER * step
            for k in range(m)
        )
        share = _between(start_share, u)
        initial = tuple(
            r + rng.choice((share, -share))
            * min(abs(r - o) for o in roots if o != r)
            for r in roots
        )
        cfg = RootConfiguration(tuple(zip(roots, multiplicities)))
        f = simroots.from_roots(basis, cfg)
        out.append(Problem(f, roots, initial, tuple(multiplicities)))
    return out


def _fixed_mixed_problem():
    roots = FIXED_MIXED_ROOTS
    step = roots[1] - roots[0]
    initial = tuple(r + (-1) ** k * FIXED_MIXED_START_SHARE * step
                    for k, r in enumerate(roots))
    cfg = RootConfiguration(tuple(zip(roots, MIXED)))
    f = simroots.from_roots(monomial_basis(sum(MIXED)), cfg)
    return Problem(f, roots, initial, MIXED)


def _write_problem_files(demo, problems, directory):
    """The demo file with other roots and starts, one file per problem;
    load_problem rebuilds each polynomial from its roots with from_roots."""
    for index, p in enumerate(problems):
        doc = dict(demo)
        doc["polynomial"] = {"roots": [{"x": x, "multiplicity": m}
                                       for x, m in zip(p.roots, p.multiplicities)]}
        doc["initial"] = list(p.initial)
        doc["multiplicities"] = list(p.multiplicities)
        p.path = directory / ("p%04d.json" % index)
        p.path.write_text(json.dumps(doc), encoding="utf-8")


def _settings(method):
    return SolverSettings(method=method)


def reference_cli(rng, workdir):
    problem_dir = workdir / "problems"
    problem_dir.mkdir(parents=True)
    demo_path = problem_dir / "demo.json"
    shutil.copyfile(DEMO, demo_path)
    doc = json.loads(DEMO.read_text(encoding="utf-8"))
    pairs = [(r["x"], r["multiplicity"]) for r in doc["polynomial"]["roots"]]
    roots, multiplicities = zip(*pairs)
    demo = Problem(None, roots, tuple(doc["initial"]), multiplicities, demo_path)
    seeded = _paper_problems(rng, paper_basis(), multiplicities, 1024)
    _write_problem_files(doc, seeded, problem_dir)
    # Most seeded ops take 7 sweeps in all (method3 plus method13) and the
    # demo takes 9; about 8% take more or fail.  With the demo at a quarter
    # of the ops, the median lies inside the 7-sweep ops and the 90th
    # percentile inside the 9-sweep ones, away from the edges between them.
    return [
        Slice("demo", "cli", 1, [demo]),
        Slice("double-double", "cli", 3, seeded),
    ]


def monomial_det(rng, workdir):
    # Per period of 39 ops the slices sort by op time as n6 (28%), mixed
    # method13 (5%), n10 (36%), n14 (28%), mixed method3 (3%), so that the
    # median falls in the middle of n10 and the 90th percentile in the upper
    # part of n14, away from the edges where one op more or less of a slice
    # would move them.  Mixed method3 costs about 1.2 s an op, so it keeps a
    # small share.  The pools fill three periods (117 ops, about 25 s), so
    # that a run gets through every entry of its sequence in the timed loop.
    mixed = _monomial_problems(rng, MIXED, 6, MIXED_START_SHARE)
    return [
        Slice("n6.method3", "solve", 11, _monomial_problems(rng, (1,) * 6, 33),
              _settings("method3")),
        Slice("n10.method3", "solve", 14, _monomial_problems(rng, (1,) * 10, 42),
              _settings("method3")),
        Slice("n14.method3", "solve", 11, _monomial_problems(rng, (1,) * 14, 33),
              _settings("method3")),
        Slice("mixed.method13", "solve", 2, mixed, _settings("method13")),
        Slice("mixed.method3", "solve", 1, [_fixed_mixed_problem()],
              _settings("method3")),
    ]


def monomial_ehrlich(rng, workdir):
    # n=20 is the largest size at which the generated polynomial's roots
    # stay inside the accuracy gate; at n=24 from_roots itself moves them
    # by about 1e-5 in double precision.  Per period of 20 ops the slices
    # sort by op time as n6, n10 (15% each), n14 (40%), mixed (10%) and
    # n20 (20%), so that the median falls in the middle of n14 and the 90th
    # percentile in the middle of n20.
    slices = [
        Slice("n%d.ehrlich" % n, "solve", weight,
              _monomial_problems(rng, (1,) * n, pool), _settings("ehrlich"))
        for n, weight, pool in ((6, 3, 48), (10, 3, 48), (14, 8, 48), (20, 4, 24))
    ]
    slices.append(Slice("mixed.ehrlich", "solve", 2, [_fixed_mixed_problem()],
                        _settings("ehrlich")))
    return slices


def expression_jets(rng, workdir):
    # About 7% of these ops run out the 50-sweep budget (simple-triple
    # method3 does so on about a quarter of its starts) and take 4-7 times
    # longer than the rest.  With simple-triple method3 at a tenth of the
    # ops the 90th percentile stays inside the ops that finish early,
    # away from the gap before the 50-sweep ones.
    # 128 problems each make a sequence of 1,280 ops, about 12 s.
    basis = expression_basis()
    double_double = _paper_problems(rng, basis, (2, 2), 128)
    simple_triple = _paper_problems(rng, basis, (1, 3), 128)
    return [
        Slice("double-double.method3", "solve", 3, double_double,
              _settings("method3")),
        Slice("double-double.method13", "solve", 3, double_double,
              _settings("method13")),
        Slice("simple-triple.method3", "solve", 1, simple_triple,
              _settings("method3")),
        Slice("simple-triple.method13", "solve", 3, simple_triple,
              _settings("method13")),
    ]


BUILDERS = {
    "reference_cli": reference_cli,
    "monomial_det": monomial_det,
    "monomial_ehrlich": monomial_ehrlich,
    "expression_jets": expression_jets,
}


def generate(name, seed, workdir):
    """Build workload `name` from `seed`; problem files go under workdir."""
    rng = random.Random("%s:%d" % (name, seed))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return Workload(name, BUILDERS[name](rng, workdir), workdir)
