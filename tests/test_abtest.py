"""tools/abtest.py: paired timing of two checkouts on the seeded ops."""

import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_each_side_builds_its_inputs_with_its_own_package(monkeypatch,
                                                          tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import abtest

    before = sys.modules.get("simroots")
    package = abtest.load_package(ROOT, "simroots_abtest_probe")
    workloads = abtest.load_workloads(ROOT / "bench", package)
    assert sys.modules.get("simroots") is before
    workload = workloads.generate("monomial_det", 1, tmp_path)
    try:
        slice_, problem = workload.sequence[0]
        assert type(problem.f) is package.genpoly.GeneralizedPolynomial
        assert type(slice_.settings) is package.solver.SolverSettings
    finally:
        workload.close()


def test_a_tree_timed_against_itself_gives_an_interval_holding_one(
        monkeypatch, capsys):
    # op times drawn from one seeded distribution for both sides, so that
    # the true median ratio is 1 and the check does not depend on the load
    # of the machine
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import abtest

    rng = random.Random(1)
    now = [0.0]

    def clock():
        now[0] += rng.lognormvariate(0.0, 0.3)
        return now[0]

    assert abtest.main([str(ROOT), str(ROOT), "--workload", "monomial_det",
                        "--seed", "1"], clock=clock) == 0
    rows = {line.split()[0]: line.split()
            for line in capsys.readouterr().out.splitlines()[2:]}
    assert set(rows) == {"n6.method3", "n10.method3", "n14.method3",
                         "mixed.method13", "mixed.method3", "all"}
    assert rows["all"][1] == "117"  # one round of every entry
    low, high = map(float, re.findall(r"[\d.]+", " ".join(rows["all"][6:])))
    assert low < 1.0 < high
