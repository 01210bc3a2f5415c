"""tools/abtest.py: paired timing of two checkouts on the seeded ops."""

import os
import platform
import random
import re
import shutil
import sys
from pathlib import Path

import numpy as np

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
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == abtest.machine()
    assert lines[4].split()[0] == "slice"
    rows = {line.split()[0]: line.split() for line in lines[5:]}
    assert set(rows) == {"n6.method3", "n10.method3", "n14.method3",
                         "mixed.method13", "mixed.method3", "all"}
    assert rows["all"][1] == "117"  # one round of every entry
    low, high = map(float, re.findall(r"[\d.]+", " ".join(rows["all"][7:])))
    assert low < 1.0 < high


def test_the_summed_ratio_sees_a_gain_the_median_ratio_misses(monkeypatch,
                                                              capsys):
    # each pair reads the clock four times: start and end of the side run
    # first, then of the other.  Every op takes 1 s, but the side run
    # second in every fourth pair takes 10 s: the change, since the first
    # pair of each four runs the parent first.  So the median ratio stays
    # 1 while the change's summed time is 117 + 9 * 30 s against 117 s
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import abtest

    calls = [0]

    def clock():
        pair, read = divmod(calls[0], 4)
        calls[0] += 1
        return (20 * pair + (read >= 1) + (read >= 2)
                + (read == 3) * (10 if pair % 4 == 0 else 1))

    assert abtest.main([str(ROOT), str(ROOT), "--workload", "monomial_det",
                        "--seed", "1"], clock=clock) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[4].split()[6:8] == ["ratio", "summed"]
    row = {line.split()[0]: line.split() for line in lines[5:]}["all"]
    assert row[1:7] == ["117", "1000.0000", "1000.0000", "1.0000",
                        "%.4f" % (387 / 117), "0.000"]


def test_the_header_names_the_machine_and_each_checkout(monkeypatch, capsys,
                                                        tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import abtest

    nproc, cpu, python, numpy = re.fullmatch(
        r"machine: nproc=(\S+) cpu=(.+) python=(\S+) numpy=(\S+)",
        abtest.machine()).groups()
    assert (nproc, python, numpy) == (str(os.cpu_count()),
                                      platform.python_version(),
                                      np.__version__)
    assert cpu.strip()
    # a copy of src/ outside any git work tree has no commit, and the
    # same line count
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    commit, lines = abtest.checkout(ROOT)
    assert abtest.checkout(tmp_path) == ("none", lines)
    assert lines == sum(len(path.read_text().splitlines())
                        for path in (ROOT / "src").rglob("*.py")) > 1000
    assert commit == "none" or re.fullmatch(r"[0-9a-f]{40}(\+modified)?",
                                            commit)
    # and main prints both sides under the machine line
    clock = iter(range(10 ** 6)).__next__
    assert abtest.main([str(ROOT), str(tmp_path), "--workload",
                        "monomial_det", "--seed", "1"], clock=clock) == 0
    header = capsys.readouterr().out.splitlines()[1:4]
    assert header == [abtest.machine(),
                      "parent: root=%s commit=%s src_lines=%d"
                      % (ROOT, commit, lines),
                      "change: root=%s commit=none src_lines=%d"
                      % (tmp_path.resolve(), lines)]
