"""tools/opcount.py: work counts that repeat exactly from run to run."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_two_runs_over_the_same_entries_give_the_same_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from opcount import count, report

    # a CLI run solves with method3, whose sweeps call LAPACK
    first, total = count(ROOT, "reference_cli", 1, 2)
    second, _ = count(ROOT, "reference_cli", 1, 2)
    assert first == second
    assert len(first) == 2 and total > 2
    for _, bytecodes, c_calls, lapack in first:
        assert bytecodes > c_calls > 0
        assert lapack["svd", (4, 5)] > 0
    assert report("reference_cli", 1, first, total)[0] == (
        "reference_cli seed 1: the first 2 of %d entries, counted on a "
        "second pass" % total)


def test_lapack_calls_are_counted_by_function_and_shape(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from opcount import counts

    def op():
        np.linalg.svd(np.eye(3, 4))
        np.linalg.det(np.eye(2))
        np.linalg.det(np.eye(2))

    assert dict(counts(op)[2]) == {("svd", (3, 4)): 1, ("det", (2, 2)): 2}
    # each further call of op adds the same bytecodes and C calls, exactly
    runs = [counts(lambda: [op() for _ in range(k)]) for k in (1, 2, 3)]
    for column in (0, 1):
        steps = [b[column] - a[column] for a, b in zip(runs, runs[1:])]
        assert steps[0] == steps[1] > 0


def test_counts_restores_the_callers_tracer_and_profiler(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from opcount import counts

    def tracer(frame, event, arg):
        return None

    def profiler(frame, event, arg):
        pass

    caller = sys.gettrace(), sys.getprofile()
    sys.settrace(tracer)
    sys.setprofile(profiler)
    try:
        counts(lambda: None)
        restored = sys.gettrace(), sys.getprofile()
    finally:
        sys.settrace(caller[0])
        sys.setprofile(caller[1])
    assert restored == (tracer, profiler)
