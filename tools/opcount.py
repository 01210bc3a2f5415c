"""Work counts of the benchmark's seeded ops, independent of the clock.

    python3 tools/opcount.py WORKLOAD --seed S [--root DIR] [--entries N]

Runs the first N entries (default 40) of the workload's seeded sequence
with the `src/` and `bench/` of the checkout at DIR (by default the one
holding this script), each op as bench/run.py's `run_op` runs it, as
tools/fingerprints.py does.  A first pass runs them once, uncounted, so
that lazy imports and caches are filled; a second pass runs them again
and counts, per op:

- bytecodes: the bytecode instructions executed, from `sys.settrace` with
  `f_trace_opcodes`;
- C calls: the calls of built-in functions and methods, from the
  `c_call` events of `sys.setprofile`;
- LAPACK calls: the calls of `np.linalg.svd`, `lstsq` and `det`, by the
  shape of the matrix passed.

It prints, per slice, the ops counted and the lower median of each count,
then the mean of each count per op over all counted ops, then the mean
LAPACK calls per op by function and shape.  Two runs on the same checkout
print the same counts, so two checkouts' counts show the direction of a
change in interpreter work that op times on a noisy machine cannot
resolve.  They miss the time spent inside C and LAPACK, so they
complement the timed metrics and replace none.  A counted op runs four
to seven times slower than an untraced one.  A CLI op's counts
depend on the depth of the temporary directory's path (pathlib splits
it in Python), so compare checkouts under the same TMPDIR.

To see what a change does to the work per op, run both checkouts (for
example the parent from `git archive`) on the same workload and seed:

    python3 tools/opcount.py monomial_det --seed 1 --root ../parent
    python3 tools/opcount.py monomial_det --seed 1
"""

import argparse
import functools
import gc
import inspect
import io
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

WORKLOADS = ("reference_cli", "monomial_det", "monomial_ehrlich",
             "expression_jets")
LAPACK = ("svd", "lstsq", "det")


def counts(op):
    """(bytecodes, C calls, Counter of (LAPACK function, shape)) of op().
    The caller's tracer and profiler are restored afterwards.  The garbage
    collector is off meanwhile: whether a collection falls inside op()
    depends on what ran before it, and a collection runs the functions in
    gc.callbacks (hypothesis installs one) and finalizers, which the count
    would take for the op's own work."""
    codes = {inspect.unwrap(getattr(np.linalg, name)).__code__: name
             for name in LAPACK}
    lapack = Counter()
    tally = [0, 0]  # bytecodes, C calls

    def opcode(frame, event, arg):
        if event == "opcode":
            tally[0] += 1
        return opcode

    def call(frame, event, arg):
        name = codes.get(frame.f_code)
        if name:
            lapack[name, np.shape(frame.f_locals["a"])] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    def profile(frame, event, arg):
        if event == "c_call":
            tally[1] += 1

    caller = sys.gettrace(), sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    sys.settrace(call)
    try:
        op()
    finally:
        sys.settrace(caller[0])
        sys.setprofile(caller[1])
        if collecting:
            gc.enable()
    return tally[0], tally[1], lapack


def count(root, name, seed, entries):
    """Per counted op, in sequence order: (slice name, bytecodes, C calls,
    LAPACK Counter); and the length of the workload's sequence."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from run import run_op

    sink = io.StringIO()
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(scratch) / "op"
        workload = workloads.generate(name, seed, Path(scratch) / "work")
        for counted in (False, True):
            for slice_, problem in workload.sequence[:entries]:
                op = functools.partial(run_op, slice_, problem, out_dir, sink)
                if counted:
                    rows.append((slice_.name,) + counts(op))
                else:
                    op()
                shutil.rmtree(out_dir, ignore_errors=True)
                sink.seek(0)
                sink.truncate()
        total = len(workload.sequence)
        workload.close()
    return rows, total


def report(name, seed, rows, total):
    """The printed table of count's rows, as a list of lines."""
    lines = ["%s seed %d: the first %d of %d entries, counted on a second "
             "pass" % (name, seed, len(rows), total),
             "%-24s %5s %12s %10s %7s" % ("slice (lower medians)", "ops",
                                          "bytecodes", "C calls", "LAPACK")]
    slices = {}
    for row in rows:
        slices.setdefault(row[0], []).append(row)
    for slice_name, own in slices.items():
        lines.append("%-24s %5d %12d %10d %7d" % (
            (slice_name, len(own)) + tuple(
                statistics.median_low(column) for column in (
                    [row[1] for row in own], [row[2] for row in own],
                    [sum(row[3].values()) for row in own]))))
    lapack = sum((row[3] for row in rows), Counter())
    lines.append("%-24s %5d %12.1f %10.1f %7.2f" % (
        "per op (mean)", len(rows),
        statistics.fmean(row[1] for row in rows),
        statistics.fmean(row[2] for row in rows),
        sum(lapack.values()) / len(rows)))
    lines.append("LAPACK calls per op (mean), by function and shape:")
    for (function, shape), calls in sorted(lapack.items()):
        lines.append("  %-6s %-12s %8.3f" % (
            function, "x".join(map(str, shape)), calls / len(rows)))
    if not lapack:
        lines.append("  none")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--entries", type=int, default=40)
    args = parser.parse_args(argv)
    if args.entries < 1:
        parser.error("--entries must be at least 1")
    rows, total = count(args.root.resolve(), args.workload, args.seed,
                        args.entries)
    print("\n".join(report(args.workload, args.seed, rows, total)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
