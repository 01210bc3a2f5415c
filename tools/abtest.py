"""Paired timing of two simroots checkouts on the benchmark's seeded ops.

    python3 tools/abtest.py PARENT CHANGE --workload W --seed S --rounds N

Each checkout's `src/simroots` is imported under its own package name, and
PARENT's `bench/workloads.py` is loaded once per checkout with that package
standing in for `simroots`.  So both sides get the same seeded entries, and
each side's inputs are built with its own basis, polynomial and settings
classes.  A round runs every entry of the workload's sequence once on each
side, back to back; the side that runs first alternates from entry to entry
and from round to round.  Ops run as `bench/run.py` runs them: a solve
call, or an in-process `simroots run` whose output goes to a temporary
directory.  One pair is one entry in one round, and its ratio is the
change's time over the parent's.

Per slice and over all pairs, it prints each side's median op time, the
median ratio, the share of pairs the change wins (ratio below 1), and a 95%
bootstrap interval of the median ratio.  A header above the table gives the
run context: the machine (nproc, CPU, Python and numpy versions) and, per
side, the checkout's root, its git commit ("none" outside a git checkout of
its own, "+modified" when `src/` differs from the commit) and the line count
of its `src/`.  Nothing under either checkout is written, and no bytecode is
cached.
"""

import argparse
import contextlib
import importlib
import importlib.util
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("reference_cli", "monomial_det", "monomial_ehrlich",
             "expression_jets")
SIDES = ("parent", "change")
RESAMPLES = 2000


def machine():
    """nproc, CPU model, Python and numpy versions, as one header line."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return "machine: nproc=%s cpu=%s python=%s numpy=%s" % (
        os.cpu_count(), cpu, platform.python_version(), np.__version__)


def checkout(root):
    """(commit, src lines) of the checkout at root: the git commit, or
    "none" unless root is the top of a git work tree, with "+modified" when
    src/ differs from it; and the lines of the .py files under src/."""
    root = Path(root).resolve()
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in sorted((root / "src").rglob("*.py")))

    def git(*args):
        return subprocess.run(("git", "-C", str(root)) + args,
                              capture_output=True, text=True)

    commit = "none"
    try:
        found = git("rev-parse", "--show-toplevel", "HEAD")
        if found.returncode == 0:
            top, head = found.stdout.splitlines()
            if Path(top).resolve() == root:
                commit = head
                if git("diff", "--quiet", "HEAD", "--", "src").returncode:
                    commit += "+modified"
    except OSError:  # no git
        pass
    return commit, lines


def load_package(root, name):
    """The simroots package of the checkout at root, imported as `name`."""
    path = Path(root).resolve() / "src" / "simroots"
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(name + ".cli")
    return package


def load_workloads(bench, package):
    """bench/workloads.py, loaded while `package` and its submodules stand
    in for simroots and its submodules; sys.modules is restored after."""
    prefix = package.__name__
    aliases = {"simroots" + key[len(prefix):]: module
               for key, module in list(sys.modules.items())
               if key == prefix or key.startswith(prefix + ".")}
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            prefix + "_workloads", Path(bench) / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for key, module_ in saved.items():
            if module_ is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module_
    return module


def run_op(package, slice_, problem, out_dir, sink):
    """One op on one side; a raise is an outcome like any other."""
    try:
        if slice_.kind == "cli":
            with contextlib.redirect_stdout(sink):
                return package.cli.main(
                    ["run", str(problem.path), "--out", str(out_dir)])
        return package.solver.solve(problem.f, problem.initial,
                                    problem.multiplicities, slice_.settings)
    except Exception as exc:  # timed like any other outcome
        return exc


def time_pairs(sides, rounds, out_dir, clock=time.perf_counter):
    """sides = [(package, sequence)] for the parent, then the change, the
    sequences built from one seed: [(slice name, change seconds / parent
    seconds)], one per entry per round."""
    (_, first), (_, second) = sides
    names = [slice_.name for slice_, _ in first]
    if names != [slice_.name for slice_, _ in second]:
        raise ValueError("the two sequences hold different slices")
    pairs = []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for package, sequence in sides:  # untimed warm-up
            run_op(package, *sequence[0], out_dir, sink)
            shutil.rmtree(out_dir, ignore_errors=True)
        for round_ in range(rounds):
            for index, name in enumerate(names):
                seconds = [0.0, 0.0]
                order = (0, 1) if (index + round_) % 2 == 0 else (1, 0)
                for side in order:
                    package, sequence = sides[side]
                    start = clock()
                    run_op(package, *sequence[index], out_dir, sink)
                    seconds[side] = clock() - start
                    shutil.rmtree(out_dir, ignore_errors=True)
                pairs.append((name, seconds, seconds[1] / seconds[0]))
    return pairs


def summarize(pairs, rng):
    """(pairs, parent ms, change ms, median ratio, share the change wins,
    interval low, interval high) over the given pairs."""
    ratios = np.array([ratio for _, _, ratio in pairs])
    medians = [float(np.median(rng.choice(ratios, len(ratios))))
               for _ in range(RESAMPLES)]
    low, high = np.percentile(medians, [2.5, 97.5]).tolist()
    return (len(ratios),
            1e3 * statistics.median(seconds[0] for _, seconds, _ in pairs),
            1e3 * statistics.median(seconds[1] for _, seconds, _ in pairs),
            float(np.median(ratios)), float(np.mean(ratios < 1.0)),
            low, high)


def report(pairs, seed):
    """Lines of the table: one row per slice, in sequence order, then all."""
    rng = np.random.default_rng(seed)
    groups = {}
    for pair in pairs:
        groups.setdefault(pair[0], []).append(pair)
    groups["all"] = pairs
    lines = ["%-26s %6s %10s %10s %8s %6s  %s" % (
        "slice", "pairs", "parent ms", "change ms", "ratio", "wins",
        "95% interval")]
    for name, group in groups.items():
        count, parent, change, ratio, wins, low, high = summarize(group, rng)
        lines.append("%-26s %6d %10.4f %10.4f %8.4f %6.3f  [%.4f, %.4f]" % (
            name, count, parent, change, ratio, wins, low, high))
    return lines


def main(argv=None, clock=time.perf_counter):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    roots = [args.parent.resolve(), args.change.resolve()]
    for root in roots:
        if not (root / "src" / "simroots" / "__init__.py").is_file():
            parser.error("%s holds no src/simroots" % root)
    with tempfile.TemporaryDirectory() as scratch:
        sides, workloads = [], []
        for side, root in zip(SIDES, roots):
            package = load_package(root, "simroots_abtest_" + side)
            workload = load_workloads(roots[0] / "bench", package).generate(
                args.workload, args.seed, Path(scratch) / side)
            workloads.append(workload)
            sides.append((package, workload.sequence))
        pairs = time_pairs(sides, args.rounds, Path(scratch) / "op", clock)
        for workload in workloads:
            workload.close()
    print("abtest: workload=%s seed=%d rounds=%d; ratio = change / parent"
          % (args.workload, args.seed, args.rounds))
    print(machine())
    for side, root in zip(SIDES, roots):
        print("%s: root=%s commit=%s src_lines=%d"
              % ((side, root) + checkout(root)))
    for line in report(pairs, args.seed):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
