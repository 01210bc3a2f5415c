"""Checks that the benchmark measures without changing what it measures.

    python3 bench/selfcheck.py [--seed N]

For every workload, from the root of a checkout:
- a traced pass gives bitwise-identical final approximations, statuses,
  iteration histories and CLI output files to the untraced pass over the
  same ops, hence the same failure set;
- every count (span calls per parent, determinant sizes, holds, statuses)
  repeats exactly across two traced passes;
- `confluent.determinant` runs in every workload except monomial_ehrlich;
- a second seed runs cleanly untraced;
and that the workloads, metric names and units in run.py match
BENCHMARK.json.  Exits 0 when every check holds and 1 otherwise.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def traced_pass(name, seed, workdir, sink):
    workload = workloads.generate(name, seed, workdir)
    try:
        metrics, _, _, identical, tracer, _ = run.measure_traced(
            workload, 0, sink, run.SpeedProbe())
    finally:
        workload.close()
    return metrics, identical, tracer.counts()


def check(name, seed, workdir, sink):
    problems = []
    first, identical, counts = traced_pass(name, seed, workdir / "a", sink)
    if not identical:
        problems.append("traced and untraced outputs differ")
    _, identical_again, counts_again = traced_pass(name, seed, workdir / "b", sink)
    if not identical_again:
        problems.append("traced and untraced outputs differ on the repeat")
    if counts != counts_again:
        changed = sorted(k for k in set(counts) | set(counts_again)
                         if counts.get(k) != counts_again.get(k))
        problems.append("counts differ between traced runs: %s" % changed)
    det_calls = first["confluent.det_calls"]
    if (det_calls == 0) != (name == "monomial_ehrlich"):
        problems.append("confluent.det_calls is %g" % det_calls)

    workload = workloads.generate(name, seed + 1, workdir / "c")
    try:
        times, wall, verdicts, _, repeats_agree = run.measure(
            workload, 0, sink, run.SpeedProbe())
        _, _, consistent, _ = run.summarize(
            workload.sequence, times, wall, verdicts, 0.0)
    finally:
        workload.close()
    if not (consistent and repeats_agree) or len(times) < run.MIN_OPS:
        problems.append("seed %d: %d ops, consistent=%s, repeats agree=%s"
                        % (seed + 1, len(times), consistent, repeats_agree))
    return problems


def check_declaration():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    if tuple(w["name"] for w in declared["workloads"]) != run.WORKLOADS:
        problems.append("workloads differ from BENCHMARK.json")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if tuple((m["name"], m["unit"]) for m in declared[key]) != table:
            problems.append("%s metrics differ from BENCHMARK.json" % key)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    workdir = HERE.parent / ".bench_work" / ("selfcheck-%d" % os.getpid())
    problems = check_declaration()
    print("%-18s %s" % ("BENCHMARK.json", "; ".join(problems) or "ok"), flush=True)
    failures = bool(problems)
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink:
            for name in run.WORKLOADS + run.UNDECLARED:
                problems = check(name, args.seed, workdir / name, sink)
                failures += bool(problems)
                print("%-18s %s" % (name, "; ".join(problems) or "ok"),
                      flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
