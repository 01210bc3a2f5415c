"""simroots benchmark: time to root, failures and accuracy on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; `src/` is put on the import path.  One
process is one closed-loop caller on one thread: the next op starts when
the previous one returns.  With --trace 0 the end-to-end metrics are
measured; with --trace 1 the same ops run in pairs, once untraced and once
traced, to give the per-layer metrics and to check that tracing changes no
result.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracing import Tracer, within_gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The workloads BENCHMARK.json declares.  expression_jets stays runnable by
# name; see bench/README.md for why it is not declared.
WORKLOADS = ("reference_cli", "monomial_det", "monomial_ehrlich")
UNDECLARED = ("expression_jets",)
# Each untraced run times at least this many ops, so that ten samples lie
# beyond the 90th percentile, and stops only after a whole period of the
# slice interleave, so that every slice has its exact share.
MIN_OPS = 100
SETUP_REPEATS = 5
# A traced run uses whole passes over the first ops of the sequence, so
# that every count per op repeats exactly; a pass holds whole periods of
# the slice interleave and about this many ops.
TRACE_PASS_OPS = 40
DIGITS_CAP = 16.0
CLI_METHODS = ("method3", "method13")

# The speed of the shared 2-core machine the benchmark was defined on
# drifts by up to 1.7x over minutes (one fixed problem took 0.76-1.31 s
# across runs), in CPU time as much as in wall time.  So every run also
# times a fixed kernel between ops, at most every PROBE_INTERVAL_S, and
# reports each time divided by the run's slowdown: the median kernel time
# over PROBE_NOMINAL_MS.  Raw values are printed beside the reported ones.
PROBE_INTERVAL_S = 0.1
PROBE_NOMINAL_MS = 0.7
PROBE_MATRIX = np.vander(np.linspace(-1.0, 1.0, 8), increasing=True)

END_TO_END = (
    ("op_ms_p50", "ms"), ("op_ms_p90", "ms"), ("ops_per_s", "1/s"),
    ("fail_frac", "ratio"), ("digits_min", "digits"), ("digits_p50", "digits"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("basis.eval_calls", "count/op"), ("basis.jet_calls", "count/op"),
    ("basis.self_ms", "ms/op"),
    ("genpoly.eval_calls", "count/op"), ("genpoly.term_magnitude_calls", "count/op"),
    ("genpoly.self_ms", "ms/op"), ("genpoly.from_roots_ms", "ms/op"),
    ("confluent.det_calls", "count/op"), ("confluent.det_flops", "flop/op"),
    ("confluent.cofactor_calls", "count/op"),
    ("confluent.build_matrix_calls", "count/op"), ("confluent.self_ms", "ms/op"),
    ("solver.sweeps", "count/op"), ("solver.corrections", "count/op"),
    ("solver.holds", "count/op"),
    ("solver.status.converged", "count/op"),
    ("solver.status.max_iterations", "count/op"),
    ("solver.status.degenerate_denominator", "count/op"),
    ("solver.status.iterate_collision", "count/op"),
    ("solver.status.domain_escape", "count/op"),
    ("solver.raised", "count/op"), ("solver.false_converged", "count/op"),
    ("solver.wasted_sweep_share", "ratio"), ("solver.self_ms", "ms/op"),
    ("analysis.estimate_order_calls", "count/op"), ("analysis.self_ms", "ms/op"),
    ("cli.load_problem_ms", "ms/op"), ("cli.self_ms", "ms/op"),
    ("trace.untraced_op_ms_p50", "ms"), ("trace.traced_op_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
)


# ----------------------------------------------------------------------
# Ops: one solve call, or one in-process `simroots run` on a problem file
# ----------------------------------------------------------------------

def run_op(slice_, problem, out_dir, sink):
    """Run one op and return its raw outcome: a SolveReport, a CLI exit
    code, or the exception it raised."""
    import simroots.cli
    import simroots.solver
    try:
        if slice_.kind == "cli":
            with contextlib.redirect_stdout(sink):
                return simroots.cli.main(
                    ["run", str(problem.path), "--out", str(out_dir)])
        return simroots.solver.solve(problem.f, problem.initial,
                                     problem.multiplicities, slice_.settings)
    except Exception as exc:  # every raise is a failed op, recorded by type
        return exc


def compact(slice_, outcome):
    """What judging an op needs, without the solve history: exceptions
    and CLI exit codes as they are, a solve report as (status, final
    approximations, whether history and iteration count agree)."""
    if slice_.kind == "cli" or isinstance(outcome, Exception):
        return outcome
    return (outcome.status.value, outcome.history[-1].approximations.tolist(),
            len(outcome.history) == outcome.iterations_used + 1)


def _digits(approximations, roots):
    worst = max(abs(x - r) / (1.0 + abs(r)) for x, r in zip(approximations, roots))
    return DIGITS_CAP if worst == 0.0 else min(DIGITS_CAP, -math.log10(worst))


def _read_cli_outputs(problem, out_dir):
    """Final approximations, statuses and iteration counts written by
    `simroots run`, per method, from its CSV tables and summary."""
    stem = problem.path.stem
    summary = (out_dir / ("%s.summary.txt" % stem)).read_text(encoding="utf-8")
    statuses = {}
    for line in summary.splitlines():
        if not line.startswith(" ") and ": status=" in line:
            method, rest = line.split(": status=")
            status, iterations = rest.split(" iterations=")
            statuses[method] = (status, int(iterations))
    finals = {}
    for method in CLI_METHODS:
        rows = (out_dir / ("%s.%s.csv" % (stem, method))).read_text(
            encoding="utf-8").splitlines()
        last = rows[-1].split(",")
        if int(last[0]) != statuses[method][1] or len(rows) != int(last[0]) + 2:
            raise ValueError("%s: CSV rows disagree with the summary" % method)
        finals[method] = [float(v) for v in last[1:-1]]
    return finals, statuses


def judge(slice_, problem, outcome, out_dir):
    """Apply the accuracy gate to one op, given its compact outcome.

    Returns (failed, reason, statuses, digits, consistent).  An op fails if
    it raised, if the CLI returned 1, or if any final approximation lies
    outside the gate of its known root.  `consistent` is False when the
    program's outputs contradict each other.
    """
    if isinstance(outcome, Exception):
        return True, type(outcome).__name__, [], None, True
    if slice_.kind == "solve":
        status, final, consistent = outcome
        finals = [final]
        statuses = [status]
    else:
        if outcome == 1:
            return True, "exit_1", [], None, True
        try:
            by_method, status_map = _read_cli_outputs(problem, out_dir)
        except (OSError, ValueError, KeyError, IndexError):
            return True, "unreadable_output", [], None, False
        finals = list(by_method.values())
        statuses = [status_map[m][0] for m in CLI_METHODS]
        all_converged = all(s == "converged" for s in statuses)
        consistent = outcome == (0 if all_converged else 2)
    if not all(within_gate(f, problem.roots) for f in finals):
        return True, "outside_gate", statuses, None, consistent
    digits = min(_digits(f, problem.roots) for f in finals)
    return False, None, statuses, digits, consistent


def fingerprint(slice_, problem, outcome, out_dir):
    """Everything an op produced, for bitwise comparison between runs."""
    if isinstance(outcome, Exception):
        return ("raised", type(outcome).__name__, str(outcome))
    if slice_.kind == "solve":
        return (outcome.status.value, outcome.iterations_used,
                tuple(tuple(s.approximations.tolist()) for s in outcome.history))
    files = sorted(p.name for p in out_dir.glob("*")) if out_dir.exists() else []
    return (outcome, tuple((name, (out_dir / name).read_bytes()) for name in files))


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------

def probe_kernel():
    """Fixed work of the kinds simroots ops do: pivoted elimination in
    Python loops over small numpy rows, then an fsum of sines."""
    total = 0.0
    for _ in range(3):
        a = PROBE_MATRIX.copy()
        for k in range(7):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            a[[k, p]] = a[[p, k]]
            for i in range(k + 1, 8):
                a[i, k + 1:] -= a[i, k] / a[k, k] * a[k, k + 1:]
        total += math.fsum(math.sin(x) for x in a.ravel().tolist())
    return total


class SpeedProbe:
    """Times probe_kernel now and then, between ops."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._next = 0.0

    def poll(self):
        start = time.perf_counter()
        if start < self._next:
            return
        probe_kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._next = end + PROBE_INTERVAL_S

    def slowdown(self):
        return 1e3 * statistics.median(self.samples) / PROBE_NOMINAL_MS


def at_nominal_speed(metrics, units, slowdown):
    """Times divided by the slowdown, rates multiplied by it."""
    out = dict(metrics)
    for key, unit in units.items():
        if unit in ("s", "ms", "ms/op"):
            out[key] = metrics[key] / slowdown
        elif unit == "1/s":
            out[key] = metrics[key] * slowdown
    return out


# ----------------------------------------------------------------------
# Set-up, context
# ----------------------------------------------------------------------

def measure_setup(workload, seed, workdir):
    """Median wall time of fresh interpreters that import simroots and
    generate the workload's inputs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
           str(workdir)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def context():
    import numpy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def measure(workload, seconds, sink, probe):
    """Ops in a closed loop over the workload's sequence, each judged as
    soon as it returns, outside the timed span.

    Returns the op times as (slice name, seconds), the wall time they took
    without the judging and the speed probe, one verdict per entry of the
    sequence, the number of entries judged after the timed loop, and
    whether every repeated entry got the verdict of its first run.  The
    entries the timed loop did not reach are run untimed afterwards, so
    that every run judges each entry of the seeded sequence exactly once:
    the failure count depends on the seed alone, not on how many ops the
    machine got through.
    """
    sequence = workload.sequence
    out_root = workload.workdir / "out"
    out_dir = out_root / "op"
    run_op(*sequence[0], out_root / "warm", sink)  # untimed warm-up
    times = []
    verdicts = [None] * len(sequence)
    repeats_agree = True
    clock = time.perf_counter
    probe.poll()
    probe_before = probe.spent
    bookkeeping = 0.0
    start = clock()
    while True:
        index = len(times) % len(sequence)
        slice_, problem = sequence[index]
        t0 = clock()
        outcome = run_op(slice_, problem, out_dir, sink)
        t1 = clock()
        times.append((slice_.name, t1 - t0))
        verdict = judge(slice_, problem, compact(slice_, outcome), out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if verdicts[index] is None:
            verdicts[index] = verdict
        else:
            repeats_agree &= verdict == verdicts[index]
        t2 = clock()
        if (t2 - start >= seconds and len(times) >= MIN_OPS
                and len(times) % workload.period == 0):
            break
        bookkeeping += t2 - t1
        probe.poll()
    wall = t1 - start - bookkeeping - (probe.spent - probe_before)
    late = [i for i, v in enumerate(verdicts) if v is None]
    for index in late:
        slice_, problem = sequence[index]
        outcome = run_op(slice_, problem, out_dir, sink)
        verdicts[index] = judge(slice_, problem, compact(slice_, outcome), out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
    return times, wall, verdicts, len(late), repeats_agree


def tally(sequence, verdicts):
    """Failures, failure reasons, statuses and digits over the verdicts,
    one per entry of the sequence."""
    failed = 0
    reasons = Counter()
    statuses = Counter()
    digits = []
    consistent = True
    for (slice_, _), (is_failed, reason, op_statuses, op_digits, ok) in zip(
            sequence, verdicts):
        consistent &= ok
        statuses.update(op_statuses)
        if is_failed:
            failed += 1
            reasons["%s %s" % (slice_.name, reason)] += 1
        else:
            digits.append(op_digits)
    return failed, reasons, statuses, digits, consistent


def summarize(sequence, times, wall, verdicts, setup_s):
    """End-to-end metrics: times over every timed op, failures and digits
    over the verdicts, one per entry of the sequence."""
    failed, reasons, statuses, digits, consistent = tally(sequence, verdicts)
    op_s = [elapsed for _, elapsed in times]
    slice_times = {}
    for name, elapsed in times:
        slice_times.setdefault(name, []).append(elapsed)
    metrics = {
        "op_ms_p50": 1e3 * statistics.median(op_s),
        "op_ms_p90": 1e3 * statistics.quantiles(op_s, n=10)[8],
        "ops_per_s": len(op_s) / wall,
        "fail_frac": failed / len(verdicts),
        "digits_min": min(digits) if digits else 0.0,
        "digits_p50": statistics.median(digits) if digits else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    breakdown = {
        "failed_by_reason": dict(reasons), "statuses": dict(statuses),
        "slice_ops": {k: len(v) for k, v in slice_times.items()},
        "slice_ms_p50": {k: round(1e3 * statistics.median(v), 3)
                         for k, v in slice_times.items()},
    }
    return metrics, failed, consistent and bool(digits), breakdown


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------

def trace_pass(workload):
    periods = max(1, round(TRACE_PASS_OPS / workload.period))
    return workload.sequence[:periods * workload.period]


def measure_traced(workload, seconds, sink, probe):
    tracer = Tracer()
    pass_ops = trace_pass(workload)
    out_root = workload.workdir / "out"
    untraced, traced = [], []
    verdicts = [None] * len(pass_ops)
    fingerprints_match = repeats_agree = True
    failed_sweeps = all_sweeps = op_count = passes = 0
    clock = time.perf_counter
    start = clock()
    while passes == 0 or clock() - start < seconds:
        for index, (slice_, problem) in enumerate(pass_ops):
            plain_dir = out_root / ("u%d" % index)
            t0 = clock()
            plain = run_op(slice_, problem, plain_dir, sink)
            untraced.append(clock() - t0)

            sweeps_before = tracer.calls("solver.sweep")
            traced_dir = out_root / ("t%d" % index)
            tracer.install()
            try:
                t0 = clock()
                outcome = run_op(slice_, problem, traced_dir, sink)
                traced.append(clock() - t0)
            finally:
                tracer.uninstall()
            sweeps = tracer.calls("solver.sweep") - sweeps_before

            fingerprints_match &= (
                fingerprint(slice_, problem, plain, plain_dir)
                == fingerprint(slice_, problem, outcome, traced_dir))
            verdict = judge(slice_, problem, compact(slice_, outcome),
                            traced_dir)
            if verdicts[index] is None:
                verdicts[index] = verdict
            else:
                repeats_agree &= verdict == verdicts[index]
            probe.poll()
            op_count += 1
            all_sweeps += sweeps
            if verdict[0]:
                failed_sweeps += sweeps
        passes += 1
    failed, reasons, _, _, _ = tally(pass_ops, verdicts)

    def per_op(value):
        return value / op_count

    untraced_p50 = 1e3 * statistics.median(untraced)
    traced_p50 = 1e3 * statistics.median(traced)
    c = tracer.counters
    metrics = {
        "basis.eval_calls": per_op(tracer.calls("basis.eval")),
        "basis.jet_calls": per_op(tracer.calls("basis.jet_propagate")),
        "basis.self_ms": per_op(1e3 * tracer.layer_self_s("basis")),
        "genpoly.eval_calls": per_op(tracer.calls("genpoly.eval")),
        "genpoly.term_magnitude_calls": per_op(
            tracer.calls("genpoly.term_magnitude")),
        "genpoly.self_ms": per_op(1e3 * tracer.layer_self_s("genpoly")),
        "genpoly.from_roots_ms": per_op(1e3 * tracer.total_s("genpoly.from_roots")),
        "confluent.det_calls": per_op(tracer.calls("confluent.determinant")),
        "confluent.det_flops": per_op(2 * c["confluent.det_cubes"] / 3),
        "confluent.cofactor_calls": per_op(
            tracer.calls("confluent.first_row_cofactors")),
        "confluent.build_matrix_calls": per_op(
            tracer.calls("confluent.build_matrix")),
        "confluent.self_ms": per_op(1e3 * tracer.layer_self_s("confluent")),
        "solver.sweeps": per_op(tracer.calls("solver.sweep")),
        "solver.corrections": per_op(tracer.calls("solver.single_correction")),
        "solver.holds": per_op(c["solver.holds"]),
        "solver.raised": per_op(c["solver.raised"]),
        "solver.false_converged": per_op(c["solver.false_converged"]),
        "solver.wasted_sweep_share": (failed_sweeps / all_sweeps
                                      if all_sweeps else 0.0),
        "solver.self_ms": per_op(1e3 * tracer.layer_self_s("solver")),
        "analysis.estimate_order_calls": per_op(
            tracer.calls("analysis.estimate_order")),
        "analysis.self_ms": per_op(1e3 * tracer.layer_self_s("analysis")),
        "cli.load_problem_ms": per_op(1e3 * tracer.total_s("cli.load_problem")),
        "cli.self_ms": per_op(1e3 * tracer.layer_self_s("cli")),
        "trace.untraced_op_ms_p50": untraced_p50,
        "trace.traced_op_ms_p50": traced_p50,
        "trace.overhead_ms": traced_p50 - untraced_p50,
    }
    for status in ("converged", "max_iterations", "degenerate_denominator",
                   "iterate_collision", "domain_escape"):
        metrics["solver.status." + status] = per_op(c["solver.status." + status])
    breakdown = {"failed_by_reason": dict(reasons), "passes": passes,
                 "pass_ops": len(pass_ops), "binding_sites": tracer.sites()}
    return (metrics, len(pass_ops), failed, fingerprints_match and repeats_agree,
            tracer, breakdown)


def span_table(tracer, ops):
    lines = ["%-32s %-28s %12s %12s %12s" % (
        "span", "parent", "calls/op", "total_ms/op", "self_ms/op")]
    for (name, parent), (calls, total, own) in sorted(
            tracer.spans.items(), key=lambda item: -item[1][1]):
        lines.append("%-32s %-28s %12.2f %12.4f %12.4f" % (
            name, parent, calls / ops, 1e3 * total / ops, 1e3 * own / ops))
    return lines


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, workdir):
    """One benchmark run in this process; returns the result object and the
    report lines printed before it."""
    import workloads
    setup_s = None if trace else measure_setup(name, seed, workdir / "setup")
    workload = workloads.generate(name, seed, workdir / "run")
    lines = ["context: " + json.dumps(context())]
    probe = SpeedProbe()
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink:
            if trace:
                (raw, attempted, failed, correct, tracer,
                 breakdown) = measure_traced(workload, seconds, sink, probe)
                lines += span_table(tracer, breakdown["passes"] * attempted)
                units = dict(PER_LAYER)
            else:
                times, wall, verdicts, late, repeats_agree = measure(
                    workload, seconds, sink, probe)
                raw, failed, correct, breakdown = summarize(
                    workload.sequence, times, wall, verdicts, setup_s)
                correct &= repeats_agree
                attempted = len(verdicts)
                lines.append("ops: %d timed in %.3f s; %d seeded entries "
                             "judged, %d of them after the timed loop"
                             % (len(times), wall, attempted, late))
                units = dict(END_TO_END)
    finally:
        workload.close()
    slowdown = probe.slowdown()
    metrics = at_nominal_speed(raw, units, slowdown)
    lines.append("breakdown: " + json.dumps(breakdown, sort_keys=True))
    lines.append("speed: probe median %.4f ms over %d samples, slowdown %.4f"
                 % (1e3 * statistics.median(probe.samples), len(probe.samples),
                    slowdown))
    lines.append("%-40s %16s %16s" % ("metric", "reported", "raw"))
    for key in units:
        lines.append("%-40s %16.6g %16.6g %s"
                     % (key, metrics[key], raw[key], units[key]))
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, lines


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another; prints a table."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    for name, result in rows:
        print("== %s  correct=%s attempted=%d failed=%d" % (
            name, result["correct"], result["attempted"], result["failed"]))
        for key, metric in result["metrics"].items():
            print("   %-40s %16.6g %s" % (key, metric["value"], metric["unit"]))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNDECLARED + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "simroots" / "__init__.py").is_file():
        print("error: %s/simroots not found; run from a simroots checkout"
              % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    # Turn SIGTERM into SystemExit, so that the scratch directory goes.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print("simroots benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
