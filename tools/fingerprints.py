"""Bit-for-bit comparison of two checkouts over the benchmark's seeded ops.

    python3 tools/fingerprints.py write OUT [--root DIR] [--seeds 1 2 3]
    python3 tools/fingerprints.py compare A B

`write` runs every entry of each workload's seeded sequence once, in
sequence order, with the `src/` and `bench/` of the checkout at DIR (by
default the one holding this script), and writes one line per entry:
workload, seed, entry index, slice name and a SHA-256 of what the op
produced: bench/run.py's `fingerprint` (status, iteration count and every
iterate of a solve; exit code and output file bytes of a CLI run; type and
message of a raise), plus the final residuals and each state's last
corrections and multiplicities of a solve, and the standard output of a
CLI run with its output directory written as OUT.  After the hash come
two fields in clear text: the op's status (a solve's status value, a CLI
run's exit code, or the type of a raise) and a solve's iterations_used
(`-` for the others).  The workloads are the benchmark's three declared
ones and `expression_jets`.  `compare` keys the entries on their first
four fields and lists those whose hashes differ or that only one file
holds, each with both sides' status and iterations (`?` on a line
written without them, `absent` where a file lacks the entry).  Then it
counts those entries per workload and status transition, as in
"monomial_det: max_iterations -> stalled, 3 entries" (a status that did
not change reads as a transition to itself).  Last it prints how many of
all the entries differ, and how many of those differ in status or
iterations too (an entry one file lacks does), so a change that moves
bits but no outcome reads "N of T entries differ, 0 in status or
iterations".  It exits 1 if any entry differs or if either file holds no
entries (say, after an interrupted `write`).

To check that a change keeps every iterate, write one file per checkout
(for example the parent from `git archive`) and compare them:

    python3 tools/fingerprints.py write before.txt --root ../parent
    python3 tools/fingerprints.py write after.txt
    python3 tools/fingerprints.py compare before.txt after.txt
"""

import argparse
import hashlib
import io
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

WORKLOADS = ("reference_cli", "monomial_det", "monomial_ehrlich",
             "expression_jets")


def _extra(slice_, outcome, printed):
    """What an op produced beyond bench/run.py's `fingerprint`."""
    if isinstance(outcome, Exception):
        return ()
    if slice_.kind == "cli":
        return (printed,)
    return (repr(outcome.final_residuals),) + tuple(
        (state.multiplicities.tobytes(),
         None if state.last_corrections is None
         else state.last_corrections.tobytes())
        for state in outcome.history)


def _verdict(outcome):
    """(status, iterations) of an op in clear text."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, "-"
    if isinstance(outcome, int):  # a CLI run's exit code
        return str(outcome), "-"
    return outcome.status.value, str(outcome.iterations_used)


def write(out, root, seeds):
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from run import fingerprint, run_op

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch, open(out, "w") as lines:
        out_dir = Path(scratch) / "op"
        for name in WORKLOADS:
            for seed in seeds:
                workload = workloads.generate(
                    name, seed, Path(scratch) / ("%s-%d" % (name, seed)))
                for index, (slice_, problem) in enumerate(workload.sequence):
                    outcome = run_op(slice_, problem, out_dir, sink)
                    produced = (fingerprint(slice_, problem, outcome, out_dir),
                                _extra(slice_, outcome, sink.getvalue().replace(
                                    str(out_dir), "OUT")))
                    digest = hashlib.sha256(repr(produced).encode()).hexdigest()
                    shutil.rmtree(out_dir, ignore_errors=True)
                    sink.seek(0)
                    sink.truncate()
                    lines.write("%s %d %d %s %s %s %s\n" % (
                        (name, seed, index, slice_.name, digest)
                        + _verdict(outcome)))
                workload.close()


def _read(path):
    """Each entry's first four fields -> (hash, status, iterations)."""
    with open(path) as lines:
        return {tuple(fields[:4]): tuple(fields[4:7])
                for fields in (line.split() + ["?", "?"] for line in lines)}


def compare(a, b):
    """The entries of a and b whose hashes differ or that one lacks, in
    key order, each as (key, (status, iterations) in a, the same in b);
    the number of entries the two hold together; and whether both hold
    any."""
    first, second = _read(a), _read(b)
    keys = first.keys() | second.keys()
    absent = (None, "absent")
    differ = []
    for key in sorted(keys):
        one, two = first.get(key, absent), second.get(key, absent)
        if one[0] != two[0]:
            differ.append((key, one[1:], two[1:]))
    return differ, len(keys), bool(first and second)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    write_ = commands.add_parser("write", help="hash every seeded entry")
    write_.add_argument("out")
    write_.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    write_.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    compare_ = commands.add_parser("compare", help="list differing entries")
    compare_.add_argument("a")
    compare_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.out, args.root.resolve(), args.seeds)
        return 0
    differ, total, nonempty = compare(args.a, args.b)
    for key, one, two in differ:
        print("%s: %s -> %s" % (" ".join(key), " ".join(one), " ".join(two)))
    transitions = Counter((key[0], one[0], two[0]) for key, one, two in differ)
    for (workload, before, after), count in sorted(transitions.items()):
        print("%s: %s -> %s, %d entries" % (workload, before, after, count))
    moved = sum(one != two for _, one, two in differ)
    print("%d of %d entries differ, %d in status or iterations"
          % (len(differ), total, moved))
    if not nonempty:
        print("a file holds no entries")
    return 1 if differ or not nonempty else 0


if __name__ == "__main__":
    sys.exit(main())
