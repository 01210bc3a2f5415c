"""Batch front end: JSON problem files in, CSV iteration tables out.

simroots run <file> [--out DIR] [--validate-only] [--dump-normalized]
simroots compare <file> [--out DIR]

A problem file names a basis, a polynomial (coefficients or roots), the
initial approximations with their claimed multiplicities, and the methods
to run.  `run` writes one CSV per method plus a plain-text summary;
`compare` merges at least two methods side by side and appends a row with
the largest cross-method difference of the converged roots.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import basis as basis_mod
from .analysis import estimate_order
from .confluent import RootConfiguration, finite_real, positive_integers
from .errors import (DimensionMismatch, InsufficientHistory,
                     ProblemFileError, SimrootsError)
from .genpoly import GeneralizedPolynomial, from_roots
from .solver import (
    SolverSettings,
    SolveStatus,
    is_monomial_basis,
    solve,
)

DEFAULT_SETTINGS = {"tolerance": SolverSettings.tolerance,
                    "max_iterations": SolverSettings.max_iterations}


@dataclass
class Problem:
    """A checked problem file: settings is the SolverSettings every method
    runs with, and normalized the canonical JSON document."""

    system: basis_mod.BasisSystem
    f: GeneralizedPolynomial
    initial: list
    multiplicities: list
    methods: list
    settings: SolverSettings
    true_roots: RootConfiguration | None
    normalized: dict


def _fail(field, message):
    raise ProblemFileError("field %r: %s" % (field, message))


def _reported(field, build, *args, index=None, **kwargs):
    """build(*args, **kwargs), a library refusal (SimrootsError or
    OverflowError) reported as field's, after "entry i: " for index i."""
    try:
        return build(*args, **kwargs)
    except (SimrootsError, OverflowError) as exc:
        _fail(field, exc if index is None else "entry %d: %s" % (index, exc))


def _parse_domain(raw):
    if raw is None:
        return (-math.inf, math.inf), [None, None]
    if not isinstance(raw, list) or len(raw) != 2:
        _fail("domain", "expected [low, high] with null for an open end")
    bounds = [None if bound is None else _reported(
        "domain", finite_real, bound, "domain bound") for bound in raw]
    return (-math.inf if bounds[0] is None else bounds[0],
            math.inf if bounds[1] is None else bounds[1]), bounds


# kind: (the key of its parameter in a problem file, the member's attribute)
_PARAMETERS = {"power": ("s", "s"), "sine": ("omega", "omega"),
               "cosine": ("omega", "omega"), "exponential": ("lambda", "rate")}


def _parse_basis_entry(entry, index):
    if not isinstance(entry, dict) or "kind" not in entry:
        _fail("basis", "entry %d must be an object with a 'kind'" % index)
    kind = entry["kind"]
    if kind == "constant":
        return basis_mod.constant(), {"kind": "constant"}
    if kind in _PARAMETERS:
        key, attribute = _PARAMETERS[kind]
        member = _reported("basis", getattr(basis_mod, kind), entry.get(key),
                           index=index)
        return member, {"kind": kind, key: getattr(member, attribute)}
    if kind == "inverse-quadratic":
        return basis_mod.inverse_quadratic(), {"kind": "inverse-quadratic"}
    if kind in ("expr", "expression"):
        tree = entry.get("tree")
        if not isinstance(tree, str):
            _fail("basis", "entry %d: expr needs a 'tree' string" % index)
        return (_reported("basis", basis_mod.expression, tree, index=index),
                {"kind": "expr", "tree": tree})
    _fail("basis", "entry %d: unknown kind %r" % (index, kind))


def load_problem(path):
    """Parse and validate a JSON problem file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFileError("cannot read %s: %s" % (path, exc))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError("invalid JSON at line %d: %s" % (exc.lineno, exc.msg))
    except RecursionError:
        raise ProblemFileError("invalid JSON: nested too deeply to parse")
    if not isinstance(doc, dict):
        raise ProblemFileError("the problem file must hold a JSON object")

    multiplicities = doc.get("multiplicities")
    if not isinstance(multiplicities, list) or not multiplicities:
        _fail("multiplicities", "expected a nonempty list of positive integers")
    multiplicities = _reported("multiplicities", positive_integers,
                               multiplicities)

    raw_basis = doc.get("basis")
    if not isinstance(raw_basis, list) or len(raw_basis) < 2:
        _fail("basis", "expected a list of at least 2 entries")
    members = []
    normalized_basis = []
    for index, entry in enumerate(raw_basis):
        member, canon = _parse_basis_entry(entry, index)
        members.append(member)
        normalized_basis.append(canon)

    domain, normalized_domain = _parse_domain(doc.get("domain"))
    system = _reported("domain", basis_mod.BasisSystem, tuple(members), domain)

    n = len(system) - 1
    if sum(multiplicities) != n:
        _fail("multiplicities",
              "sum %d does not match the basis degree %d"
              % (sum(multiplicities), n))

    initial = doc.get("initial")
    if not isinstance(initial, list) or len(initial) != len(multiplicities):
        _fail("initial", "expected a list matching 'multiplicities' in length")
    initial = [_reported("initial", finite_real, v, "initial approximation")
               for v in initial]

    poly = doc.get("polynomial")
    if not isinstance(poly, dict) or ("coefficients" in poly) == ("roots" in poly):
        _fail("polynomial", "expected exactly one of 'coefficients' or 'roots'")
    true_roots = None
    if "coefficients" in poly:
        coeffs = poly["coefficients"]
        if not isinstance(coeffs, list) or len(coeffs) != len(system):
            _fail("polynomial", "'coefficients' must list %d numbers" % len(system))
        f = _reported("polynomial", GeneralizedPolynomial, system, coeffs)
        normalized_poly = {"coefficients": f.coefficients.tolist()}
    else:
        roots = poly["roots"]
        if not isinstance(roots, list) or not roots:
            _fail("polynomial", "'roots' must be a nonempty list")
        pairs = []
        for entry in roots:
            if not isinstance(entry, dict) or "x" not in entry \
                    or "multiplicity" not in entry:
                _fail("polynomial", "each root needs 'x' and 'multiplicity'")
            pairs.append((entry["x"], entry["multiplicity"]))
        true_roots = _reported("polynomial", RootConfiguration, tuple(pairs))
        f = _reported("polynomial", from_roots, system, true_roots)
        normalized_poly = {"roots": [{"x": x, "multiplicity": m}
                                     for x, m in true_roots.nodes]}

    methods = doc.get("methods")
    if not isinstance(methods, list) or not methods:
        _fail("methods", "expected a nonempty list")
    for m in methods:
        _reported("methods", SolverSettings, method=m)
    if len(set(methods)) != len(methods):
        _fail("methods", "duplicate entries")
    if "ehrlich" in methods and not is_monomial_basis(system):
        _fail("methods", "'ehrlich' needs the monomial basis {1, x, ..., x^n}")

    settings = dict(DEFAULT_SETTINGS)
    raw_settings = doc.get("settings", {})
    if not isinstance(raw_settings, dict):
        _fail("settings", "expected an object")
    for key, value in raw_settings.items():
        if key not in settings:
            _fail("settings", "unknown key %r" % (key,))
        settings[key] = value
    checked = _reported("settings", SolverSettings, **settings)

    normalized = {
        "basis": normalized_basis,
        "domain": normalized_domain,
        "polynomial": normalized_poly,
        "initial": initial,
        "multiplicities": list(multiplicities),
        "methods": list(methods),
        "settings": {key: getattr(checked, key) for key in settings},
    }
    return Problem(system, f, initial, multiplicities, list(methods),
                   checked, true_roots, normalized)


def _fmt(value):
    return format(float(value), ".10g")


def _iteration_rows(report):
    rows = []
    for entry in report.history:
        cells = [str(entry.k)]
        cells.extend(_fmt(x) for x in entry.approximations)
        if entry.last_corrections is None:
            cells.append("")
        else:
            cells.append(_fmt(np.max(np.abs(entry.last_corrections))))
        rows.append(",".join(cells))
    return rows


def _write_method_csv(path, report, m):
    header = "k," + ",".join("x_%d" % (r + 1) for r in range(m)) + ",correction_max"
    body = "\n".join([header] + _iteration_rows(report)) + "\n"
    path.write_text(body, encoding="utf-8", newline="")
    return path


def _summary_block(method, report, true_roots):
    lines = ["%s: status=%s iterations=%d"
             % (method, report.status.value, report.iterations_used)]
    lines.append("  final approximations: "
                 + " ".join(_fmt(x) for x in report.history[-1].approximations))
    lines.append("  final residuals: "
                 + " ".join(format(r, ".3e") for r in report.final_residuals))
    if true_roots is None:
        lines.append("  order estimates: unavailable (true roots not given)")
        return lines
    try:  # DimensionMismatch: not one true root per approximation
        estimate = estimate_order(report.history, true_roots.locations)
        lines.append("  order estimates: " + " ".join(
            "x_%d~%.3f" % (r + 1, order) for r, order in estimate.per_root))
    except (DimensionMismatch, InsufficientHistory) as exc:
        lines.append("  order estimates: unavailable (%s)" % exc)
    return lines


def _solved(problem, out):
    """(output directory, made first; the report of every method; the exit
    code: 0 when every method converged, else 2)."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = {m: solve(problem.f, problem.initial, problem.multiplicities,
                        replace(problem.settings, method=m))
               for m in problem.methods}
    ok = all(r.status is SolveStatus.converged for r in reports.values())
    return out_dir, reports, 0 if ok else 2


def cmd_run(args):
    problem = load_problem(args.problem)
    if args.dump_normalized:
        print(json.dumps(problem.normalized, indent=2, sort_keys=True))
        return 0
    if args.validate_only:
        print("%s: valid" % args.problem)
        return 0
    out_dir, reports, code = _solved(problem, args.out)
    stem = Path(args.problem).stem
    summary_lines = []
    for method in problem.methods:
        report = reports[method]
        csv_path = _write_method_csv(
            out_dir / ("%s.%s.csv" % (stem, method)), report,
            len(problem.initial))
        print("%s: %s after %d iterations -> %s"
              % (method, report.status.value, report.iterations_used, csv_path))
        summary_lines.extend(_summary_block(method, report, problem.true_roots))
    summary_path = out_dir / ("%s.summary.txt" % stem)
    summary_path.write_text("\n".join(summary_lines) + "\n",
                            encoding="utf-8", newline="")
    print("summary -> %s" % summary_path)
    return code


def cmd_compare(args):
    problem = load_problem(args.problem)
    if len(problem.methods) < 2:
        _fail("methods", "compare needs at least 2 methods")
    out_dir, reports, code = _solved(problem, args.out)
    stem = Path(args.problem).stem
    m = len(problem.initial)
    header = ["k"]
    for method in problem.methods:
        header.extend("x_%d_%s" % (r + 1, method) for r in range(m))
    depth = max(len(reports[method].history) for method in problem.methods)
    lines = [",".join(header)]
    for k in range(depth):
        cells = [str(k)]
        for method in problem.methods:
            history = reports[method].history
            if k < len(history):
                cells.extend(_fmt(x) for x in history[k].approximations)
            else:
                cells.extend("" for _ in range(m))
        lines.append(",".join(cells))
    converged = [method for method in problem.methods
                 if reports[method].status is SolveStatus.converged]
    agreement = ""
    if len(converged) >= 2:
        finals = np.array([reports[method].history[-1].approximations
                           for method in converged])
        agreement = _fmt(np.max(np.abs(finals - finals[0])))
    cells = ["agreement", agreement]
    cells.extend("" for _ in range(len(header) - 2))
    lines.append(",".join(cells))
    csv_path = out_dir / ("%s.compare.csv" % stem)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    for method in problem.methods:
        report = reports[method]
        print("%s: %s after %d iterations"
              % (method, report.status.value, report.iterations_used))
    print("compare table -> %s" % csv_path)
    return code


@functools.cache
def build_parser():
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="simroots",
        description="Simultaneous root extraction for generalized polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="solve a problem file")
    run_parser.add_argument("problem", help="path to a JSON problem file")
    run_parser.add_argument("--out", default=".", help="output directory")
    run_parser.add_argument("--validate-only", action="store_true",
                            help="check the file and exit")
    run_parser.add_argument("--dump-normalized", action="store_true",
                            help="print the canonical problem JSON and exit")
    run_parser.set_defaults(func=cmd_run)
    compare_parser = sub.add_parser("compare",
                                    help="run several methods side by side")
    compare_parser.add_argument("problem", help="path to a JSON problem file")
    compare_parser.add_argument("--out", default=".", help="output directory")
    compare_parser.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimrootsError, OSError) as exc:  # OSError: an unwritable output
        print("error: %s" % exc, file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
