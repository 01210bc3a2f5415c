"""Outside-in tracing of simroots: spans and counters around public calls.

`Tracer` replaces each traced function at every place it is bound, not only
in its defining module: `solver` imports `build_matrix`, `determinant` and
`first_row_cofactors` by name, `cli` binds `solve`, `from_roots` and
`estimate_order`, and methods live on their classes.  A wrapper placed on
the defining module alone would miss those calls.

Spans are aggregated in memory per (name, parent name): `basis.eval` runs
thousands of times per solve, so no per-call record is kept.  A span's self
time is its duration minus the time covered by its child spans.
"""

import importlib
import sys
import time
from collections import Counter

# span name -> (module, class or None, attribute)
TARGETS = {
    "basis.eval": ("simroots.basis", "BasisSystem", "eval"),
    "basis.jet_propagate": ("simroots.basis", None, "jet_propagate"),
    "genpoly.eval": ("simroots.genpoly", "GeneralizedPolynomial", "eval"),
    "genpoly.term_magnitude": (
        "simroots.genpoly", "GeneralizedPolynomial", "term_magnitude"),
    "genpoly.from_roots": ("simroots.genpoly", None, "from_roots"),
    "confluent.build_matrix": ("simroots.confluent", None, "build_matrix"),
    "confluent.determinant": ("simroots.confluent", None, "determinant"),
    "confluent.first_row_cofactors": (
        "simroots.confluent", None, "first_row_cofactors"),
    "solver.solve": ("simroots.solver", None, "solve"),
    "solver.sweep": ("simroots.solver", None, "_step"),
    "solver.single_correction": ("simroots.solver", None, "single_correction"),
    "analysis.estimate_order": ("simroots.analysis", None, "estimate_order"),
    "cli.main": ("simroots.cli", None, "main"),
    "cli.load_problem": ("simroots.cli", None, "load_problem"),
}

GATE = 1e-6


def within_gate(approximations, roots):
    """|x_i - r_i| <= GATE * (1 + |r_i|) for every index i."""
    return len(approximations) == len(roots) and all(
        abs(x - r) <= GATE * (1.0 + abs(r)) for x, r in zip(approximations, roots)
    )


class Tracer:
    """Spans and counters for the calls made while it is installed.

    `spans` maps (name, parent) to [calls, total seconds, self seconds];
    the parent of an outermost span is "op".  `counters` holds what span
    counts cannot give: the sum of d^3 over determinant arguments of
    dimension d (2/3 of it is the computed elimination flop count), held
    corrections, statuses and raises of `solve`.
    """

    def __init__(self):
        self.stack = [["op", 0.0]]
        self.spans = {}
        self.counters = Counter()
        self._patches = self._find_binding_sites()

    def _wrap(self, name, fn):
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "solver.solve":
                    counters["solver.raised"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (name, parent[0])
                record = spans.get(key)
                if record is None:
                    record = spans[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if name == "confluent.determinant":
                a = args[0]
                d = len(getattr(a, "entries", a))
                counters["confluent.det_cubes"] += d ** 3
            elif name == "solver.single_correction":
                if result == 0.0:
                    counters["solver.holds"] += 1
            elif name == "solver.solve":
                counters["solver.status." + result.status.value] += 1
                f = args[0]
                roots = f.construction_roots
                if (result.status.value == "converged" and roots is not None
                        and not within_gate(
                            result.history[-1].approximations.tolist(),
                            roots.locations)):
                    counters["solver.false_converged"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _find_binding_sites(self):
        """(owner, attribute, original, wrapper) for every binding of every
        target in the loaded simroots modules and on the target classes."""
        for module_name, _, _ in TARGETS.values():
            importlib.import_module(module_name)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "simroots" or key.startswith("simroots.")]
        patches = []
        for name, (module_name, class_name, attr) in TARGETS.items():
            module = sys.modules[module_name]
            owner = getattr(module, class_name) if class_name else module
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            owners = [owner] if class_name else modules
            sites = [(o, key) for o in owners for key, value in vars(o).items()
                     if value is original]
            if not sites:
                raise RuntimeError("no binding site found for %s" % name)
            patches.extend((o, key, original, wrapper) for o, key in sites)
        return patches

    def install(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def sites(self):
        return sorted("%s.%s" % (getattr(o, "__name__", o), key)
                      for o, key, _, _ in self._patches)

    def calls(self, name):
        return sum(r[0] for (n, _), r in self.spans.items() if n == name)

    def total_s(self, name):
        return sum(r[1] for (n, _), r in self.spans.items() if n == name)

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(r[2] for (n, _), r in self.spans.items()
                   if n.startswith(prefix))

    def counts(self):
        """Every exact count, spans and counters together."""
        out = {"span:%s<%s" % key: r[0] for key, r in self.spans.items()}
        out.update(self.counters)
        return out
