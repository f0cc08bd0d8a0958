"""Run one hopfcyclic CLI job with timing spans around the public functions.

Usage: python3 traced_job.py SPANS_JSON JOB_ID -- CLI_ARGS...

The wrappers are installed from outside the package: every traced name is
rebound in each ``hopfcyclic.*`` module namespace that holds it, and methods
are patched on their classes.  Spans (name, start, end, enclosing span, job
id) are kept in memory and written to SPANS_JSON when the job ends, together
with the size counters.  The report on stdout and the exit code are those of
``hopfcyclic.cli.main``.
"""

import importlib
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# (metric name, module, attribute path).  Several attributes may share one
# metric name; their spans are summed.
TARGETS = [
    ("linalg.compose", "linalg", "compose"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.SpanSolver.add", "linalg", "SpanSolver.add"),
    ("linalg.SpanSolver.reduce", "linalg", "SpanSolver.reduce"),
    ("linalg.SpanSolver.solve", "linalg", "SpanSolver.solve"),
    ("linalg.tensor_kron", "linalg", "tensor_kron"),
    ("linalg.invert_matrix", "linalg", "invert_matrix"),
    ("hopf.validate_hopf", "hopf", "validate_hopf"),
    ("hopf.validate_modular_pair", "hopf", "validate_modular_pair"),
    ("hopf.iterated_coproduct", "hopf", "iterated_coproduct"),
    ("actions.validate", "actions", "validate_module_algebra"),
    ("actions.validate", "actions", "validate_module_coalgebra"),
    ("actions.validate", "actions", "validate_comodule_algebra"),
    ("actions.validate", "actions", "validate_sayd"),
    ("actions.validate", "actions", "validate_coalgebra_action"),
    ("actions.validate", "actions", "validate_subhopf"),
    ("actions.QuotientSpace", "actions", "QuotientSpace.__init__"),
    ("actions.relative_coalgebra", "actions", "relative_coalgebra"),
    ("actions.invariant_subalgebra", "actions", "invariant_subalgebra"),
    ("actions.convolution_algebra", "actions", "convolution_algebra"),
    ("actions.crossed_product", "actions", "crossed_product"),
    ("complexes.build_coalgebra_complex", "complexes", "build_coalgebra_complex"),
    ("complexes.build_algebra_complex", "complexes", "build_algebra_complex"),
    ("complexes.build_comodule_algebra_complex", "complexes", "build_comodule_algebra_complex"),
    ("complexes.build_hopf_complex", "complexes", "build_hopf_complex"),
    ("complexes.HopfTables", "complexes", "HopfTables.__init__"),
    ("complexes.check_cocyclic", "complexes", "check_cocyclic"),
    ("complexes.tensor_bicocyclic", "complexes", "tensor_bicocyclic"),
    ("complexes.diagonal", "complexes", "diagonal"),
    ("complexes.plain_cyclic_complex", "complexes", "plain_cyclic_complex"),
    ("complexes.complex_to_text", "complexes", "complex_to_text"),
    ("complexes.complex_from_text", "complexes", "complex_from_text"),
    ("cohomology.hochschild_b", "cohomology", "hochschild_b"),
    ("cohomology.connes_B", "cohomology", "connes_B"),
    ("cohomology.compute_cohomology", "cohomology", "compute_cohomology"),
    ("cohomology.cyclic_cocycles", "cohomology", "cyclic_cocycles"),
    ("cup.context_init", "cup", "CoalgebraCupContext.__init__"),
    ("cup.context_init", "cup", "CrossedCupContext.__init__"),
    ("cup.context_init", "cup", "RelativeCupContext.__init__"),
    ("cup.psi_c_matrices", "cup", "CoalgebraCupContext.psi_c_matrices"),
    ("cup.psi_matrices", "cup", "CoalgebraCupContext.psi_matrices"),
    ("cup.psi_r_matrices", "cup", "RelativeCupContext.psi_r_matrices"),
    ("cup.psi_cross_matrices", "cup", "CrossedCupContext.psi_cross_matrices"),
    ("cup.certify_chain_map", "cup", "certify_chain_map"),
    ("cup.aw_cup", "cup", "aw_cup"),
    ("cup.cup_explicit_coalgebra", "cup", "cup_explicit_coalgebra"),
    ("cup.cup_explicit_crossed", "cup", "cup_explicit_crossed"),
    ("cup.shuffle_cup_traces", "cup", "shuffle_cup_traces"),
    ("cup.cotrace_cup", "cup", "cotrace_cup"),
    ("cup.char_map", "cup", "char_map"),
    ("shuffles.shuffle_set", "shuffles", "shuffle_set"),
    ("shuffles.dg_expand_oracle", "shuffles", "dg_expand_oracle"),
    ("specfile.parse_spec", "specfile", "parse_spec"),
    ("specfile.SpecFile.to_text", "specfile", "SpecFile.to_text"),
    ("cli.build_declared_complex", "cli", "build_declared_complex"),
]

# size metric -> (span name, unit, function(args, result) giving the size)
SIZES = {
    "linalg.compose.nnz_out": ("linalg.compose", "count", lambda a, r: len(r.entries)),
    "linalg.kernel_basis.cols_in": ("linalg.kernel_basis", "count", lambda a, r: a[0].cols),
    "linalg.rref.rows_in": ("linalg.rref", "count", lambda a, r: a[0].rows),
    "complexes.complex_to_text.bytes": ("complexes.complex_to_text", "bytes",
                                        lambda a, r: len(r.encode())),
    "complexes.complex_from_text.bytes": ("complexes.complex_from_text", "bytes",
                                          lambda a, r: len(a[0].encode())),
}

COUNTERS = ("cli.cache.hits", "cli.cache.misses", "cohomology.connes_B.calls",
            "cohomology.connes_B.fallbacks", "cup.failures")


class Tracer:
    """Span recorder shared by every wrapper of one job."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.spans = []          # [name, start, end, parent index]
        self.stack = []          # indices of open spans
        self.sizes = {name: 0 for name in SIZES}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._sizers = {}
        for metric, (span, _, fn) in SIZES.items():
            self._sizers.setdefault(span, []).append((metric, fn))

    def wrap(self, name, fn, cup_errors, primary_b):
        tracer = self
        sizers = self._sizers.get(name, ())

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.spans.append(span)
            tracer.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except cup_errors as e:
                # count each exception once, at the innermost span it leaves
                if not getattr(e, "_perfbench_counted", False):
                    e._perfbench_counted = True
                    tracer.counters["cup.failures"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            for metric, sizer in sizers:
                tracer.sizes[metric] += sizer(args, result)
            if name == "cli.build_declared_complex":
                no_cache = kwargs.get("no_cache", args[4] if len(args) > 4 else False)
                if result[1] == "cached":
                    tracer.counters["cli.cache.hits"] += 1
                elif not no_cache:
                    tracer.counters["cli.cache.misses"] += 1
            elif name == "cohomology.connes_B":
                tracer.counters["cohomology.connes_B.calls"] += 1
                if result[1] != primary_b:
                    tracer.counters["cohomology.connes_B.fallbacks"] += 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"job": self.job_id, "spans": self.spans,
                       "sizes": self.sizes, "counters": self.counters}, f)


MODULES = ("linalg", "spaces", "hopf", "actions", "complexes", "cohomology", "cup",
           "shuffles", "specfile", "fixtures", "cli")


def install(tracer):
    """Wrap every target, in each ``hopfcyclic.*`` namespace that binds it."""
    modules = {name: importlib.import_module("hopfcyclic." + name) for name in MODULES}
    cup = modules["cup"]
    cup_errors = tuple(v for v in vars(cup).values()
                       if isinstance(v, type) and issubclass(v, Exception)
                       and v.__module__ == cup.__name__)
    primary_b = modules["cohomology"]._B_VARIANTS[0]
    for metric, modname, attr in TARGETS:
        owner = modules[modname]
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[last]
        wrapper = tracer.wrap(metric, original, cup_errors, primary_b)
        if path:
            setattr(owner, last, wrapper)
            continue
        for mod in modules.values():
            if vars(mod).get(last) is original:
                setattr(mod, last, wrapper)


def main(argv):
    sep = argv.index("--")
    spans_path, job_id = argv[:sep]
    tracer = Tracer(job_id)
    install(tracer)
    from hopfcyclic.cli import main as cli_main
    try:
        return cli_main(argv[sep + 1:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
