"""Outside-in layer tracing for one layerspec run.

The tracer replaces public layerspec functions with timing wrappers from
outside the package: every module attribute that is bound to a traced
function (including names bound by ``from ... import``) is rebound to the
wrapper, and methods are replaced on their class.  Each call records a span
(name, start, end, parent, run id) in memory; the per-layer metrics are
derived from the spans when the run ends.  The program's own code is not
changed, so the reproducible ``<cmd>.json`` must come out byte-identical
with tracing on and off.
"""

import functools
import os
import sys
import time

import numpy as np

# (module, function) pairs; the span name is "<module minus 'layerspec.'>.<function>"
FUNCTIONS = [
    ("layerspec.catalog", "build_chart"),
    ("layerspec.numkernel.ode", "integrate_ode"),
    ("layerspec.layer", "rho_m"),
    ("layerspec.surface.hypotheses", "asymptotic_flatness_verdict"),
    ("layerspec.surface.totals", "total_gauss"),
    ("layerspec.surface.totals", "total_mean_sq"),
    ("layerspec.surface.totals", "total_gauss_cartesian"),
    ("layerspec.varform.form", "evaluate_form"),
    ("layerspec.varform.form", "bilinear_shifted"),
    ("layerspec.varform.certify", "certify"),
    ("layerspec.spectrum.assemble", "assemble_partial_wave"),
    ("layerspec.spectrum.solve", "solve_spectrum"),
    ("layerspec.spectrum.counterexample", "counterexample_radial"),
    ("layerspec.spectrum.counterexample", "spherical_shell_ground"),
    ("layerspec.spectrum.counterexample", "cap_neumann_ground"),
    ("layerspec.numkernel.eigensolve", "lowest_eigenpairs"),
]

# (module, class, method, span name)
METHODS = [
    ("layerspec.numkernel.ode", "OdeTrajectory", "eval", "numkernel.ode.eval"),
    ("layerspec.surface.graph", "FanChart", "grid", "surface.graph.grid"),
    ("layerspec.report", "ReportWriter", "finalize", "report.finalize"),
]

SPLU = "numkernel.eigensolve.splu"
LU_SOLVE = "numkernel.eigensolve.lu_solve"
# work done by the tracer itself inside a traced call; subtracted from the
# parent's self time like any child span
BOOKKEEPING = "trace.bookkeeping"

# every per-layer metric a traced run reports, with its unit
PER_LAYER = [
    ("numkernel.ode.eval.calls", "count"),
    ("numkernel.ode.eval.total_s", "s"),
    ("numkernel.ode.eval.values", "count"),
    ("surface.graph.grid.calls", "count"),
    ("surface.graph.grid.self_s", "s"),
    ("surface.graph.grid.points", "count"),
    ("catalog.build_chart.total_s", "s"),
    ("numkernel.ode.integrate_ode.total_s", "s"),
    ("numkernel.ode.integrate_ode.steps", "count"),
    ("numkernel.ode.integrate_ode.rhs_calls", "count"),
    ("numkernel.ode.integrate_ode.state_dim", "count"),
    ("numkernel.ode.integrate_ode.dense_bytes", "bytes_computed"),
    ("layer.rho_m.total_s", "s"),
    ("surface.hypotheses.asymptotic_flatness_verdict.total_s", "s"),
    ("varform.form.evaluate_form.calls", "count"),
    ("varform.form.evaluate_form.self_s", "s"),
    ("varform.form.bilinear_shifted.calls", "count"),
    ("varform.certify.certify.self_s", "s"),
    ("varform.certify.evals_per_certificate", "ratio"),
    ("surface.totals.total_gauss.self_s", "s"),
    ("surface.totals.total_mean_sq.self_s", "s"),
    ("surface.totals.total_gauss_cartesian.self_s", "s"),
    ("surface.totals.total_mean_sq.grid_calls", "count"),
    ("spectrum.assemble.assemble_partial_wave.calls", "count"),
    ("spectrum.assemble.assemble_partial_wave.self_s", "s"),
    ("spectrum.assemble.assemble_partial_wave.unknowns", "count"),
    ("spectrum.assemble.assemble_partial_wave.nnz", "count"),
    ("spectrum.solve.solve_spectrum.calls", "count"),
    ("numkernel.eigensolve.lowest_eigenpairs.calls", "count"),
    ("numkernel.eigensolve.lowest_eigenpairs.self_s", "s"),
    ("numkernel.eigensolve.splu.calls", "count"),
    ("numkernel.eigensolve.splu.total_s", "s"),
    ("numkernel.eigensolve.splu.fill_nnz", "count"),
    ("numkernel.eigensolve.lu_solve.calls", "count"),
    ("numkernel.eigensolve.lu_solve.total_s", "s"),
    ("numkernel.eigensolve.factorizations_per_solve", "ratio"),
    ("spectrum.solve.eig_calls_per_solve", "ratio"),
    ("spectrum.counterexample.counterexample_radial.total_s", "s"),
    ("spectrum.counterexample.spherical_shell_ground.total_s", "s"),
    ("spectrum.counterexample.cap_neumann_ground.total_s", "s"),
    ("report.finalize.total_s", "s"),
    ("report.finalize.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
]


def span_name(module, function):
    return module[len("layerspec."):] + "." + function


class Tracer:
    """Spans and counters of one run, kept in memory until it ends."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counters = {}
        self._stack = []
        self.originals = {}  # span name -> the function that was replaced

    # -- recording -------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def keep_max(self, counter, value):
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; after(args, kwargs, result) records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    self._open(BOOKKEEPING)
                    try:
                        after(args, kwargs, result)
                    finally:
                        self._close()
                return result
            finally:
                self._close()

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        """Rebind every traced layerspec name in every loaded module."""
        hooks = {"spectrum.assemble.assemble_partial_wave": self._after_assemble}
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "layerspec" or n.startswith("layerspec.")) and m is not None]
        for module_name, function in FUNCTIONS:
            name = span_name(module_name, function)
            original = getattr(sys.modules[module_name], function)
            if name == "numkernel.ode.integrate_ode":  # also counts RHS calls
                wrapper = self._wrap_integrate(original)
            else:
                wrapper = self.timed(name, original, hooks.get(name))
            self.originals[name] = original
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        method_hooks = {
            "numkernel.ode.eval": lambda a, k, out: self.add("numkernel.ode.eval.values", out.size),
            "surface.graph.grid": lambda a, k, g: self.add("surface.graph.grid.points", g.r.size),
            "report.finalize": self._after_finalize,
        }
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = vars(cls)[method]
            self.originals[name] = original
            setattr(cls, method, self.timed(name, original, method_hooks[name]))

        eigensolve = sys.modules["layerspec.numkernel.eigensolve"]
        self.originals[SPLU] = eigensolve.spla.splu
        eigensolve.spla = _SplaProxy(eigensolve.spla, self)

    def _wrap_integrate(self, original):
        name = "numkernel.ode.integrate_ode"

        def count_rhs(rhs):
            @functools.wraps(rhs)
            def counted(*a, **k):
                self.add(name + ".rhs_calls", 1)
                return rhs(*a, **k)
            return counted

        def after(args, kwargs, traj):
            initial = args[1] if len(args) > 1 else kwargs["initial"]
            dim = int(np.size(initial))
            self.keep_max(name + ".state_dim", dim)
            self.add(name + ".steps", int(traj.abscissae.size) - 1)
            # computed from array sizes: stored RK interpolants plus samples
            dense = sum(p.Q.nbytes + p.y_old.nbytes for p in traj._sol.interpolants)
            self.add(name + ".dense_bytes", dense + traj.states.nbytes + traj.abscissae.nbytes)

        timed = self.timed(name, original, after)

        @functools.wraps(original)
        def wrapper(rhs, *args, **kwargs):
            return timed(count_rhs(rhs), *args, **kwargs)

        return wrapper

    def _after_assemble(self, args, kwargs, op):
        pre = "spectrum.assemble.assemble_partial_wave"
        self.add(pre + ".unknowns", int(op.pair.dimension))
        self.add(pre + ".nnz", int(op.pair.stiffness.nnz + op.pair.mass.nnz))

    def _after_finalize(self, args, kwargs, path):
        meta = path[: -len(".json")] + ".meta.json"
        self.add("report.finalize.bytes_written", os.path.getsize(path) + os.path.getsize(meta))

    # -- results ---------------------------------------------------------
    def metrics(self):
        """Per-layer metrics of this run, keyed as in PER_LAYER (no overhead)."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, self_s = {}, {}, {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])

        def under(name, ancestor):
            count = 0
            for span in self.spans:
                if span[0] != name:
                    continue
                parent = span[3]
                while parent >= 0 and self.spans[parent][0] != ancestor:
                    parent = self.spans[parent][3]
                count += parent >= 0
            return count

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for metric, _unit in PER_LAYER:
            if metric in self.counters:
                out[metric] = self.counters[metric]
                continue
            span, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(span, 0)
            elif stat == "total_s":
                out[metric] = total.get(span, 0.0)
            elif stat == "self_s":
                out[metric] = self_s.get(span, 0.0)
            else:
                out[metric] = 0
        eig = "numkernel.eigensolve.lowest_eigenpairs"
        solve = "spectrum.solve.solve_spectrum"
        out["varform.certify.evals_per_certificate"] = ratio(
            calls.get("varform.form.evaluate_form", 0), calls.get("varform.certify.certify", 0))
        out["surface.totals.total_mean_sq.grid_calls"] = under(
            "surface.graph.grid", "surface.totals.total_mean_sq")
        out["numkernel.eigensolve.factorizations_per_solve"] = ratio(
            calls.get(SPLU, 0), calls.get(eig, 0))
        out["spectrum.solve.eig_calls_per_solve"] = ratio(under(eig, solve), calls.get(solve, 0))
        del out["trace.overhead_s"]  # measured by the parent from two runs
        return out


class _TimedLU:
    """SuperLU stand-in whose solve() is recorded as a span."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = tracer.timed(LU_SOLVE, lu.solve)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _SplaProxy:
    """scipy.sparse.linalg as seen by the eigensolver, with splu traced."""

    def __init__(self, spla, tracer):
        self._spla = spla

        def after(args, kwargs, lu):
            tracer.add(SPLU + ".fill_nnz", int(lu.L.nnz + lu.U.nnz))

        splu = tracer.timed(SPLU, spla.splu, after)
        self.splu = lambda *a, **k: _TimedLU(splu(*a, **k), tracer)

    def __getattr__(self, attr):
        return getattr(self._spla, attr)
