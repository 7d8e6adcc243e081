import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from layerspec.numkernel import eigensolve
from layerspec.surface import ChartGrid, charts
from layerspec.varform import form

# the chart fields of a grid, by name
_CHART_FIELDS = [f.name for f in dataclasses.fields(ChartGrid) if f.name not in ("s", "theta")]
_TESTS = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture
def fresh_probe():
    """Runs a script in a fresh interpreter and returns the JSON on its last output line.

    The script imports layerspec from the source tree and the test modules
    by name, and reads its extra arguments from sys.argv[1:]; a nonzero exit
    fails the test with the script's stderr.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(_TESTS), "src"), _TESTS, env.get("PYTHONPATH")) if p)

    def run(script, *args):
        proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return run


@pytest.fixture
def lu_solves(monkeypatch):
    """Solves made with each LU factorization, one list entry per factorization.

    A Lanczos step makes one solve, so each entry is the step count of the
    run made on one factorization.
    """
    counts = []
    make_solver = eigensolve._make_solver

    def counted(C):
        solve, count = make_solver(C)
        counts.append(0)

        def counted_solve(x):
            counts[-1] += 1
            return solve(x)
        return counted_solve, count

    monkeypatch.setattr(eigensolve, "_make_solver", counted)
    return counts


@pytest.fixture
def form_reads(monkeypatch):
    """(stride, integrand width) of every grid the form evaluations read.

    The stride is the chart's ring size over the grid's, and the width is
    the broadcast width of the grid's chart fields and of the trial's term
    fields on it.
    """
    reads = []
    evaluate = form._evaluate

    def counted(layer, trial, grid, n_u):
        widths = []

        def watched(term):
            def surface_eval(grid):
                fields = term.surface_eval(grid)
                chart_shapes = [getattr(grid, name).shape for name in _CHART_FIELDS]
                widths.append(np.broadcast_shapes(*chart_shapes, *(a.shape for a in fields))[1])
                return fields
            return dataclasses.replace(term, surface_eval=surface_eval)

        values = evaluate(layer, dataclasses.replace(trial, terms=tuple(map(watched, trial.terms))),
                          grid, n_u)
        reads.append((layer.chart.theta_nodes.size // grid.theta.size, max(widths)))
        return values

    monkeypatch.setattr(form, "_evaluate", counted)
    return reads


@pytest.fixture
def chart_reads(monkeypatch):
    """Records chart.grid reads as (radii, rays), rays the width of the read's r.

    ``chart_reads(target, *modules)`` watches the grid method of ``target``,
    a chart or a chart class, and returns the list the reads go to; with
    ``modules``, only the reads made inside those modules' read_rings.  A
    ``width`` function of the grid replaces the width of r.
    """
    def watch(target, *modules, width=lambda g: g.r.shape[1]):
        reads, inside = [], []
        grid = target.grid

        def spy(*args, **kwargs):
            g = grid(*args, **kwargs)
            if inside or not modules:
                reads.append((g.s, width(g)))
            return g

        def ring_reader(*args, **kwargs):
            inside.append(True)
            try:
                return charts.read_rings(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(target, "grid", spy)
        for module in modules:
            monkeypatch.setattr(module, "read_rings", ring_reader)
        return reads
    return watch


class MaterializedChart:
    """A chart whose grids carry every field copied out to their whole ring.

    With ``one_ray`` it also reads every ring as the single theta = 0 ray
    (the stride theta_nodes.size), as a full-ring chart had to for an
    axisymmetric integrand.  Its grids are as wide as their ring, so it is
    not rotation invariant to ``read_rings``, which sizes its blocks by the
    ring; no read of it may exceed ``READ_POINTS`` points.
    """

    rotation_invariant = False

    def __init__(self, chart, one_ray=False):
        self._chart = chart
        self._one_ray = one_ray

    def __getattr__(self, name):
        return getattr(self._chart, name)

    def theta_stride_for(self, max_rays):
        return self._chart.theta_nodes.size if self._one_ray else self._chart.theta_stride_for(max_rays)

    def grid(self, s_nodes, stride=1):
        g = self._chart.grid(s_nodes, stride=stride)
        ring = (g.s.size, g.theta.size)
        assert g.s.size * g.theta.size <= charts.READ_POINTS, f"a read of {ring} points"
        return ChartGrid(s=g.s, theta=g.theta, **{
            name: np.broadcast_to(getattr(g, name), ring).copy() for name in _CHART_FIELDS
        })


@pytest.fixture
def materialized():
    """The MaterializedChart wrapper: the full-ring route to a column chart's values."""
    return MaterializedChart
