"""The outside-in trace fires where it should and changes no output.

    python3 -m pytest perfbench/tests -q

Runs every workload once untraced and once traced (about a minute).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# spans each workload exists to exercise; varform.form.bilinear_shifted is
# reached by none of them (the deformed family needs a total Gauss curvature
# of zero) and is covered by test_every_binding_site_is_wrapped
EXERCISED = {
    "fan-certify": [
        "catalog.build_chart", "numkernel.ode.integrate_ode", "numkernel.ode.eval",
        "surface.graph.grid", "layer.rho_m", "surface.hypotheses.asymptotic_flatness_verdict",
        "varform.form.evaluate_form", "varform.certify.certify", "surface.totals.total_gauss",
        "report.finalize",
    ],
    "fan-totals": [
        "catalog.build_chart", "numkernel.ode.integrate_ode", "numkernel.ode.eval",
        "surface.graph.grid", "surface.totals.total_gauss", "surface.totals.total_mean_sq",
        "surface.totals.total_gauss_cartesian", "report.finalize",
    ],
    "axisym-spectrum": [
        "catalog.build_chart", "numkernel.ode.integrate_ode", "layer.rho_m",
        "spectrum.assemble.assemble_partial_wave", "spectrum.solve.solve_spectrum",
        "numkernel.eigensolve.lowest_eigenpairs", "numkernel.eigensolve.splu",
        "numkernel.eigensolve.lu_solve", "report.finalize",
    ],
    "capped-counterexample": [
        "catalog.build_chart", "spectrum.counterexample.counterexample_radial",
        "spectrum.counterexample.spherical_shell_ground",
        "spectrum.counterexample.cap_neumann_ground", "spectrum.assemble.assemble_partial_wave",
        "spectrum.solve.solve_spectrum", "numkernel.eigensolve.lowest_eigenpairs",
        "numkernel.eigensolve.splu", "numkernel.eigensolve.lu_solve", "report.finalize",
    ],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_fires_its_spans_and_matches_untraced_output(name, tmp_path):
    workload = WORKLOADS[name]
    picked, text = workload.config(seed=0)
    config = tmp_path / "run.cfg"
    config.write_text(text)
    plain, plain_raw, plain_fails = run.run_workload(
        workload, picked, str(config), str(tmp_path / "plain"))
    traced, traced_raw, traced_fails = run.run_workload(
        workload, picked, str(config), str(tmp_path / "traced"), trace_id=1)
    assert plain_fails == [] and traced_fails == []
    assert traced_raw == plain_raw

    fired = {span[0] for span in traced["spans"]}
    assert set(EXERCISED[name]) <= fired
    assert {span[4] for span in traced["spans"]} == {1}
    names = [metric for metric, _ in tracer.PER_LAYER]
    assert sorted(traced["per_layer"]) == sorted(n for n in names if n != "trace.overhead_s")


def test_every_traced_function_is_exercised_or_named():
    spans = {tracer.span_name(m, f) for m, f in tracer.FUNCTIONS}
    spans |= {name for *_, name in tracer.METHODS} | {tracer.SPLU, tracer.LU_SOLVE}
    covered = set().union(*map(set, EXERCISED.values()))
    assert spans - covered == {"varform.form.bilinear_shifted"}


def test_every_binding_site_is_wrapped():
    """No loaded layerspec module keeps a name bound to an unwrapped function."""
    code = f"""
import sys
sys.path[:0] = [{run.SRC!r}, {BENCH!r}]
import layerspec.cli
from tracer import Tracer
t = Tracer(0)
t.install()
stale = [f"{{n}}.{{a}}" for n, m in sorted(sys.modules.items())
         if n.startswith("layerspec") and m is not None
         for a, v in vars(m).items()
         if any(v is o for o in t.originals.values())]
stale += [c.__name__ + "." + k for c in (
    sys.modules["layerspec.numkernel.ode"].OdeTrajectory,
    sys.modules["layerspec.surface.graph"].FanChart,
    sys.modules["layerspec.report"].ReportWriter)
    for k, v in vars(c).items() if any(v is o for o in t.originals.values())]
print(stale)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == set(WORKLOADS) - {"axisym-spectrum"}
