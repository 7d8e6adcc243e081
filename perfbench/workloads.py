"""The benchmark's workloads: one layerspec subcommand each.

A workload turns a seed into a configuration file (the only input the
program receives) and checks the reproducible ``<cmd>.json`` the run
writes.  Seeds pick a parameter from a short list on which every check
holds and the amount of work stays the same, so that seeds vary the
inputs without varying the cost being measured.
"""

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    base: tuple          # fixed "key = value" lines
    key: str             # the config key the seed picks
    choices: tuple       # values the seed picks from
    check: object        # (results dict, picked value) -> list of failure messages

    def config(self, seed):
        """(picked value, config file text) for this seed."""
        value = random.Random(seed).choice(self.choices)
        lines = list(self.base) + [f"{self.key} = {value!r}"]
        return value, "\n".join(lines) + "\n"


def _check_certify(results, value):
    cert = results["certificate"]
    fails = []
    if cert["verdict"] != "certified":
        fails.append(f"verdict {cert['verdict']!r}, expected 'certified'")
    q = cert["q_tilde"]
    if not q["value"] + q["error"] < 0.0:
        fails.append(f"q_tilde + error = {q['value'] + q['error']:.6g} is not negative")
    return fails


def _check_totals(results, value):
    fails = []
    for key in ("total_gauss", "total_gauss_cartesian"):
        est = results[key]
        gap = abs(est["value"] + 4.0 * math.pi)
        if not gap <= est["error"]:
            fails.append(f"{key} {est['value']:.8g} is {gap:.3g} from -4 pi, error bar {est['error']:.3g}")
    if results["total_mean_sq"]["divergent"] is not True:
        fails.append("total_mean_sq is not flagged divergent")
    return fails


# lambda_0 of m = 0 and m = 1 per layer.a, from the seed commit's program on
# the same configuration; a later run must match within its refinement gap
_SPECTRUM_REFERENCE = {
    0.28: {0: 31.465385596281525, 1: 31.47058621803692},
    0.29: {0: 29.332757473723976, 1: 29.33795706629232},
    0.3: {0: 27.409817128196206, 1: 27.415015663740384},
    0.31: {0: 25.669949488267765, 1: 25.675146939595226},
    0.32: {0: 24.090632006781753, 1: 24.095828347341634},
}


def _check_spectrum(results, value):
    fails = []
    by_m = {entry["m"]: entry for entry in results["spectra"]}
    if sorted(by_m) != [0, 1]:
        return [f"partial waves {sorted(by_m)}, expected [0, 1]"]
    for m, entry in by_m.items():
        thr = entry["threshold_mesh"]["value"]
        lams = [e["value"] for e in entry["eigenvalues"]]
        below = [lam < thr for lam in lams]
        if m == 0 and not below[0]:
            fails.append(f"m = 0: lambda_0 {lams[0]!r} not below threshold_mesh {thr!r}")
        if m == 1 and any(below):
            fails.append(f"m = 1: eigenvalue below threshold_mesh {thr!r}: {lams}")
        if list(entry["below_threshold"]) != below:
            fails.append(f"m = {m}: below_threshold flags {entry['below_threshold']} disagree")
        conv = entry["convergence"]
        gap = abs(conv[-1][2] - conv[-2][2])
        ref = _SPECTRUM_REFERENCE.get(value, {}).get(m)
        if ref is None:
            fails.append(f"m = {m}: no reference lambda_0 for layer.a = {value!r}")
        elif not abs(lams[0] - ref) <= gap:
            fails.append(f"m = {m}: lambda_0 {lams[0]!r} is {abs(lams[0] - ref):.3g} from the "
                         f"reference {ref!r}, refinement gap {gap:.3g}")
    return fails


def _check_counterexample(results, value):
    rep = results["counterexample"]
    fails = []
    if rep["no_eigenvalue_below_eps1"] is not True:
        fails.append("an eigenvalue lies below eps1")
    lo, hi = rep["analytic_bracket"]
    eps1 = rep["eps1"]["value"]
    if not lo <= eps1 <= hi:
        fails.append(f"eps1 {eps1!r} outside the analytic bracket [{lo!r}, {hi!r}]")
    return fails


WORKLOADS = {w.name: w for w in [
    Workload(
        name="fan-certify",
        command="certify",
        base=("surface.name = monkey-saddle",),
        key="layer.a",
        choices=(0.08, 0.09, 0.1, 0.11, 0.12),
        check=_check_certify,
    ),
    Workload(
        name="fan-totals",
        command="totals",
        base=("surface.name = monkey-saddle",),
        key="surface.s_max",
        choices=(300.0, 320.0, 340.0, 360.0, 380.0),
        check=_check_totals,
    ),
    # runnable by name but left out of BENCHMARK.json: its run medians spread
    # too widely across runs on a shared 2-core machine (see README.md)
    Workload(
        name="axisym-spectrum",
        command="spectrum",
        base=("surface.name = hyperboloid", "spectrum.S = 60", "spectrum.m_list = 0, 1"),
        key="layer.a",
        choices=(0.28, 0.29, 0.3, 0.31, 0.32),
        check=_check_spectrum,
    ),
    Workload(
        name="capped-counterexample",
        command="counterexample",
        base=(),
        key="counterexample.a",
        choices=(0.28, 0.29, 0.3, 0.31, 0.32),
        check=_check_counterexample,
    ),
]}
