"""Command-line entry point.

    layerspec <subcommand> --config <path> [--out <dir>]

Subcommands: describe, check, totals, certify, spectrum, counterexample,
catalog.  Each compute subcommand writes ``<out>/<subcommand>.json`` (plus
CSV tables for plottable fields and a ``.meta.json`` sidecar with wall-clock
data).  Exit codes: 0 success, 2 hypothesis violation, 3 numerical failure,
4 configuration error.
"""

import argparse
import sys

import numpy as np

from .catalog import build_chart, catalog, catalog_entry
from .config import RunConfig, defaults_text, load_config
from .errors import ConfigError, HypothesisViolationError, InvalidInputError, LayerSpecError
from .layer import LayerSpec, c_bounds, collision_scan
from .report import ReportWriter, exact, measured
from .surface import (
    gauss_bonnet_residual,
    hypotheses_report,
    total_gauss,
    total_gauss_cartesian,
    total_mean_sq,
)
from .surface.charts import SUP_BAR
from .spectrum import counterexample_full, spectrum_with_refinement
from .varform import certify

# charts large enough for the trial-support sweeps, keyed by surface;
# applies only when surface.s_max is not set explicitly
_CERTIFY_S_MAX = {
    "plane": 400.0,
    "hyperbolic-paraboloid": 4000.0,
    "monkey-saddle": 4000.0,
    "elliptic-paraboloid": 4000.0,
    "hyperboloid": 1.6e8,
    "sine-meridian": 250.0,
}


def _build(config, command):
    name = config.get("surface.name")
    params = config.surface_params()
    if command == "certify" and "s_max" not in params and name in _CERTIFY_S_MAX:
        params["s_max"] = _CERTIFY_S_MAX[name]
    chart = build_chart(name, params, ode_tol=config.get("solver.ode_tol"))
    return name, chart


def _estimate_payload(est):
    return {
        "value": est.value,
        "error": est.error_bound,
        "divergent": est.divergent,
        "principal_value": est.principal_value,
        "truncations": list(est.truncations),
        "partials": list(est.partials),
    }


def _rho_m_payload(rho):
    """rho_m with its sampled-sup bar; a planar chart's infinite rho_m is exact."""
    return measured(rho, SUP_BAR * rho if np.isfinite(rho) else 0.0)


def _eigen_error(value, residual):
    """An eigenvalue's reported error: its relative residual times max(1, |value|)."""
    return float(residual) * max(1.0, abs(float(value)))


def cmd_describe(config, writer):
    name, chart = _build(config, "describe")
    entry = None if name == "plane" else catalog_entry(name)
    ss = np.geomspace(chart.s_max / 256.0, chart.s_max * 0.98, 48)
    g = chart.grid(ss, stride=chart.theta_nodes.size)  # the theta = 0 column
    layer = LayerSpec(chart, a=config.get("layer.a"), force=True)
    writer.add("surface", {
        "name": name,
        "definition": entry.definition if entry else "z = 0",
        "provenance_chart": "revolution" if chart.rotation_invariant else "graph-shot",
        "s_max": exact(chart.s_max),
        "rho_m": _rho_m_payload(layer.rho_m),
        "truncated": chart.truncated,
    })
    j = 0
    rows = [
        (float(g.s[i]), float(g.r[i, j]), float(g.dr_ds[i, j]), float(g.K[i, j]),
         float(g.M[i, j]), float(g.k1[i, j]), float(g.k2[i, j]))
        for i in range(g.s.size)
    ]
    writer.write_csv("describe", ["s", "r", "dr_ds", "K", "M", "k1", "k2"], rows)
    writer.add("samples", {"count": len(rows), "theta": float(g.theta[j])})
    scan = collision_scan(layer)
    writer.add("layer", {
        "a": exact(layer.a),
        "kappa1_sq": exact(layer.kappa1_sq),
        "omega1_ok": layer.omega1_ok,
        "collision_scan": {"result": scan.result, "checked_points": scan.checked_points},
    })
    return 0


def cmd_check(config, writer):
    name, chart = _build(config, "check")
    radii = config.get("check.probe_radii")
    if radii is None:
        radii = list(chart.s_max * np.array([0.06, 0.12, 0.24, 0.48, 0.96]))
    rep = hypotheses_report(chart, radii)
    writer.add("hypotheses", {
        "sigma0": {"verdict": rep.sigma0,
                   "sup_abs_K": list(rep.sigma0_sup_K),
                   "sup_abs_M": list(rep.sigma0_sup_M)},
        "sigma1": {"verdict": rep.sigma1, "partials": list(rep.sigma1_partials)},
        "sigma2": {"verdict": rep.sigma2, "partials": list(rep.sigma2_partials)},
        "growth_constant": measured(rep.growth_constant, SUP_BAR * rep.growth_constant),
        "notes": list(rep.notes),
    })
    writer.write_csv(
        "check", ["annulus_outer_radius", "sup_abs_K", "sup_abs_M"],
        list(zip(rep.annuli, rep.sigma0_sup_K, rep.sigma0_sup_M)),
    )
    return 0


def cmd_totals(config, writer):
    name, chart = _build(config, "totals")
    schedule = config.get("totals.schedule")
    if schedule is None:
        schedule = list(chart.s_max * np.geomspace(1.0 / 64.0, 1.0, 8))
    est_k = total_gauss(chart, schedule)
    est_m = total_mean_sq(chart, schedule)
    writer.add("total_gauss", _estimate_payload(est_k))
    writer.add("total_mean_sq", _estimate_payload(est_m))
    if chart.rotation_invariant:
        writer.add("gauss_bonnet_residual", measured(*gauss_bonnet_residual(chart)))
    else:  # independent Cartesian route
        plane_radii = np.geomspace(2.0, max(4.0, np.sqrt(chart.s_max)), 5)
        cart = total_gauss_cartesian(chart.surface, plane_radii)
        writer.add("total_gauss_cartesian", _estimate_payload(cart))
    # one row per scheduled radius; partial_gauss is empty beyond the
    # Gauss-Bonnet resolution cut
    rows = []
    for i, radius in enumerate(est_m.truncations):
        k_part = float(est_k.partials[i]) if i < len(est_k.partials) else ""
        rows.append((float(radius), k_part, est_m.partials[i]))
    writer.write_csv("totals", ["radius", "partial_gauss", "partial_mean_sq"], rows)
    return 0


def cmd_certify(config, writer):
    name, chart = _build(config, "certify")
    layer = LayerSpec(chart, a=config.get("layer.a"), force=config.get("layer.force"))
    kwargs = {"budget": config.get("certify.budget"),
              "strategies": tuple(config.get("certify.strategies"))}
    if config.get("certify.s0") is not None:
        kwargs["s0"] = config.get("certify.s0")
    cert = certify(layer, **kwargs)
    writer.add("certificate", {
        "verdict": cert.verdict,
        "family": cert.family,
        "params": cert.params,
        "q_tilde": measured(cert.q_tilde, cert.error),
        "norm_sq": measured(cert.norm_sq, cert.norm_error),
        "kappa1_sq": exact(layer.kappa1_sq),
        "rho_m": _rho_m_payload(layer.rho_m),
        "c_bounds": list(c_bounds(layer)),
        "notes": list(cert.notes),
    })
    writer.write_csv("certify", ["family", "params", "q_tilde", "error", "note"], cert.evaluations)
    return 0


def cmd_spectrum(config, writer):
    name, chart = _build(config, "spectrum")
    layer = LayerSpec(chart, a=config.get("layer.a"), force=config.get("layer.force"))
    S = config.get("spectrum.S")
    if S is None:
        S = min(40.0, 0.9 * chart.s_max)
    rows = []
    payload = []
    for m in config.get("spectrum.m_list"):
        res = spectrum_with_refinement(
            layer, m, S=S,
            n_s=config.get("spectrum.n_s"), n_u=config.get("spectrum.n_u"),
            k=config.get("spectrum.k"), levels=config.get("spectrum.levels"),
        )
        payload.append({
            "m": m,
            "eigenvalues": [measured(float(v), _eigen_error(v, r))
                            for v, r in zip(res.eigenvalues, res.residuals)],
            "threshold": exact(res.threshold),
            "threshold_mesh": exact(res.threshold_mesh),
            "below_threshold": list(res.below_threshold),
            "below_threshold_count": res.count,
            "convergence": [list(row) for row in res.convergence],
            "order_estimate": res.order_estimate,
        })
        for idx, lam in enumerate(res.eigenvalues):
            rows.append((m, idx, float(lam), res.threshold,
                         bool(res.below_threshold[idx]), res.h_s, res.h_u, res.S))
    writer.add("spectra", payload)
    writer.write_csv(
        "spectrum",
        ["m", "index", "eigenvalue", "threshold", "below_threshold", "mesh_h_s", "mesh_h_u", "S"],
        rows,
    )
    return 0


def cmd_counterexample(config, writer):
    rep = counterexample_full(
        config.get("counterexample.R"), config.get("counterexample.a"),
        S=config.get("counterexample.S"),
        n_s_per_R=config.get("counterexample.n_s_per_R"),
        n_u=config.get("counterexample.n_u"),
    )
    writer.add("counterexample", {
        "R": exact(rep.R),
        "a": exact(rep.a),
        "eps1": measured(rep.eps1, rep.eps1_error),
        "eps1_mesh": exact(rep.eps1_mesh),
        "analytic_bracket": list(rep.bracket),
        "kappa1_sq": exact(rep.kappa1_sq),
        "shell_ground": exact(rep.shell_ground),
        "cap_neumann_ground": measured(
            float(rep.cap_neumann.eigenvalues[0]),
            _eigen_error(rep.cap_neumann.eigenvalues[0], rep.cap_neumann.residuals[0]),
        ),
        # every truncation's inertia at eps1_mesh counts no eigenvalue below it
        "no_eigenvalue_below_eps1": all(res.count == 0 for res in rep.spectra),
        "note": "Dirichlet truncation gives upper bounds; absence evidence only",
    })
    rows = []
    for res in rep.spectra:
        for idx, lam in enumerate(res.eigenvalues):
            rows.append((res.S, idx, float(lam), rep.eps1, rep.eps1_mesh, rep.kappa1_sq))
    writer.write_csv(
        "counterexample", ["S", "index", "eigenvalue", "eps1", "eps1_mesh", "kappa1_sq"], rows
    )
    return 0


def cmd_catalog(config, writer):
    entries = [{
        "name": e.name,
        "construction": e.construction,
        "definition": e.definition,
        "defaults": e.defaults,
        "description": e.description,
    } for e in catalog()]
    writer.add("catalog", entries)
    writer.write_csv("catalog", ["name", "construction", "definition"],
                     [(e.name, e.construction, e.definition) for e in catalog()])
    return 0


_COMMANDS = {
    "describe": cmd_describe,
    "check": cmd_check,
    "totals": cmd_totals,
    "certify": cmd_certify,
    "spectrum": cmd_spectrum,
    "counterexample": cmd_counterexample,
    "catalog": cmd_catalog,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="layerspec", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to the key-value configuration file")
    parser.add_argument("--out", default="layerspec-out", help="output directory")
    parser.add_argument("--defaults", action="store_true",
                        help="print all configuration defaults and exit")
    args = parser.parse_args(argv)

    if args.defaults:
        print(defaults_text())
        return 0

    try:
        config = load_config(args.config) if args.config else RunConfig()
        writer = ReportWriter(args.out, args.command, config)
        code = _COMMANDS[args.command](config, writer)
        path = writer.finalize()
        print(f"wrote {path}")
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 4
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except LayerSpecError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
