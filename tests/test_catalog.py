import numpy as np
import pytest

from layerspec.catalog import build_chart, catalog, catalog_entry, graph_surface
from layerspec.errors import CapabilityError, InvalidInputError


EXPECTED_NAMES = {
    "hyperbolic-paraboloid",
    "monkey-saddle",
    "elliptic-paraboloid",
    "hyperboloid",
    "sine-meridian",
    "capped-cylinder",
    "poleless-plane",
}


def test_catalog_has_exactly_seven_entries():
    entries = catalog()
    assert len(entries) == 7
    assert {e.name for e in entries} == EXPECTED_NAMES


def test_hyperboloid_exposes_z0_default_one():
    entry = catalog_entry("hyperboloid")
    assert entry.defaults["z0"] == 1.0


def test_every_constructible_entry_builds_under_defaults():
    for entry in catalog():
        if entry.construction == "none":
            continue
        params = {}
        if "s_max" in entry.defaults:
            params["s_max"] = min(entry.defaults["s_max"], 40.0)
        if "theta_samples" in entry.defaults:
            params["theta_samples"] = 64
        chart = build_chart(entry.name, params)
        g = chart.grid(np.linspace(0.5, min(chart.s_max, 20.0), 8))
        assert np.all(np.isfinite(g.K)), entry.name
        assert np.all(g.r > 0), entry.name


def test_poleless_entry_rejected_by_compute():
    with pytest.raises(CapabilityError):
        build_chart("poleless-plane")


def test_unknown_names_and_params_rejected():
    with pytest.raises(InvalidInputError):
        build_chart("moebius-strip")
    with pytest.raises(InvalidInputError):
        build_chart("hyperboloid", {"x0": 2.0})
    with pytest.raises(InvalidInputError):
        build_chart("plane", {"z0": 1.0})
    # the ODE tolerance is build_chart's own argument, not a surface parameter
    with pytest.raises(InvalidInputError):
        build_chart("sine-meridian", {"ode_tol": 1e-8})


def test_plane_is_not_a_catalog_entry_but_builds():
    assert "plane" not in EXPECTED_NAMES
    chart = build_chart("plane", {"s_max": 10.0})
    assert chart.rotation_invariant


def test_plane_rejects_fan_ray_counts_and_bad_radii():
    with pytest.raises(InvalidInputError):
        build_chart("plane", {"theta_samples": 128})
    with pytest.raises(InvalidInputError):
        build_chart("plane", {"s_max": -1.0})


def test_off_axis_paraboloid_not_constructible():
    with pytest.raises(CapabilityError):
        graph_surface("elliptic-paraboloid", {"x0": 1.0, "y0": 2.0})


def test_curvature_relations_on_catalog_samples():
    # K = k1 k2, M = (k1 + k2)/2, K - M^2 <= 0 pointwise everywhere sampled
    for name, params in [
        ("hyperbolic-paraboloid", {"s_max": 40.0, "theta_samples": 64}),
        ("monkey-saddle", {"s_max": 40.0, "theta_samples": 64}),
        ("elliptic-paraboloid", {"s_max": 40.0, "theta_samples": 64}),
        ("hyperboloid", {"s_max": 40.0}),
        ("sine-meridian", {"s_max": 40.0}),
        ("capped-cylinder", {"R": 1.0, "s_max": 25.0}),
    ]:
        chart = build_chart(name, params)
        g = chart.grid(np.linspace(0.05, min(chart.s_max, 35.0), 50))
        assert np.max(np.abs(g.K - g.k1 * g.k2)) <= 1e-10 * (1 + np.abs(g.K).max()), name
        assert np.max(np.abs(g.M - 0.5 * (g.k1 + g.k2))) <= 1e-10 * (1 + np.abs(g.M).max()), name
        assert np.max(g.K - g.M**2) <= 1e-12, name
