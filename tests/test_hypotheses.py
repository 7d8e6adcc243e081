import numpy as np
import pytest

from layerspec.catalog import build_chart
from layerspec.surface import (
    MeridianSpec,
    RevolutionChart,
    hypotheses_report,
    revolution_from_meridian,
    total_abs_gauss,
    total_gauss,
)
from layerspec.surface.totals import radial_gauss_partials, resolved_prefix

TWO_PI = 2.0 * np.pi


def test_plane_all_pass_with_tight_growth_constant():
    chart = build_chart("plane", {"s_max": 120.0})
    rep = hypotheses_report(chart, [10.0, 20.0, 40.0, 80.0, 115.0])
    assert (rep.sigma0, rep.sigma1, rep.sigma2) == ("pass", "pass", "pass")
    assert TWO_PI <= rep.growth_constant <= TWO_PI * 1.05 + 1e-12


def test_capped_cylinder_fails_asymptotic_planarity():
    chart = build_chart("capped-cylinder", {"R": 1.0, "s_max": 30.0})
    rep = hypotheses_report(chart, [1.8, 3.6, 7.2, 14.4, 28.8])
    assert rep.sigma0 == "fail"
    # constant mean curvature on the tail is the failing evidence
    assert rep.sigma0_sup_M[-1] == pytest.approx(1.05 * 0.5, rel=1e-6)


def test_sine_meridian_sigma1_pass_sigma2_fail():
    chart = build_chart("sine-meridian", {"s_max": 60.0})
    rep = hypotheses_report(chart, [3.5, 7.0, 14.0, 28.0, 56.0])
    assert rep.sigma1 == "pass"
    assert rep.sigma2 == "fail"
    assert rep.sigma0 == "pass"


def _one_sign_change_chart():
    # k_s = (1 - s^2) exp(-s^2) keeps the turning angle positive, so K > 0
    # for s < 1 and K < 0 beyond
    k_s = lambda s: (1.0 - np.asarray(s) ** 2) * np.exp(-np.asarray(s) ** 2)
    return RevolutionChart(revolution_from_meridian(MeridianSpec(k_s=k_s, s_max=12.0)))


@pytest.mark.parametrize(
    "make_chart, radii",
    [
        # K changes sign all along the sine meridian, and is positive at the
        # check command's default radii
        (lambda: build_chart("sine-meridian", {"s_max": 60.0}), 60.0 * np.array([0.06, 0.12, 0.24, 0.48, 0.96])),
        # K changes sign once, inside the probe annuli's inner edge s = 2
        (_one_sign_change_chart, np.array([4.0, 6.0, 8.0, 10.0, 12.0])),
    ],
    ids=["sine-meridian", "sign-change-inside-the-first-annulus"],
)
def test_sigma1_integrates_abs_gauss_where_K_changes_sign(make_chart, radii):
    # the sigma1 partials are the ring integrals of |K|, not |int K|, though
    # K sampled on the probe radii alone keeps one sign
    chart = make_chart()
    K = chart.grid(radii).K
    assert K.max() < 0.0 or K.min() > 0.0
    rep = hypotheses_report(chart, radii)
    abs_partials = total_abs_gauss(chart, radii).partials
    assert np.array_equal(rep.sigma1_partials, abs_partials)
    assert np.abs(total_gauss(chart, radii).partials).max() < 0.9 * abs_partials.min()


@pytest.mark.parametrize(
    "name,params,radii",
    [
        ("hyperboloid", {"s_max": 200.0}, [12.0, 24.0, 48.0, 96.0, 190.0]),
        ("elliptic-paraboloid", {"s_max": 340.0, "theta_samples": 192}, [8.0, 16.0, 32.0, 64.0, 128.0]),
        ("hyperbolic-paraboloid", {"s_max": 340.0, "theta_samples": 1024}, [8.0, 16.0, 32.0, 64.0, 128.0]),
    ],
)
def test_asymptotically_planar_surfaces_pass(name, params, radii):
    chart = build_chart(name, params)
    rep = hypotheses_report(chart, radii)
    assert rep.sigma0 == "pass", name
    assert rep.sigma1 == "pass", name
    assert rep.sigma2 == "pass", name


def test_linear_growth_estimate_bounds_circumference():
    # int_0^{2pi} r dtheta <= C s, checked at many random radii
    chart = build_chart("hyperboloid", {"s_max": 200.0})
    rep = hypotheses_report(chart, [12.0, 24.0, 48.0, 96.0, 190.0])
    rng = np.random.default_rng(3)
    ss = rng.uniform(1e-3, 190.0, size=1000)
    g = chart.grid(np.sort(ss))
    circ = TWO_PI * g.r.mean(axis=1)
    assert np.all(circ <= rep.growth_constant * np.sort(ss) * (1 + 1e-12))


def test_resolution_cuts_name_the_unresolved_radii_they_keep():
    # at the check command's default radii the monkey saddle's fan resolves
    # the Gauss-Bonnet disks out to the third radius only; with 4 radii
    # needed, both cuts keep every radius and say which are unresolved
    chart = build_chart("monkey-saddle")
    radii = chart.s_max * np.array([0.06, 0.12, 0.24, 0.48, 0.96])
    assert resolved_prefix(*radial_gauss_partials(chart, radii)) == 3
    rep = hypotheses_report(chart, radii)
    assert np.array_equal(rep.annuli, radii)
    fan, sigma1, grad_m = rep.notes
    assert "fan ring integrals" in fan and "grad-M" in grad_m
    assert f"s = {radii[3]:g}, {radii[4]:g} kept" in fan
    assert f"{radii[2]:g}" not in fan
    # sigma1's total_gauss keeps the resolved radii only, and its note names them
    assert rep.sigma1_partials.size == 3
    listed = ", ".join(f"{r:g}" for r in radii[:rep.sigma1_partials.size])
    assert sigma1 == f"sigma1 partials from probe radii s = {listed} only"
    # the grad-M rings kept unresolved are no integrability evidence
    assert rep.sigma2 == "undecided"


def test_resolved_prefix_is_relative_at_small_magnitude():
    # a 1 % disagreement on rings of size 1e-3 is unresolved; no absolute
    # floor lets it pass
    full = np.full(4, 1e-3)
    half = full.copy()
    half[2] += 1e-5
    assert resolved_prefix(full, half) == 2
    assert resolved_prefix(full, full) == 4
