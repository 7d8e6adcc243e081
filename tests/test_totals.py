import numpy as np
import pytest

from layerspec.catalog import build_chart, graph_surface
from layerspec.cli import main
from layerspec.errors import InvalidInputError
from layerspec.numkernel import panelize
from layerspec.surface import (
    FanChart,
    RevolutionChart,
    gauss_bonnet_residual,
    ring_integral,
    total_gauss,
    total_gauss_cartesian,
    total_grad_mean_sq,
    total_mean_sq,
    totals,
)
from layerspec.surface.charts import READ_POINTS

TWO_PI = 2.0 * np.pi
GRAPH_SCHEDULE = np.array([2.65, 5.3, 10.6, 21.2, 42.5, 85.0, 170.0, 340.0])


def test_revolution_disk_integrals_read_one_column(chart_reads, materialized):
    chart = build_chart("sine-meridian", {"s_max": 250.0})
    schedule = chart.s_max * np.geomspace(1.0 / 64.0, 1.0, 8)
    ring = total_mean_sq(materialized(chart), schedule)  # the same chart read on its whole ring
    reads = chart_reads(RevolutionChart, width=lambda g: np.broadcast_shapes(g.r.shape, g.M.shape)[1])
    est = total_mean_sq(chart, schedule)
    assert reads and {width for _, width in reads} == {1}
    assert est.value == pytest.approx(ring.value, rel=1e-13)
    assert est.error_bound == pytest.approx(ring.error_bound, rel=1e-13)


def test_plane_totals_vanish():
    chart = build_chart("plane", {"s_max": 50.0})
    sched = np.array([5.0, 10.0, 20.0, 40.0])
    assert abs(total_gauss(chart, sched).value) <= 1e-12
    assert abs(total_mean_sq(chart, sched).value) <= 1e-12


@pytest.mark.parametrize(
    "name,params,target",
    [
        ("hyperbolic-paraboloid", {"s_max": 340.0, "theta_samples": 1024}, -TWO_PI),
        ("monkey-saddle", {"s_max": 340.0, "theta_samples": 3072}, -2 * TWO_PI),
        ("elliptic-paraboloid", {"s_max": 340.0, "theta_samples": 192}, TWO_PI),
    ],
)
def test_graph_total_gauss_against_known_values(name, params, target):
    chart = build_chart(name, params)
    est = total_gauss(chart, GRAPH_SCHEDULE)
    assert est.converged
    assert est.value == pytest.approx(target, rel=0.01)


def test_cartesian_cross_check_hyperbolic_paraboloid():
    chart = build_chart("hyperbolic-paraboloid", {"s_max": 340.0, "theta_samples": 1024})
    fan_est = total_gauss(chart, GRAPH_SCHEDULE)
    cart = total_gauss_cartesian(graph_surface("hyperbolic-paraboloid"),
                                 np.array([5.0, 10.0, 20.0, 40.0, 80.0]))
    assert cart.value == pytest.approx(-TWO_PI, rel=1e-3)
    assert fan_est.value == pytest.approx(cart.value, rel=0.01)


def test_hyperboloid_totals_asymptotic_cone_oracle():
    # asymptotic cone slope: r'(inf) = 1/sqrt(1+z0^2), so K_tot = 2pi(1 - 1/sqrt2)
    chart = build_chart("hyperboloid", {"z0": 1.0, "s_max": 200.0})
    est = total_gauss(chart, np.array([12.5, 25.0, 50.0, 100.0, 200.0]))
    assert est.value == pytest.approx(TWO_PI * (1 - 1 / np.sqrt(2)), rel=1e-4)
    dr_far = chart.profile.eval(np.array([200.0])).dr[0]
    assert dr_far == pytest.approx(1 / np.sqrt(2), abs=1e-4)


def test_sine_meridian_total_matches_closed_form():
    chart = build_chart("sine-meridian", {"s_max": 60.0})
    est = total_gauss(chart, np.array([3.75, 7.5, 15.0, 30.0, 60.0]))
    assert est.value == pytest.approx(TWO_PI * (1 - np.cos(np.sqrt(np.pi / 2))), rel=0.01)


def test_sine_meridian_error_bar_covers_closed_form_on_the_certify_schedule():
    # the schedule certify uses for its sign test; Gauss-Bonnet gives each
    # disk from r'(S) alone, so no radial quadrature has to resolve the
    # sin(s^2)/s^2 oscillations of the outer annuli, and the bar is the tail
    # extrapolation's
    chart = build_chart("sine-meridian", {"s_max": 250.0})
    est = total_gauss(chart, 250.0 * np.geomspace(1.0 / 32.0, 1.0, 6))
    exact = TWO_PI * (1 - np.cos(np.sqrt(np.pi / 2)))
    assert abs(est.value - exact) <= est.error_bound


def test_ring_integral_of_the_plane_area_is_exact_with_a_vanishing_gap():
    chart = build_chart("plane", {"s_max": 10.0})
    part = ring_integral(chart, lambda g: np.ones_like(g.r), panelize(2.0, 10.0, first=1.0))
    assert part.value[0] == pytest.approx(np.pi * (10.0**2 - 2.0**2), rel=1e-14)
    assert part.gap[0] <= 1e-12
    assert part.depth == 0


def test_monkey_saddle_mean_sq_grid_calls(chart_reads):
    # one adaptive ring integral per annulus of the default totals schedule:
    # every annulus converges on its initial panels (a coarse and a fine
    # density call each), on rings of 384 of the 3072 rays; the fine call of
    # each of the five four-panel annuli (88 radii) takes two reads
    chart = build_chart("monkey-saddle", {})
    reads = chart_reads(FanChart)
    total_mean_sq(chart, chart.s_max * np.geomspace(1.0 / 64.0, 1.0, 8))
    assert len(reads) == 21
    assert max(s.size * rays for s, rays in reads) <= READ_POINTS


def test_mean_sq_divergence_detected():
    ep = build_chart("elliptic-paraboloid", {"s_max": 340.0, "theta_samples": 192})
    est = total_mean_sq(ep, np.array([8.0, 16.0, 32.0, 64.0, 128.0]))
    assert est.divergent
    cc = build_chart("capped-cylinder", {"R": 1.0, "s_max": 30.0})
    est = total_mean_sq(cc, np.array([2.0, 4.0, 8.0, 16.0, 30.0]))
    assert est.divergent


@pytest.mark.parametrize(
    "name,params",
    [
        ("hyperboloid", {"z0": 1.0, "s_max": 200.0}),
        ("sine-meridian", {"s_max": 60.0}),
        ("capped-cylinder", {"R": 1.0, "s_max": 30.0}),
    ],
)
def test_gauss_bonnet_residual_small(name, params):
    chart = build_chart(name, params)
    residual, bar = gauss_bonnet_residual(chart)
    assert residual <= 1e-3
    # the ring route's error bound covers the residual
    assert residual <= bar


def test_plane_gauss_bonnet_zero():
    from layerspec.surface import MeridianSpec, revolution_from_meridian

    prof = revolution_from_meridian(MeridianSpec(k_s=lambda s: 0.0 * np.asarray(s), s_max=40.0))
    assert gauss_bonnet_residual(RevolutionChart(prof))[0] <= 1e-10


def test_error_bound_covers_last_increment():
    chart = build_chart("hyperboloid", {"s_max": 100.0})
    sched = np.array([10.0, 25.0, 50.0, 100.0])
    est = total_gauss(chart, sched)
    assert est.error_bound >= abs(est.partials[-1] - est.partials[-2]) - 1e-15


def test_bad_schedules_rejected():
    chart = build_chart("plane", {"s_max": 10.0})
    with pytest.raises(InvalidInputError):
        total_gauss(chart, np.array([5.0, 2.0, 8.0]))
    with pytest.raises(InvalidInputError):
        total_gauss(chart, np.array([2.0, 5.0, 20.0]))  # beyond s_max


def test_ring_integral_blocks_agree_with_one_whole_read_bitwise(monkeypatch):
    # check's |grad M|^2 annuli on the hyperbolic paraboloid (1024 rays, read
    # on the full ring): up to 88 radii a density call, read 32 at a time,
    # against one read per density call.  The dense ODE output is evaluated
    # elementwise, each value from its own step, state row and radius, and
    # every later field is elementwise or a sum along the ring, so where a
    # block is cut changes no bit
    chart = build_chart("hyperbolic-paraboloid", {})
    schedule = chart.s_max * np.array([0.06, 0.12, 0.24, 0.48, 0.96])

    def annuli():
        return [ring_integral(chart, lambda g: g.grad_M_sq,
                              panelize(lo, hi, chart.s_kinks, first=(hi - lo) / 8.0), 1).value[0]
                for lo, hi in zip(np.r_[0.0, schedule[:-1]], schedule)]

    blocked = annuli()
    monkeypatch.setattr(totals, "read_rings",
                        lambda chart, s, reduce, stride=1: reduce(chart.grid(s, stride=stride)))
    assert [float(v).hex() for v in blocked] == [float(v).hex() for v in annuli()]


# check, totals and certify on the catalog's hyperbolic paraboloid, and on a
# monkey saddle at 3072 rays with 16 totals radii and 12 probe radii
_BUDGET_RUNS = {
    "hyperbolic-paraboloid": "surface.name = hyperbolic-paraboloid\n",
    "monkey-saddle": ("surface.name = monkey-saddle\nsurface.theta_samples = 3072\n"
                      "totals.schedule = " + ", ".join(f"{r:.6g}" for r in np.geomspace(2.0, 340.0, 16))
                      + "\ncheck.probe_radii = "
                      + ", ".join(f"{r:.6g}" for r in np.geomspace(10.0, 320.0, 12)) + "\n"),
}


@pytest.mark.parametrize("name", sorted(_BUDGET_RUNS))
def test_no_fan_read_of_a_run_exceeds_the_points_budget(tmp_path, chart_reads, name):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_BUDGET_RUNS[name])
    reads = chart_reads(FanChart)
    for command in ("check", "totals", "certify"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    assert max(s.size * rays for s, rays in reads) <= READ_POINTS
