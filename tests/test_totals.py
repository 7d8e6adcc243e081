import numpy as np
import pytest

from layerspec.catalog import build_chart, graph_surface
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
    graph,
    totals,
)
from layerspec.surface.charts import READ_POINTS

TWO_PI = 2.0 * np.pi
GRAPH_SCHEDULE = np.array([2.65, 5.3, 10.6, 21.2, 42.5, 85.0, 170.0, 340.0])


def test_revolution_disk_integrals_read_one_column(monkeypatch, materialized):
    chart = build_chart("sine-meridian", {"s_max": 250.0})
    schedule = chart.s_max * np.geomspace(1.0 / 64.0, 1.0, 8)
    ring = total_mean_sq(materialized(chart), schedule)  # the same chart read on its whole ring
    widths = []
    grid = RevolutionChart.grid

    def spy(self, s_nodes, stride=1):
        g = grid(self, s_nodes, stride=stride)
        widths.append(np.broadcast_shapes(g.r.shape, g.M.shape)[1])
        return g

    monkeypatch.setattr(RevolutionChart, "grid", spy)
    est = total_mean_sq(chart, schedule)
    assert widths and set(widths) == {1}
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


def test_monkey_saddle_mean_sq_grid_calls(monkeypatch):
    # one adaptive ring integral per annulus of the default totals schedule:
    # every annulus converges on its initial panels (a coarse and a fine
    # grid call each), on rings of 384 of the 3072 rays
    chart = build_chart("monkey-saddle", {})
    sizes = []
    grid = FanChart.grid

    def spy(self, s_nodes, stride=1):
        g = grid(self, s_nodes, stride=stride)
        sizes.append(g.r.size)
        return g

    monkeypatch.setattr(FanChart, "grid", spy)
    total_mean_sq(chart, chart.s_max * np.geomspace(1.0 / 64.0, 1.0, 8))
    assert len(sizes) == 16
    assert max(sizes) <= 33792


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


def test_ring_integral_derives_in_blocks_what_one_whole_grid_gives(monkeypatch):
    # check's |grad M|^2 annuli on the hyperbolic paraboloid (1024 rays, read
    # on the full ring): each density call reads the chart once and derives
    # the weight on blocks of at most READ_POINTS points, bitwise the ring
    # values of the whole grid (a read cut into blocks is not: a step left
    # with one point moves the last digit)
    chart = build_chart("hyperbolic-paraboloid", {})
    reads, blocks = [], []
    gauss, rows = totals.adaptive_gauss, graph._FanGrid.rows

    def recorded_gauss(density, panels, orders, tol):
        def recorded(nodes, level):
            reads.append((np.array(nodes), density(nodes, level)))
            return reads[-1][1]
        return gauss(recorded, panels, orders, tol)

    def recorded_rows(g, i, j):
        blocks.append(rows(g, i, j))
        return blocks[-1]

    monkeypatch.setattr(totals, "adaptive_gauss", recorded_gauss)
    monkeypatch.setattr(graph._FanGrid, "rows", recorded_rows)
    total_grad_mean_sq(chart, chart.s_max * np.array([0.06, 0.12, 0.24, 0.48, 0.96]), stride=1)
    assert len(blocks) > len(reads) and max(b.r.size for b in blocks) <= READ_POINTS
    for nodes, values in reads:
        g = chart.grid(nodes)
        assert np.array_equal(values, 2.0 * np.pi * (g.grad_M_sq * g.r).mean(axis=1))
