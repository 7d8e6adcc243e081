import dataclasses

import numpy as np
import pytest

from layerspec.catalog import build_chart, graph_surface
from layerspec.layer import rho_m
from layerspec.surface import (
    GraphSurface,
    asymptotic_flatness_verdict,
    geodesic_fan,
    graph_curvatures,
    profile_from_height,
    total_gauss,
)


def shape_operator_oracle(surf, x, y, h=1e-5):
    """Principal curvatures from a finite-difference shape operator.

    Independent of the closed Weingarten formulas under test: builds the
    first/second fundamental forms from numerical derivatives of the
    embedding (x, y) -> (x, y, f).
    """
    f = surf.f
    e = lambda a, b: np.array([a, b, f(a, b)])
    ru = (e(x + h, y) - e(x - h, y)) / (2 * h)
    rv = (e(x, y + h) - e(x, y - h)) / (2 * h)
    ruu = (e(x + h, y) - 2 * e(x, y) + e(x - h, y)) / h**2
    rvv = (e(x, y + h) - 2 * e(x, y) + e(x, y - h)) / h**2
    ruv = (e(x + h, y + h) - e(x + h, y - h) - e(x - h, y + h) + e(x - h, y - h)) / (4 * h**2)
    n = np.cross(ru, rv)
    n /= np.linalg.norm(n)
    E, F, G = ru @ ru, ru @ rv, rv @ rv
    L, Mm, N = ruu @ n, ruv @ n, rvv @ n
    shape = np.linalg.solve(np.array([[E, F], [F, G]]), np.array([[L, Mm], [Mm, N]]))
    K = np.linalg.det(shape)
    M = 0.5 * np.trace(shape)
    return K, M


def test_plane_curvatures_zero():
    surf = GraphSurface(
        f=lambda x, y: 0.0 * x, fx=lambda x, y: 0.0 * x, fy=lambda x, y: 0.0 * x,
        fxx=lambda x, y: 0.0 * x, fxy=lambda x, y: 0.0 * x, fyy=lambda x, y: 0.0 * x,
    )
    assert graph_curvatures(surf, 0.3, -1.2) == (0.0, 0.0, 0.0, 0.0)


def test_saddle_origin_values():
    surf = graph_surface("hyperbolic-paraboloid")
    K, M, k1, k2 = graph_curvatures(surf, 0.0, 0.0)
    assert K == pytest.approx(-4.0, abs=1e-12)
    assert M == pytest.approx(0.0, abs=1e-12)
    assert (k1, k2) == (pytest.approx(2.0), pytest.approx(-2.0))
    K_o, M_o = shape_operator_oracle(surf, 0.0, 0.0)
    assert K == pytest.approx(K_o, abs=1e-6)
    assert M == pytest.approx(M_o, abs=1e-6)


def test_curvatures_match_shape_operator_off_origin():
    for name, pts in [
        ("hyperbolic-paraboloid", [(0.7, -0.2), (1.5, 1.1)]),
        ("monkey-saddle", [(0.4, 0.3), (-0.8, 0.6)]),
        ("elliptic-paraboloid", [(0.5, 0.25), (1.2, -0.7)]),
    ]:
        surf = graph_surface(name)
        for x, y in pts:
            K, M, k1, k2 = graph_curvatures(surf, x, y)
            K_o, M_o = shape_operator_oracle(surf, x, y)
            assert K == pytest.approx(K_o, rel=2e-5, abs=1e-7), (name, x, y)
            assert M == pytest.approx(M_o, rel=2e-5, abs=1e-7), (name, x, y)
            assert K == pytest.approx(k1 * k2, rel=1e-12, abs=1e-14)
            assert M == pytest.approx(0.5 * (k1 + k2), rel=1e-12, abs=1e-14)


def test_hemisphere_graph_umbilic():
    R = 2.0
    surf = GraphSurface(
        f=lambda x, y: np.sqrt(R**2 - x**2 - y**2),
        fx=lambda x, y: -x / np.sqrt(R**2 - x**2 - y**2),
        fy=lambda x, y: -y / np.sqrt(R**2 - x**2 - y**2),
        fxx=lambda x, y: -(R**2 - y**2) / (R**2 - x**2 - y**2) ** 1.5,
        fxy=lambda x, y: -x * y / (R**2 - x**2 - y**2) ** 1.5,
        fyy=lambda x, y: -(R**2 - x**2) / (R**2 - x**2 - y**2) ** 1.5,
    )
    K, M, k1, k2 = graph_curvatures(surf, 0.0, 0.0)
    assert K == pytest.approx(1.0 / R**2, rel=1e-12)
    assert abs(M) == pytest.approx(1.0 / R, rel=1e-12)
    assert k1 == pytest.approx(k2, abs=1e-12)


def test_flat_fan_is_polar_grid():
    surf = GraphSurface(
        f=lambda x, y: 0.0 * x, fx=lambda x, y: 0.0 * x, fy=lambda x, y: 0.0 * x,
        fxx=lambda x, y: 0.0 * x, fxy=lambda x, y: 0.0 * x, fyy=lambda x, y: 0.0 * x,
        pole=(1.0, -2.0),
    )
    chart = geodesic_fan(surf, theta_samples=16, s_max=5.0, tol=1e-10)
    g = chart.grid(np.array([1.0, 3.0]))
    p, _, _ = chart.embedding(g.s)
    expect_x = 1.0 + g.s[:, None] * np.cos(g.theta)[None, :]
    expect_y = -2.0 + g.s[:, None] * np.sin(g.theta)[None, :]
    assert np.max(np.abs(p[:, :, 0] - expect_x)) <= 1e-9
    assert np.max(np.abs(p[:, :, 1] - expect_y)) <= 1e-9
    assert np.max(np.abs(g.r - g.s[:, None])) <= 1e-9


def test_fan_matches_profile_chart_for_revolution_case():
    # two independent constructions of the same chart as mutual oracle
    fan = build_chart("elliptic-paraboloid", {"s_max": 30.0, "theta_samples": 64})
    prof = profile_from_height(
        z_fn=lambda rho: rho**2, dz_fn=lambda rho: 2.0 * rho,
        d2z_fn=lambda rho: 2.0 + 0.0 * rho, d3z_fn=lambda rho: 0.0 * rho,
        s_max=30.0, tol=1e-11,
    )
    ss = np.linspace(0.25, 28.0, 24)
    r_fan = fan.grid(ss).r
    r_prof = prof.eval(ss).r
    assert np.max(np.abs(r_fan - r_prof[:, None])) <= 1e-6


def test_unit_speed_along_rays():
    for name in ("hyperbolic-paraboloid", "monkey-saddle", "elliptic-paraboloid"):
        chart = build_chart(name, {"s_max": 40.0, "theta_samples": 64})
        _, dp_ds, _ = chart.embedding(np.linspace(0.5, 35.0, 12))
        speed = np.linalg.norm(dp_ds, axis=-1)
        assert np.max(np.abs(speed - 1.0)) <= 1e-8, name


def ring_derivative(values):
    """d/dtheta of samples on the full uniform ray ring (axis 1), by FFT."""
    n = values.shape[1]
    k = np.fft.rfftfreq(n, d=1.0 / n) * 1j
    spec = np.fft.rfft(values, axis=1)
    return np.fft.irfft(spec * k.reshape((1, -1) + (1,) * (values.ndim - 2)), n=n, axis=1)


def test_jacobi_consistency_cross_check():
    # metric factor from |dp/dtheta| vs the co-integrated Jacobi field:
    # one relation checking curvature, geodesic, and Jacobi code at once.
    # dp/dtheta is differentiated here from the ray endpoints themselves;
    # the chart's own dp_dtheta is r e_theta, which has |.| = r by design
    for name, s_hi in [
        ("hyperbolic-paraboloid", 8.0),
        ("monkey-saddle", 4.0),
        ("elliptic-paraboloid", 30.0),
    ]:
        chart = build_chart(name, {"s_max": 40.0, "theta_samples": 1024})
        g = chart.grid(np.linspace(0.2, s_hi, 10))
        p, _, _ = chart.embedding(g.s)
        assert g.theta.size == 1024
        r_theta = np.linalg.norm(ring_derivative(p), axis=-1)
        rel = np.abs(r_theta / g.r - 1.0)
        assert rel.max() <= 1e-6, (name, rel.max())


@pytest.fixture(scope="module")
def monkey_fans():
    return {n: build_chart("monkey-saddle", {"s_max": 40.0, "theta_samples": n}) for n in (128, 3072)}


def test_mean_curvature_derivatives_do_not_depend_on_ray_count(monkey_fans):
    # dM/ds and dM/dtheta are per-ray quantities: a coarse fan must give the
    # values of the fine fan on the rays they share, also far out where
    # neighbouring rays have separated
    s = np.array([5.0, 20.0, 35.0])
    coarse = monkey_fans[128].grid(s)
    fine = monkey_fans[3072].grid(s, stride=3072 // 128)
    assert np.allclose(coarse.theta, fine.theta, rtol=0, atol=1e-15)
    for field in ("dM_dtheta", "dM_ds"):
        a, b = getattr(coarse, field), getattr(fine, field)
        rel = np.abs(a - b).max(axis=1) / np.abs(b).max(axis=1)
        assert rel.max() <= 1e-8, (field, rel)


def test_dM_ds_matches_a_difference_of_M_along_each_ray(monkey_fans):
    chart, h = monkey_fans[128], 1e-5
    s = np.array([5.0, 20.0, 35.0])
    along = (chart.grid(s + h).M - chart.grid(s - h).M) / (2.0 * h)
    dM_ds = chart.grid(s).dM_ds
    rel = np.abs(along - dM_ds).max(axis=1) / np.abs(dM_ds).max(axis=1)
    assert rel.max() <= 1e-6, rel


def test_conjugate_point_truncates_fan():
    # Gaussian bump offset from the pole: rays passing over it are lensed
    # and refocus behind it, where the metric factor crosses zero
    h, w, d = 3.0, 1.0, 3.0
    surf = GraphSurface(
        f=lambda x, y: h * np.exp(-((x - d) ** 2 + y**2) / w**2),
        fx=lambda x, y: -2 * (x - d) / w**2 * h * np.exp(-((x - d) ** 2 + y**2) / w**2),
        fy=lambda x, y: -2 * y / w**2 * h * np.exp(-((x - d) ** 2 + y**2) / w**2),
        fxx=lambda x, y: h * np.exp(-((x - d) ** 2 + y**2) / w**2) * (4 * (x - d) ** 2 / w**4 - 2 / w**2),
        fxy=lambda x, y: 4 * (x - d) * y / w**4 * h * np.exp(-((x - d) ** 2 + y**2) / w**2),
        fyy=lambda x, y: h * np.exp(-((x - d) ** 2 + y**2) / w**2) * (4 * y**2 / w**4 - 2 / w**2),
    )
    with pytest.warns(RuntimeWarning, match="conjugate point"):
        chart = geodesic_fan(surf, theta_samples=64, s_max=8.0, tol=1e-9)
    assert chart.truncated
    assert chart.s_max < 8.0


def test_fan_grid_evaluates_second_derivatives_only_for_the_fields_read():
    # rho_m reads k1 and k2, the flatness verdict K and M: one evaluation of
    # the second derivatives per grid, none for the grad M stencil; a
    # total_gauss read takes only dr_ds from the ODE solution
    surf = graph_surface("monkey-saddle")
    fxx_calls = []
    counted = dataclasses.replace(surf, fxx=lambda x, y: fxx_calls.append(1) or surf.fxx(x, y))
    chart = geodesic_fan(counted, theta_samples=64, s_max=10.0)
    grid, grids = chart.grid, []
    chart.grid = lambda *args, **kw: grids.append(1) or grid(*args, **kw)
    for read in (rho_m, asymptotic_flatness_verdict):
        fxx_calls.clear()
        grids.clear()
        read(chart)
        assert grids and len(fxx_calls) == len(grids), read.__name__
    fxx_calls.clear()
    total_gauss(chart, [2.0, 4.0, 8.0])
    assert fxx_calls == []

