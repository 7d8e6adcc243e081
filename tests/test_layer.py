import tracemalloc

import numpy as np
import pytest

from layerspec import layer
from layerspec.catalog import build_chart
from layerspec.errors import HypothesisViolationError, InvalidInputError
from layerspec.layer import (
    LayerSpec,
    c_bounds,
    check_mode_orthonormality,
    det_factor,
    layer_metric,
    rho_m,
    _rho_radii,
)
from layerspec.numkernel import gauss_legendre, panelize
from layerspec.surface import (
    MeridianSpec,
    RevolutionChart,
    asymptotic_flatness_verdict,
    hypotheses_report,
    revolution_from_meridian,
)
from layerspec.surface import hypotheses, ring_integral, totals
from layerspec.surface.charts import READ_POINTS
from layerspec.varform import evaluate_form, form
from layerspec.varform.trials import gj_trial


def unit_sphere_chart(s_max=2.8):
    prof = revolution_from_meridian(
        MeridianSpec(k_s=lambda s: 1.0 + 0.0 * np.asarray(s), s_max=s_max)
    )
    return RevolutionChart(prof)


def test_rho_m_plane_is_infinite():
    assert rho_m(build_chart("plane", {"s_max": 50.0})) == np.inf


def test_rho_m_unit_sphere():
    assert rho_m(unit_sphere_chart()) == pytest.approx(1.0 / 1.05, rel=1e-6)


def test_rho_m_hyperbolic_paraboloid():
    chart = build_chart("hyperbolic-paraboloid", {"s_max": 40.0, "theta_samples": 128})
    # sup |k| = 2, attained at the origin
    assert rho_m(chart) == pytest.approx(0.5, rel=0.05)


@pytest.fixture(scope="module")
def fan():
    # the certify fan's read: 768 rays at stride 2, 10 reads of 40 radii
    return build_chart("monkey-saddle", {"s_max": 40.0, "theta_samples": 1536})


def _whole_read(chart):
    """One chart.grid read of every sample radius of rho_m."""
    return chart.grid(_rho_radii(chart), stride=chart.theta_stride_for(512))


_RHO_CHARTS = {
    "hyperbolic-paraboloid": lambda: build_chart(
        "hyperbolic-paraboloid", {"s_max": 40.0, "theta_samples": 128}),
    "hyperboloid": lambda: build_chart("hyperboloid", {"s_max": 40.0}),
    "sphere": unit_sphere_chart,
}


@pytest.mark.parametrize("name", ["fan", *_RHO_CHARTS])
def test_rho_m_is_the_supremum_of_one_whole_read(fan, name):
    chart = fan if name == "fan" else _RHO_CHARTS[name]()
    g = _whole_read(chart)
    assert rho_m(chart) == 1.0 / (1.05 * float(np.max(np.maximum(np.abs(g.k1), np.abs(g.k2)))))


def _annulus_sups(chart, edges, samples, stride):
    """sup|K| and sup|M| of each annulus from one read of it, and all the annuli's radii."""
    radii = [np.linspace(lo, hi, samples) for lo, hi in zip(edges[:-1], edges[1:])]
    sups = []
    for s in radii:
        g = chart.grid(s, stride=stride)
        sups.append((np.abs(g.K).max(), np.abs(g.M).max()))
    return *np.array(sups).T, np.concatenate(radii)


def _read_rho_m(chart):
    g = _whole_read(chart)
    oracle = 1.0 / (1.05 * float(np.max(np.maximum(np.abs(g.k1), np.abs(g.k2)))))
    return rho_m(chart), oracle, _rho_radii(chart)


def _read_flatness(chart):
    edges = chart.s_max * np.array(hypotheses._FLATNESS_EDGES)
    sup_K, sup_M, radii = _annulus_sups(chart, edges, hypotheses._FLATNESS_SAMPLES,
                                        chart.theta_stride_for(256))
    return asymptotic_flatness_verdict(chart), hypotheses._sigma0_verdict(sup_K, sup_M)[0], radii


def _read_report(chart):
    rep = hypotheses_report(chart, chart.s_max * np.array([0.06, 0.12, 0.24, 0.48, 0.96]))
    r = rep.annuli
    # the disk inside the first annulus is read for K's sign only
    sup_K, sup_M, radii = _annulus_sups(chart, np.r_[0.0, r[0] / 2, r], hypotheses._REPORT_SAMPLES, 1)
    nodes = gauss_legendre(8, panelize(r[0] * 1e-3, r[-1], first=r[0] / 4)).nodes
    growth = 1.05 * float(np.max(chart.grid(nodes).r.mean(axis=1) * 2.0 * np.pi / nodes))
    # then the |grad M|^2 ring's resolution read at the annuli kept
    return ((list(rep.sigma0_sup_K), list(rep.sigma0_sup_M), rep.growth_constant),
            (list(1.05 * sup_K[1:]), list(1.05 * sup_M[1:]), growth),
            np.concatenate([radii, r, nodes]))


def _whole_reads(module, run):
    """run() with every read_rings call of ``module`` one whole chart.grid read,
    and the radii those reads took, in order."""
    radii = []

    def whole(chart, s, reduce, stride=1):
        radii.append(s)
        return reduce(chart.grid(s, stride=stride))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "read_rings", whole)
        value = run()
    return value, np.concatenate(radii)


def _read_ring_integral(chart):
    # |grad M|^2 on the full ring, several blocks to a density call; the
    # block cuts change no bit (see
    # test_ring_integral_blocks_agree_with_one_whole_read_bitwise)
    run = lambda: ring_integral(chart, lambda g: g.grad_M_sq, panelize(2.0, chart.s_max, first=2.0),
                                stride=1).value.tolist()
    oracle, radii = _whole_reads(totals, run)
    return run(), oracle, radii


def _read_form(chart):
    fan_layer = LayerSpec(chart, a=0.1)
    trial = gj_trial(fan_layer, s0=5.0, sigma=0.1)
    run = lambda: evaluate_form(fan_layer, trial)
    oracle, radii = _whole_reads(form, run)
    return run(), oracle, radii


@pytest.mark.parametrize("read, modules", [
    (_read_rho_m, (layer,)), (_read_flatness, (hypotheses,)), (_read_report, (hypotheses,)),
    (_read_ring_integral, (totals,)), (_read_form, (form,)),
], ids=["rho_m", "flatness", "report", "ring_integral", "evaluate_form"])
def test_ring_readers_read_each_radius_once_within_the_points_budget(fan, chart_reads, read,
                                                                     modules):
    # each reader's result equals the oracle's whole reads: one of rho_m's
    # radii, one per sigma0 annulus, one of the growth constant's Gauss nodes,
    # one per density call of an adaptive sweep
    reads = chart_reads(fan, *modules)
    result, oracle, radii = read(fan)
    assert len(reads) > 1
    assert max(s.size * rays for s, rays in reads) <= READ_POINTS
    assert np.array_equal(np.concatenate([s for s, _ in reads]), radii)
    assert result == oracle


def test_rho_m_reads_a_revolution_chart_once(chart_reads):
    chart = build_chart("hyperboloid", {"s_max": 40.0})
    reads = chart_reads(chart, layer)
    rho_m(chart)
    assert len(reads) == 1
    assert np.array_equal(reads[0][0], _rho_radii(chart))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rho_m_peak_memory_is_a_fraction_of_one_whole_read(fan):
    def whole():
        g = _whole_read(fan)
        g.k1, g.k2

    rho_m(fan)  # any first-read set-up is paid before measuring
    # numpy reports its buffers to tracemalloc: measured ratio 0.11
    assert _traced_peak(lambda: rho_m(fan)) <= 0.25 * _traced_peak(whole)


def test_omega1_enforced_with_force_escape():
    chart = unit_sphere_chart()
    with pytest.raises(HypothesisViolationError):
        LayerSpec(chart, a=0.97)
    layer = LayerSpec(chart, a=0.97, force=True)
    assert not layer.omega1_ok


def test_det_factor_values():
    chart = unit_sphere_chart()
    layer = LayerSpec(chart, a=0.3)
    assert det_factor(layer, 1.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    for u in (-0.25, 0.1, 0.3):
        assert det_factor(layer, 1.2, 0.5, u) == pytest.approx((1 - u) ** 2, rel=1e-9)


def test_det_factor_factored_form_on_catalog_samples():
    rng = np.random.default_rng(11)
    for name, params in [
        ("hyperboloid", {"s_max": 40.0}),
        ("hyperbolic-paraboloid", {"s_max": 40.0, "theta_samples": 128}),
    ]:
        chart = build_chart(name, params)
        layer = LayerSpec(chart, a=0.1)
        g = chart.grid(np.sort(rng.uniform(0.3, 30.0, size=12)))
        for _ in range(30):
            i = rng.integers(0, g.s.size)
            j = rng.integers(0, g.M.shape[1])  # a revolution chart's fields are columns
            u = rng.uniform(-layer.a, layer.a)
            f = 1 - 2 * g.M[i, j] * u + g.K[i, j] * u**2
            factored = (1 - u * g.k1[i, j]) * (1 - u * g.k2[i, j])
            assert abs(f - factored) <= 1e-12


def test_layer_metric_plane_and_revolution():
    plane = LayerSpec(build_chart("plane", {"s_max": 20.0}), a=0.5)
    m = layer_metric(plane, 3.0, 1.0, 0.37)
    assert (m.G11, m.G12, m.G22) == (pytest.approx(1.0), pytest.approx(0.0), pytest.approx(9.0))
    assert m.G33 == 1.0 and m.det_factor == pytest.approx(1.0)

    sphere = LayerSpec(unit_sphere_chart(), a=0.3)
    s, u = 1.1, 0.21
    m = layer_metric(sphere, s, 0.0, u)
    ps = sphere.chart.profile.eval(np.array([s]))
    # explicit matrix product (I - u h)(I - u h) g with h = diag(k_s, k_th)
    G11 = (1 - u * ps.k_s[0]) ** 2
    G22 = (1 - u * ps.k_theta[0]) ** 2 * ps.r[0] ** 2
    assert m.G11 == pytest.approx(G11, abs=1e-12)
    assert m.G22 == pytest.approx(G22, abs=1e-12)
    assert m.sqrt_G == pytest.approx(ps.r[0] * m.det_factor, abs=1e-12)


def test_c_bounds_formula_and_sandwich():
    sphere_chart = unit_sphere_chart()
    rho = rho_m(sphere_chart)
    layer = LayerSpec(sphere_chart, a=rho / 2)
    cm, cp = c_bounds(layer)
    assert cm == pytest.approx(0.25, rel=1e-12)
    assert cp == pytest.approx(2.25, rel=1e-12)

    # pointwise sandwich on random samples: eigenvalues of g^{-1} G in [C-, C+]
    rng = np.random.default_rng(5)
    chart = build_chart("hyperboloid", {"s_max": 40.0})
    layer = LayerSpec(chart, a=0.3)
    cm, cp = c_bounds(layer)
    for _ in range(1000):
        s = rng.uniform(0.05, 39.0)
        u = rng.uniform(-layer.a, layer.a)
        m = layer_metric(layer, s, 0.0, u)
        r2 = m.sqrt_g**2
        eigs = np.array([m.G11, m.G22 / r2])
        assert np.all(eigs >= cm - 1e-10)
        assert np.all(eigs <= cp + 1e-10)


def test_transverse_modes():
    layer = LayerSpec(build_chart("plane", {"s_max": 10.0}), a=0.5)  # d = 1
    chi1 = layer.transverse_mode(1)
    assert chi1.kappa == pytest.approx(np.pi)
    assert chi1(0.0) == pytest.approx(np.sqrt(2.0))
    for n in range(1, 6):
        chi = layer.transverse_mode(n)
        assert abs(chi(layer.a)) <= 1e-14
        assert abs(chi(-layer.a)) <= 1e-14
    gram = check_mode_orthonormality(layer)
    assert np.max(np.abs(gram - np.eye(5))) <= 1e-12


def test_threshold_scaling():
    chart = build_chart("plane", {"s_max": 10.0})
    l1 = LayerSpec(chart, a=0.25)
    l2 = LayerSpec(chart, a=0.5)
    assert l1.kappa1_sq == 4.0 * l2.kappa1_sq


def test_det_factor_positivity_under_omega1():
    rng = np.random.default_rng(9)
    for name, params, a in [
        ("hyperboloid", {"s_max": 40.0}, 0.3),
        ("hyperbolic-paraboloid", {"s_max": 40.0, "theta_samples": 128}, 0.1),
    ]:
        layer = LayerSpec(build_chart(name, params), a=a)
        cm, _ = c_bounds(layer)
        g = layer.chart.grid(np.sort(rng.uniform(0.05, 39.0, size=40)))
        u = rng.uniform(-a, a, size=(1, 1, 17))
        f = 1 - 2 * g.M[..., None] * u + g.K[..., None] * u**2
        assert f.min() >= cm - 1e-10


def test_nonpositivity_of_k_minus_m_sq():
    for name, params in [
        ("hyperboloid", {"s_max": 40.0}),
        ("monkey-saddle", {"s_max": 40.0, "theta_samples": 128}),
        ("elliptic-paraboloid", {"s_max": 40.0, "theta_samples": 64}),
    ]:
        chart = build_chart(name, params)
        g = chart.grid(np.linspace(0.05, 39.0, 60))
        assert np.max(g.K - g.M**2) <= 1e-12


def test_invalid_inputs():
    chart = build_chart("plane", {"s_max": 10.0})
    with pytest.raises(InvalidInputError):
        LayerSpec(chart, a=0.0)
    layer = LayerSpec(chart, a=0.5)
    with pytest.raises(InvalidInputError):
        layer.transverse_mode(0)
    with pytest.raises(InvalidInputError):
        layer_metric(layer, 1.0, 0.0, 0.9)


def test_collision_scan_heuristic():
    from layerspec.layer import collision_scan
    from layerspec.surface import GraphSurface, geodesic_fan

    for name, params, a in [
        ("plane", {"s_max": 50.0}, 0.3),
        ("hyperboloid", {"s_max": 50.0}, 0.3),
    ]:
        layer = LayerSpec(build_chart(name, params), a=a)
        assert collision_scan(layer).result == "no collision detected", name

    # deep funnel: with a thick (forced) layer the opposite walls fold
    # through the axis and the sampled points betray it
    h, w = 6.0, 1.0
    e = lambda x, y: np.exp(-(x**2 + y**2) / w**2)
    funnel = GraphSurface(
        f=lambda x, y: -h * e(x, y),
        fx=lambda x, y: 2 * x / w**2 * h * e(x, y),
        fy=lambda x, y: 2 * y / w**2 * h * e(x, y),
        fxx=lambda x, y: h * e(x, y) * (2 / w**2 - 4 * x**2 / w**4),
        fxy=lambda x, y: -4 * x * y / w**4 * h * e(x, y),
        fyy=lambda x, y: h * e(x, y) * (2 / w**2 - 4 * y**2 / w**4),
    )
    chart = geodesic_fan(funnel, theta_samples=64, s_max=20.0, tol=1e-9)
    layer = LayerSpec(chart, a=0.4, force=True)
    assert collision_scan(layer).result == "possible self-intersection"
