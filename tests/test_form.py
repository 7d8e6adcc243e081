import dataclasses

import numpy as np
import pytest

from layerspec.catalog import build_chart
from layerspec.layer import LayerSpec, c_bounds
from layerspec.numkernel import gauss_legendre
from layerspec.surface import hypotheses_report
from layerspec.varform import (
    RadialBump,
    RadialFactor,
    TrialFunction,
    bilinear_shifted,
    bump_mean_curvature_pairing,
    combine,
    default_bump,
    deformed_trial,
    evaluate_form,
    gj_trial,
    mixed_term,
    surface_pairing,
    symmetric_log_trial,
    thin_trial,
)
from layerspec.varform import form
from layerspec.varform.trials import SectorBump, SeparableTerm, _radial_term


def gaussian_radial(center, width, s_hi):
    g = lambda s: np.exp(-((np.asarray(s, dtype=float) - center) / width) ** 2)
    dg = lambda s: -2.0 * (np.asarray(s, dtype=float) - center) / width**2 * g(s)
    return RadialFactor(value=g, derivative=dg, support=(0.0, s_hi), breakpoints=())


def radial_trial(radial):
    return TrialFunction(
        terms=(_radial_term(radial),),
        support=radial.support, s_breakpoints=radial.breakpoints,
        radial=radial,
    )


@pytest.fixture(scope="module")
def plane_layer():
    return LayerSpec(build_chart("plane", {"s_max": 400.0}), a=0.5)


@pytest.fixture(scope="module")
def hyperboloid_layer():
    return LayerSpec(build_chart("hyperboloid", {"s_max": 3000.0}), a=0.3)


@pytest.fixture(scope="module")
def paraboloid_layer():
    return LayerSpec(
        build_chart("elliptic-paraboloid", {"s_max": 3000.0, "theta_samples": 192}), a=0.05
    )


def test_flat_layer_dimensional_reduction(plane_layer):
    # Q~ for phi(s) chi1(u) on the flat layer is 2 pi int phi'^2 s ds
    radial = gaussian_radial(4.0, 1.0, 14.0)
    fe = evaluate_form(plane_layer, radial_trial(radial))
    quad = gauss_legendre(40, np.linspace(0.0, 14.0, 15))
    oracle = 2.0 * np.pi * quad.integrate(lambda s: radial.derivative(s) ** 2 * s)
    assert fe.q_tilde == pytest.approx(oracle, rel=1e-8)
    assert fe.q_tilde > 0


def test_flat_layer_transverse_shift_vanishes(plane_layer):
    radial = gaussian_radial(6.0, 2.0, 20.0)
    fe = evaluate_form(plane_layer, radial_trial(radial))
    assert abs(fe.q_tilde - fe.q1) <= 1e-12 * max(1.0, fe.q1)


def relative_gap(lhs, rhs, scale):
    return abs(lhs - rhs) / max(abs(rhs), 1e-8 * scale)


@pytest.mark.parametrize("layer_name", ["plane", "hyperboloid", "paraboloid"])
def test_transverse_identity_three_profiles(layer_name, plane_layer, hyperboloid_layer, paraboloid_layer):
    # Q2[phi chi1] - kappa1^2 |phi chi1|^2 = (phi, K phi)_g for any radial phi
    layer = {"plane": plane_layer, "hyperboloid": hyperboloid_layer, "paraboloid": paraboloid_layer}[layer_name]
    profiles = [
        gj_trial(layer, s0=5.0, sigma=0.05).radial,
        gj_trial(layer, s0=2.0, sigma=0.1).radial,
        gaussian_radial(5.0, 2.0, 25.0),
    ]
    for radial in profiles:
        fe = evaluate_form(layer, radial_trial(radial))
        lhs = fe.q_tilde - fe.q1
        rhs = surface_pairing(layer, radial, lambda g: g.K)
        assert relative_gap(lhs, rhs, fe.kappa1_sq * fe.norm_sq) <= 1e-5


def test_thin_layer_transverse_identity(hyperboloid_layer):
    layer = hyperboloid_layer
    trial = thin_trial(layer, sigma=0.05, s0=5.0)
    fe = evaluate_form(layer, trial)
    lhs = fe.q_tilde - fe.q1
    coef = (np.pi**2 - 6.0) / (3.0 * layer.kappa1_sq)
    rhs = surface_pairing(layer, trial.radial, lambda g: g.K - g.M**2) + coef * surface_pairing(
        layer, trial.radial, lambda g: g.K * g.M**2
    )
    assert relative_gap(lhs, rhs, fe.kappa1_sq * fe.norm_sq) <= 1e-5


def test_thin_identity_negative_for_bowl(paraboloid_layer):
    # (phi, (K - M^2) phi)_g is strictly negative once the plateau is wide
    trial = thin_trial(paraboloid_layer, sigma=0.1, s0=1.0)
    val = surface_pairing(paraboloid_layer, trial.radial, lambda g: g.K - g.M**2)
    assert val < -1.0


def test_mixed_term_matches_pairing(hyperboloid_layer):
    bump = RadialBump(1.0, 2.0)
    value = mixed_term(hyperboloid_layer, sigma=0.05, s0=4.0, bump=bump)
    oracle = -bump_mean_curvature_pairing(hyperboloid_layer, bump)
    assert value == pytest.approx(oracle, rel=1e-4)
    # sigma-independence: the plateau covers the bump, so the cross terms
    # cannot see the scaling at all
    value2 = mixed_term(hyperboloid_layer, sigma=0.01, s0=4.0, bump=bump)
    assert abs(value - value2) <= 1e-6 * abs(oracle)


def test_mixed_term_sector_bump_on_saddle():
    layer = LayerSpec(
        build_chart("hyperbolic-paraboloid", {"s_max": 400.0, "theta_samples": 512}), a=0.1
    )
    from layerspec.varform import default_bump

    bump = default_bump(layer, 4.0)
    value = mixed_term(layer, sigma=0.05, s0=4.0, bump=bump)
    oracle = -bump_mean_curvature_pairing(layer, bump)
    assert abs(oracle) > 1e-3  # the sector pins a sign, pairing is non-degenerate
    assert value == pytest.approx(oracle, rel=1e-4)

    # a plain radial bump pairs to zero against the theta-odd mean curvature
    radial = RadialBump(1.0, 2.0)
    assert abs(bump_mean_curvature_pairing(layer, radial)) <= 1e-10
    assert abs(mixed_term(layer, sigma=0.05, s0=4.0, bump=radial)) <= 1e-8


def test_axisymmetric_form_reads_one_ray(hyperboloid_layer, form_reads):
    # the integrand is one column, read at the form's stride and no other
    evaluate_form(hyperboloid_layer, gj_trial(hyperboloid_layer, s0=5.0, sigma=0.1))
    evaluate_form(hyperboloid_layer, thin_trial(hyperboloid_layer, sigma=0.1, s0=5.0))
    assert form_reads and set(form_reads) == {(1, 1)}


def _materialized(trial):
    """The trial with every term's fields copied out to the grid's full ring."""
    def full(term):
        def surface_eval(grid):
            ring = (grid.s.size, grid.theta.size)
            return tuple(np.broadcast_to(a, ring).copy() for a in term.surface_eval(grid))
        return SeparableTerm(surface_eval=surface_eval, u_profile=term.u_profile)
    return dataclasses.replace(trial, terms=tuple(full(t) for t in trial.terms))


def _hex_fields(fe):
    return [float(v).hex() for v in dataclasses.astuple(fe)]


def test_radial_columns_give_the_materialized_form_bitwise(hyperboloid_layer, materialized,
                                                           form_reads):
    # the full-ring route copied every theta-independent chart field and
    # radial factor around the ring, and read an axisymmetric integrand on
    # its theta = 0 ray; the column route reads the same numbers off the
    # array widths alone
    hyp = hyperboloid_layer
    fan = LayerSpec(build_chart("monkey-saddle", {"s_max": 40.0, "theta_samples": 64}), a=0.1)
    sector = SectorBump(1.0, 2.0, center=0.0, width=np.pi / 4.0)
    cases = [
        (hyp, gj_trial(hyp, s0=5.0, sigma=0.1), True),
        (hyp, thin_trial(hyp, sigma=0.1, s0=5.0), True),
        (hyp, symmetric_log_trial(hyp, 3, 0.5), True),
        (hyp, deformed_trial(hyp, sigma=0.1, s0=5.0, eps=0.5, bump=RadialBump(1.0, 2.0)), True),
        # a theta-dependent bump puts a revolution chart's form on its ring
        (hyp, deformed_trial(hyp, sigma=0.1, s0=5.0, eps=0.5, bump=sector), False),
        (fan, gj_trial(fan, s0=2.0, sigma=1.0), False),
        (fan, thin_trial(fan, sigma=1.0, s0=2.0), False),
    ]
    for layer, trial, axisymmetric in cases:
        grid = layer.chart.grid(np.array([1.5, 3.0]), stride=8)
        assert [a.shape for a in trial.terms[0].surface_eval(grid)] == [(2, 1)] * 3
        ring = LayerSpec(materialized(layer.chart, one_ray=axisymmetric), a=layer.a)
        form_reads.clear()
        fe = evaluate_form(layer, trial)
        reads = set(form_reads)
        assert _hex_fields(fe) == _hex_fields(evaluate_form(ring, _materialized(trial)))
        stride = layer.chart.theta_stride_for(form._THETA_RAYS)
        rays = layer.chart.theta_nodes[::stride].size
        # every read is at the form's stride (its half ring is every other
        # column of the same read, never a read at twice the stride)
        assert reads == {(stride, 1 if axisymmetric else rays)}


@pytest.mark.parametrize("name, s0, sigma",
                         [("monkey-saddle", 5.0, 0.1), ("hyperbolic-paraboloid", 2.0, 0.5)])
def test_fan_form_error_covers_the_full_ring(monkeypatch, name, s0, sigma):
    # the form reads 192 of the fan's 768 rays and checks them against 96;
    # the reference reads all 768 with its panels converged to 1e-11
    layer = LayerSpec(build_chart(name, {"s_max": 40.0, "theta_samples": 768}), a=0.1)
    assert layer.chart.theta_stride_for(form._THETA_RAYS) > 1
    trial = gj_trial(layer, s0=s0, sigma=sigma)
    fe = evaluate_form(layer, trial)
    with monkeypatch.context() as m:
        m.setattr(form, "_THETA_RAYS", layer.chart.theta_nodes.size)
        m.setattr(form, "_PANEL_REL_TOL", 1e-11)
        ref = evaluate_form(layer, trial)
    assert abs(fe.q_tilde - ref.q_tilde) <= fe.error
    assert abs(fe.norm_sq - ref.norm_sq) <= fe.norm_error


def test_default_bump_on_a_revolution_chart_falls_back_to_a_radial_bump(plane_layer):
    # the plane's mean curvature is one-signed on no annulus, so every
    # annulus and then every sector of the (column) grids is rejected
    assert default_bump(plane_layer, 4.0) == RadialBump(2.0, 3.0)


def test_mixed_term_planar_layer_vanishes(plane_layer):
    assert abs(mixed_term(plane_layer, sigma=0.05, s0=4.0, bump=RadialBump(1.0, 2.0))) <= 1e-10


def test_quadratic_scaling(hyperboloid_layer):
    trial = gj_trial(hyperboloid_layer, s0=5.0, sigma=0.05)
    fe1 = evaluate_form(hyperboloid_layer, trial)
    fe2 = evaluate_form(hyperboloid_layer, combine(trial, trial, 3.0, 0.0))
    assert fe2.q_tilde == pytest.approx(9.0 * fe1.q_tilde, rel=1e-12)
    assert fe2.norm_sq == pytest.approx(9.0 * fe1.norm_sq, rel=1e-12)


def test_polarization_symmetry(hyperboloid_layer):
    t1 = gj_trial(hyperboloid_layer, s0=4.0, sigma=0.05)
    t2 = gj_trial(hyperboloid_layer, s0=2.0, sigma=0.08)
    v12, e12 = bilinear_shifted(hyperboloid_layer, t1, t2)
    v21, e21 = bilinear_shifted(hyperboloid_layer, t2, t1)
    assert v12 == pytest.approx(v21, abs=max(1e-12, e12 + e21))


def test_longitudinal_bound_via_growth_constant(hyperboloid_layer):
    # Q1[phi chi1] <= (C+/C-)^2 C int phi'^2 s ds
    layer = hyperboloid_layer
    rep = hypotheses_report(layer.chart, [12.0, 24.0, 48.0, 96.0, 190.0])
    cm, cp = c_bounds(layer)
    c1 = (cp / cm) ** 2 * rep.growth_constant
    for sigma, s0 in [(0.05, 5.0), (0.1, 2.0)]:
        trial = gj_trial(layer, s0=s0, sigma=sigma)
        fe = evaluate_form(layer, trial)
        quad = gauss_legendre(24, np.geomspace(s0, trial.support[1], 40))
        weighted = quad.integrate(lambda s: trial.radial.derivative(s) ** 2 * s)
        assert fe.q1 <= c1 * weighted * (1 + 1e-9)


def _refined_form(monkeypatch, layer, trial):
    """evaluate_form with 28 Gauss points per radial panel and 40 across the width."""
    with monkeypatch.context() as m:
        m.setattr(form, "_S_POINTS", 28)
        m.setattr(form, "_U_POINTS", 40)
        return evaluate_form(layer, trial)


def test_certificate_stability_under_refinement(monkeypatch, hyperboloid_layer):
    from layerspec.varform import epsilon_choice

    big = LayerSpec(build_chart("hyperboloid", {"s_max": 2.0e7}), a=0.3)
    eps = epsilon_choice(big, 256)
    trial = symmetric_log_trial(big, 256, eps)
    fe = evaluate_form(big, trial)
    assert fe.q_tilde + fe.error < 0
    fe_fine = _refined_form(monkeypatch, big, trial)
    assert fe_fine.q_tilde + fe_fine.error < 0
    assert fe_fine.q_tilde == pytest.approx(fe.q_tilde, abs=5 * (fe.error + fe_fine.error))


def test_norm_error_covers_refined_evaluation(monkeypatch, hyperboloid_layer):
    # |Psi|^2 is an adaptive Gauss sum, not an exact number: its bar must
    # cover a refined evaluation, on a revolution chart and on a fan
    saddle = LayerSpec(build_chart("monkey-saddle", {"s_max": 400.0, "theta_samples": 512}), a=0.1)
    for layer in (hyperboloid_layer, saddle):
        trial = gj_trial(layer, s0=5.0, sigma=0.1)
        fe = evaluate_form(layer, trial)
        fine = _refined_form(monkeypatch, layer, trial)
        assert 0.0 < fe.norm_error <= 1e-4 * fe.norm_sq
        assert abs(fine.norm_sq - fe.norm_sq) <= fe.norm_error


def test_transverse_identity_on_remaining_catalog_layers():
    # the identity is chart-agnostic: check it where the chart has a
    # coefficient kink (capped cylinder) and where the fan is distorted
    cases = [
        ("capped-cylinder", {"R": 1.0, "s_max": 30.0}, 0.3, dict(s0=3.0, sigma=0.45)),
        ("sine-meridian", {"s_max": 60.0}, 0.1, dict(s0=2.0, sigma=0.45)),
        ("hyperbolic-paraboloid", {"s_max": 400.0, "theta_samples": 512}, 0.1,
         dict(s0=4.0, sigma=0.1)),
        ("monkey-saddle", {"s_max": 400.0, "theta_samples": 512}, 0.1,
         dict(s0=4.0, sigma=0.1)),
    ]
    gaps = {}
    for name, params, a, gj_kw in cases:
        layer = LayerSpec(build_chart(name, params), a=a)
        trial = gj_trial(layer, **gj_kw)
        assert trial.support[1] <= layer.chart.s_max, name
        fe = evaluate_form(layer, radial_trial(trial.radial))
        lhs = fe.q_tilde - fe.q1
        rhs = surface_pairing(layer, trial.radial, lambda g: g.K)
        gaps[name] = relative_gap(lhs, rhs, fe.kappa1_sq * fe.norm_sq)
    failed = {name: gap for name, gap in gaps.items() if not gap <= 1e-5}
    assert not failed, failed


def test_form_error_covers_converged_pairing_on_sine_meridian():
    # k_s = sin(s^2)/s^2 oscillates with period ~pi/s far out; the form's
    # error bar must cover its distance to the Gauss pairing converged on
    # uniform 0.125-wide panels
    layer = LayerSpec(build_chart("sine-meridian", {"s_max": 60.0}), a=0.1)
    trial = gj_trial(layer, s0=2.0, sigma=0.45)
    lo, hi = trial.radial.support
    panels = np.union1d(np.linspace(lo, hi, int(np.ceil((hi - lo) / 0.125)) + 1), trial.radial.breakpoints)
    quad = gauss_legendre(20, panels)
    g = layer.chart.grid(quad.nodes)
    reference = quad.integrate_samples(2 * np.pi * g.K[:, 0] * g.r[:, 0] * trial.radial.value(quad.nodes) ** 2)
    fe = evaluate_form(layer, radial_trial(trial.radial))
    assert abs(fe.q_tilde - fe.q1 - reference) <= fe.error
    assert fe.error <= 1e-5 * abs(reference)


def test_q1_nonnegative_everywhere():
    for name, params, a in [
        ("plane", {"s_max": 400.0}, 0.3),
        ("hyperboloid", {"s_max": 3000.0}, 0.3),
        ("hyperbolic-paraboloid", {"s_max": 400.0, "theta_samples": 256}, 0.1),
    ]:
        layer = LayerSpec(build_chart(name, params), a=a)
        fe = evaluate_form(layer, gj_trial(layer, s0=4.0, sigma=0.1))
        assert fe.q1 >= 0.0
        assert fe.norm_sq > 0.0
        assert np.isfinite(fe.q_tilde)


def test_symmetry_tail_surplus_ratio_decreases():
    # the log-family surplus |phi/s|^2 / (phi, M phi/s)^2 must shrink along
    # the sweep for the family to reach the -2 limit
    from layerspec.varform import RadialFactor, log_pairing
    from layerspec.varform.trials import _log_ramp

    layer = LayerSpec(build_chart("hyperboloid", {"s_max": 5.6e5}), a=0.3)
    ratios = []
    for n in (10, 20, 40, 80):
        (b1, b2, b3), value, _ = _log_ramp(n)
        phi_over_s = RadialFactor(
            value=lambda s, v=value: v(s) / np.where(np.asarray(s) > 0, s, 1.0),
            derivative=lambda s: None, support=(b1, b3), breakpoints=(b2,),
        )
        norm_sq = surface_pairing(layer, phi_over_s, lambda g: np.ones_like(g.K))
        pairing = log_pairing(layer, n)
        ratios.append(norm_sq / pairing**2)
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_metric_determinant_identity_on_fans():
    # det of the assembled surface block equals (r f)^2, the closed form
    rng = np.random.default_rng(31)
    from layerspec.layer import layer_metric

    worst = {}
    for name, params, a in [
        ("monkey-saddle", {"s_max": 40.0, "theta_samples": 128}, 0.1),
        ("hyperboloid", {"s_max": 40.0}, 0.3),
    ]:
        layer = LayerSpec(build_chart(name, params), a=a)
        worst[name] = 0.0
        for _ in range(50):
            s = rng.uniform(0.1, 35.0)
            th = rng.uniform(0, 2 * np.pi)
            u = rng.uniform(-a, a)
            m = layer_metric(layer, s, th, u)
            det = m.G11 * m.G22 - m.G12**2
            closed = (m.sqrt_g * m.det_factor) ** 2
            worst[name] = max(worst[name], abs(det - closed) / max(1.0, closed))
    failed = {name: res for name, res in worst.items() if not res <= 1e-12}
    assert not failed, failed
