"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion itself, so the
suite is both the human-readable checklist and the hard gate.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from layerspec.catalog import build_chart, catalog
from layerspec.layer import LayerSpec, c_bounds, layer_metric
from layerspec.numkernel import SparseSymmetricPair, gauss_legendre, lowest_eigenpairs
from layerspec.spectrum import (
    assemble_partial_wave,
    build_mesh,
    counterexample_full,
    solve_spectrum,
    spectrum_with_refinement,
)
from layerspec.surface import gauss_bonnet_residual, hypotheses_report, total_gauss
from layerspec.varform import (
    RadialBump,
    bump_mean_curvature_pairing,
    certify,
    derphi_integral,
    evaluate_form,
    gj_trial,
    mixed_term,
    surface_pairing,
    thin_trial,
)

TWO_PI = 2.0 * np.pi
GRAPH_SCHEDULE = np.array([2.65, 5.3, 10.6, 21.2, 42.5, 85.0, 170.0, 340.0])


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def hyperboloid_layer():
    return LayerSpec(build_chart("hyperboloid", {"s_max": 3000.0}), a=0.3)


@pytest.fixture(scope="module")
def plane_layer():
    return LayerSpec(build_chart("plane", {"s_max": 400.0}), a=0.3)


@pytest.fixture(scope="module")
def paraboloid_layer():
    return LayerSpec(
        build_chart("elliptic-paraboloid", {"s_max": 3000.0, "theta_samples": 192}), a=0.05
    )


def test_criterion_1_total_curvatures():
    targets = {
        "hyperbolic-paraboloid": (-TWO_PI, {"theta_samples": 1024}),
        "monkey-saddle": (-2 * TWO_PI, {"theta_samples": 3072}),
        "elliptic-paraboloid": (TWO_PI, {"theta_samples": 192}),
    }
    details = []
    ok = True
    for name, (target, extra) in targets.items():
        start = time.perf_counter()
        chart = build_chart(name, {"s_max": 340.0, **extra})
        est = total_gauss(chart, GRAPH_SCHEDULE)
        elapsed = time.perf_counter() - start
        rel = abs(est.value / target - 1.0)
        ok &= rel <= 0.01 and elapsed <= 30.0
        details.append(f"{name}: rel {rel:.2e} in {elapsed:.1f}s")
    report(1, ok, "; ".join(details))


def test_criterion_2_oscillating_meridian():
    chart = build_chart("sine-meridian", {"s_max": 60.0})
    target = TWO_PI * (1.0 - np.cos(np.sqrt(np.pi / 2.0)))
    est = total_gauss(chart, np.array([3.75, 7.5, 15.0, 30.0, 60.0]))
    rel = abs(est.value / target - 1.0)
    rep = hypotheses_report(chart, [3.5, 7.0, 14.0, 28.0, 56.0])
    ok = rel <= 0.01 and rep.sigma1 == "pass" and rep.sigma2 == "fail"
    report(2, ok, f"K_tot rel {rel:.2e}; sigma1={rep.sigma1} sigma2={rep.sigma2}")


def test_criterion_3_gauss_bonnet_residuals():
    cases = {
        "hyperboloid": {"s_max": 200.0},
        "sine-meridian": {"s_max": 60.0},
        "capped-cylinder": {"R": 1.0, "s_max": 30.0},
    }
    details = []
    ok = True
    for name, params in cases.items():
        residual, _ = gauss_bonnet_residual(build_chart(name, params))
        ok &= residual <= 1e-3
        details.append(f"{name}: {residual:.2e}")
    report(3, ok, "; ".join(details))


def _three_profiles(layer):
    from layerspec.varform import RadialFactor

    gauss = lambda s: np.exp(-((np.asarray(s, dtype=float) - 5.0) / 2.0) ** 2)
    dgauss = lambda s: -(np.asarray(s, dtype=float) - 5.0) * gauss(s)
    return [
        gj_trial(layer, s0=5.0, sigma=0.05).radial,
        gj_trial(layer, s0=2.0, sigma=0.1).radial,
        RadialFactor(value=gauss, derivative=dgauss, support=(0.0, 25.0), breakpoints=()),
    ]


def _radial_trial(radial):
    from layerspec.varform import TrialFunction
    from layerspec.varform.trials import _radial_term

    return TrialFunction(terms=(_radial_term(radial),),
                         support=radial.support, s_breakpoints=radial.breakpoints,
                         radial=radial)


def test_criterion_4_transverse_identity(plane_layer, hyperboloid_layer, paraboloid_layer):
    worst = 0.0
    for layer in (plane_layer, hyperboloid_layer, paraboloid_layer):
        for radial in _three_profiles(layer):
            fe = evaluate_form(layer, _radial_trial(radial))
            lhs = fe.q_tilde - fe.q1
            rhs = surface_pairing(layer, radial, lambda g: g.K)
            rel = abs(lhs - rhs) / max(abs(rhs), 1e-8 * fe.kappa1_sq * fe.norm_sq)
            worst = max(worst, rel)
    report(4, worst <= 1e-5, f"worst relative identity residual {worst:.2e}")


def test_criterion_5_thin_identity(hyperboloid_layer):
    layer = hyperboloid_layer
    trial = thin_trial(layer, sigma=0.05, s0=5.0)
    fe = evaluate_form(layer, trial)
    lhs = fe.q_tilde - fe.q1
    coef = (np.pi**2 - 6.0) / (3.0 * layer.kappa1_sq)
    rhs = surface_pairing(layer, trial.radial, lambda g: g.K - g.M**2) + coef * surface_pairing(
        layer, trial.radial, lambda g: g.K * g.M**2
    )
    rel = abs(lhs - rhs) / abs(rhs)
    report(5, rel <= 1e-5, f"thin transverse identity residual {rel:.2e}")


def test_criterion_6_mixed_term(hyperboloid_layer):
    bump = RadialBump(1.0, 2.0)
    value_a = mixed_term(hyperboloid_layer, sigma=0.05, s0=4.0, bump=bump)
    value_b = mixed_term(hyperboloid_layer, sigma=0.01, s0=4.0, bump=bump)
    oracle = -bump_mean_curvature_pairing(hyperboloid_layer, bump)
    rel = abs(value_a - oracle) / abs(oracle)
    sigma_gap = abs(value_a - value_b) / abs(oracle)
    ok = rel <= 1e-4 and sigma_gap <= 1e-6
    report(6, ok, f"identity rel {rel:.2e}; sigma-independence gap {sigma_gap:.2e}")


def test_criterion_7_derphi_scaling():
    products = [10.0 ** (-k) for k in range(2, 9)]
    scaled = [derphi_integral(s0=1.0, sigma=p) * abs(np.log(p)) for p in products]
    ratio = max(scaled) / min(scaled)
    report(7, ratio <= 3.0, f"max/min of integral * |ln(sigma s0)| = {ratio:.3f}")


def test_criterion_8_certificates():
    runs = [
        ("hyperbolic-paraboloid", {"s_max": 4000.0, "theta_samples": 1024}, 0.1, None,
         "goldstone_jaffe"),
        ("monkey-saddle", {"s_max": 4000.0, "theta_samples": 1024}, 0.1, None,
         "goldstone_jaffe"),
        ("hyperboloid", {"s_max": 1.5e8}, 0.3, ("symmetric_log",), "symmetric_log"),
        ("elliptic-paraboloid", {"s_max": 4000.0, "theta_samples": 192}, 0.05, ("thin",), "thin"),
    ]
    details = []
    ok = True
    for name, params, a, strategies, family in runs:
        start = time.perf_counter()
        layer = LayerSpec(build_chart(name, params), a=a)
        cert = certify(layer, **({"strategies": strategies} if strategies else {}))
        elapsed = time.perf_counter() - start
        good = (cert.certified and cert.family == family
                and cert.q_tilde + cert.error < 0 and cert.margin >= 3.0
                and elapsed <= 300.0)
        ok &= good
        details.append(f"{name}:{cert.family} q~={cert.q_tilde:.3g} "
                       f"margin={cert.margin:.0f} {elapsed:.0f}s")
    start = time.perf_counter()
    plane = LayerSpec(build_chart("plane", {"s_max": 400.0}), a=0.1)
    cert = certify(plane)
    elapsed = time.perf_counter() - start
    ok &= cert.verdict == "not-found" and cert.q_tilde >= 0 and elapsed <= 300.0
    details.append(f"plane:{cert.verdict} best q~={cert.q_tilde:.3g}")
    report(8, ok, "; ".join(details))


def test_criterion_9_counterexample():
    rep = counterexample_full(1.0, 0.3, S=10.0, n_s_per_R=40, n_u=32)
    in_bracket = rep.bracket[0] <= rep.eps1 <= rep.bracket[1]
    shell_rel = abs(rep.shell_ground / (np.pi / 0.6) ** 2 - 1.0)
    none_below = all(res.eigenvalues[0] >= rep.eps1_mesh - 1e-3 for res in rep.spectra)
    ok = in_bracket and shell_rel <= 1e-4 and none_below
    report(9, ok, f"eps1={rep.eps1:.4f} in [{rep.bracket[0]:.4f}, {rep.bracket[1]:.4f}]; "
                  f"shell rel {shell_rel:.1e}; no eigenvalue below eps1 across "
                  f"S={[round(r.S, 1) for r in rep.spectra]}: {none_below}")


def test_criterion_10_solver_validation(plane_layer):
    mesh = build_mesh(12.0, 0.3, n_s=600, n_u=40)
    res = solve_spectrum(assemble_partial_wave(plane_layer, 0, mesh), 1)
    target = plane_layer.kappa1_sq + (2.404825557695773 / 12.0) ** 2
    disk_rel = abs(res.eigenvalues[0] / target - 1.0)

    order = spectrum_with_refinement(plane_layer, 0, S=12.0, n_s=100, n_u=16, k=1,
                                     levels=3).order_estimate

    rng = np.random.default_rng(17)
    worst = 0.0
    for n in (80, 200):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        R = rng.standard_normal((n, n))
        B = R @ R.T + n * np.eye(n)
        pair = SparseSymmetricPair.build(sp.csr_matrix(A), sp.csr_matrix(B))
        full = sla.eigh(A, B, eigvals_only=True)
        ref = full[:4]
        # a shift just below the spectrum, at lo - 0.05 (hi - lo)
        sigma = full[0] - 0.05 * (full[-1] - full[0])
        got = [p.value for p in lowest_eigenpairs(pair, 4, shift=sigma)[0]]
        worst = max(worst, float(np.max(np.abs(np.asarray(got) / ref - 1.0))))
    ok = disk_rel <= 0.01 and 1.7 <= order <= 2.3 and worst <= 1e-10
    report(10, ok, f"disk oracle rel {disk_rel:.2e}; refinement order {order:.2f}; "
                   f"sparse-vs-dense worst rel {worst:.1e}")


def test_criterion_11_property_suites(hyperboloid_layer):
    rng = np.random.default_rng(23)
    checks = {}

    # curvature identities across the catalog
    worst_kid = 0.0
    for name, params in [
        ("hyperboloid", {"s_max": 40.0}),
        ("monkey-saddle", {"s_max": 40.0, "theta_samples": 128}),
        ("capped-cylinder", {"R": 1.0, "s_max": 25.0}),
    ]:
        g = build_chart(name, params).grid(np.linspace(0.05, 24.0, 40))
        worst_kid = max(
            worst_kid,
            float(np.max(np.abs(g.K - g.k1 * g.k2)) / (1 + np.abs(g.K).max())),
            float(np.max(np.abs(g.M - 0.5 * (g.k1 + g.k2))) / (1 + np.abs(g.M).max())),
            float(np.max(g.K - g.M**2)),
        )
    checks["curvature identities"] = worst_kid <= 1e-10

    # determinant-factor identity on random samples
    layer = hyperboloid_layer
    g = layer.chart.grid(np.sort(rng.uniform(0.1, 35.0, size=25)))
    worst_det = 0.0
    for _ in range(200):
        i = rng.integers(0, g.s.size)
        u = rng.uniform(-layer.a, layer.a)
        f = 1 - 2 * g.M[i, 0] * u + g.K[i, 0] * u**2
        worst_det = max(worst_det, abs(f - (1 - u * g.k1[i, 0]) * (1 - u * g.k2[i, 0])))
    checks["det factor identity"] = worst_det <= 1e-12

    # metric sandwich with the C bounds
    cm, cp = c_bounds(layer)
    sandwich_ok = True
    for _ in range(1000):
        s = rng.uniform(0.05, 35.0)
        u = rng.uniform(-layer.a, layer.a)
        msm = layer_metric(layer, s, 0.0, u)
        eigs = (msm.G11, msm.G22 / msm.sqrt_g**2)
        sandwich_ok &= cm - 1e-10 <= min(eigs) and max(eigs) <= cp + 1e-10
    checks["C+- sandwich"] = sandwich_ok

    # Jacobi vs |dp/dtheta| cross-check on a fan, with dp/dtheta taken
    # spectrally across the full ray ring (the chart's own dp_dtheta is
    # r e_theta, so its length is r by construction)
    fan = build_chart("hyperbolic-paraboloid", {"s_max": 40.0, "theta_samples": 1024})
    gf = fan.grid(np.linspace(0.2, 8.0, 10))
    pf, _, _ = fan.embedding(gf.s)
    k = np.fft.rfftfreq(gf.theta.size, d=1.0 / gf.theta.size) * 1j
    p_theta = np.fft.irfft(np.fft.rfft(pf, axis=1) * k[None, :, None], n=gf.theta.size, axis=1)
    rel = np.abs(np.linalg.norm(p_theta, axis=-1) / gf.r - 1.0)
    checks["jacobi cross-check"] = float(rel.max()) <= 1e-6

    # circumference growth bound at random radii with the reported constant
    reprt = hypotheses_report(layer.chart, [12.0, 24.0, 48.0, 96.0, 190.0])
    ss = np.sort(rng.uniform(1e-3, 190.0, size=1000))
    circ = TWO_PI * layer.chart.grid(ss).r.mean(axis=1)
    checks["linear growth estimate"] = bool(np.all(circ <= reprt.growth_constant * ss * (1 + 1e-12)))

    # domain monotonicity and partial-wave ordering
    lams = []
    for S in (30.0, 60.0):
        mesh = build_mesh(S, 0.3, n_s=int(10 * S), n_u=24)
        lams.append(solve_spectrum(assemble_partial_wave(layer, 0, mesh), 1).eigenvalues[0])
    mesh = build_mesh(30.0, 0.3, n_s=300, n_u=24)
    waves = [solve_spectrum(assemble_partial_wave(layer, m, mesh), 1).eigenvalues[0] for m in (0, 1, 2)]
    checks["domain monotonicity"] = lams[0] >= lams[1] - 1e-9
    checks["partial-wave ordering"] = waves[0] <= waves[1] + 1e-10 <= waves[2] + 2e-10

    failed = [name for name, good in checks.items() if not good]
    report(11, not failed, "all property suites green" if not failed else f"failed: {failed}")
