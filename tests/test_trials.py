import numpy as np
import pytest

from layerspec.catalog import build_chart
from layerspec.errors import (
    CapabilityError,
    DegeneratePairingError,
    InvalidInputError,
    TruncationError,
)
from layerspec.layer import LayerSpec
from layerspec.varform import (
    RadialBump,
    default_bump,
    deformed_trial,
    derphi_integral,
    epsilon_choice,
    gj_trial,
    log_pairing,
    symmetric_log_trial,
    thin_trial,
)


@pytest.fixture(scope="module")
def plane_layer():
    return LayerSpec(build_chart("plane", {"s_max": 400.0}), a=0.5)


@pytest.fixture(scope="module")
def hyperboloid_layer():
    return LayerSpec(build_chart("hyperboloid", {"s_max": 300000.0}), a=0.3)


def test_gj_plateau_continuity_and_decay(plane_layer):
    trial = gj_trial(plane_layer, s0=5.0, sigma=0.05)
    ss = np.linspace(0.1, 5.0, 20)
    assert np.all(trial.radial.value(ss) == 1.0)
    left = trial.radial.value(np.array([5.0 - 1e-12]))[0]
    right = trial.radial.value(np.array([5.0 + 1e-12]))[0]
    assert left == pytest.approx(right, abs=1e-9)
    tail = trial.radial.value(np.linspace(5.0, 200.0, 100))
    assert np.all(np.diff(tail) < 0)  # K0 is strictly decreasing


def test_gj_preconditions(plane_layer):
    with pytest.raises(InvalidInputError):
        gj_trial(plane_layer, s0=5.0, sigma=1.5)
    with pytest.raises(InvalidInputError):
        gj_trial(plane_layer, s0=-1.0, sigma=0.1)
    with pytest.raises(InvalidInputError):
        gj_trial(plane_layer, s0=1e-4, sigma=1e-6)


def test_derphi_monotone_in_product():
    v_small = derphi_integral(s0=1.0, sigma=1e-6)
    v_large = derphi_integral(s0=1.0, sigma=1e-3)
    assert v_small < v_large


def test_derphi_log_scaling_bounded():
    products = [10.0 ** (-k) for k in range(2, 9)]
    scaled = [derphi_integral(s0=1.0, sigma=p) * abs(np.log(p)) for p in products]
    assert max(scaled) / min(scaled) <= 3.0


def test_plateau_has_zero_derivative_mass(plane_layer):
    # the limit profile that never leaves the plateau has zero derivative:
    # its weighted derivative integral vanishes identically
    from layerspec.numkernel import gauss_legendre

    trial = gj_trial(plane_layer, s0=5.0, sigma=0.05)
    quad = gauss_legendre(20, [0.0, 2.5, 5.0])
    assert quad.integrate(lambda s: trial.radial.derivative(s) ** 2 * s) == 0.0


def test_deformed_reduces_to_gj_at_zero_eps(plane_layer):
    from layerspec.varform import evaluate_form

    base = gj_trial(plane_layer, s0=5.0, sigma=0.05)
    deformed = deformed_trial(plane_layer, sigma=0.05, s0=5.0, eps=0.0)
    fe0 = evaluate_form(plane_layer, base)
    fe1 = evaluate_form(plane_layer, deformed)
    assert fe1.q_tilde == pytest.approx(fe0.q_tilde, rel=1e-12)
    assert fe1.norm_sq == pytest.approx(fe0.norm_sq, rel=1e-12)


def test_deformation_vanishes_on_walls(plane_layer):
    chi = plane_layer.transverse_mode(1)
    for u in (-plane_layer.a, plane_layer.a):
        assert abs(u * chi(u)) <= 1e-14


def test_deformed_bump_support_validation(plane_layer):
    with pytest.raises(InvalidInputError):
        deformed_trial(plane_layer, sigma=0.05, s0=2.0, eps=0.1, bump=RadialBump(1.0, 3.0))


def test_deformed_trial_with_a_sector_bump_matches_its_combination():
    # a SectorBump depends on theta, so the deformed trial does too, also on
    # a revolution chart: both routes read the whole ring and agree within
    # their joint error
    from layerspec.varform import combine, deformation_trial, evaluate_form
    from layerspec.varform.trials import SectorBump

    layer = LayerSpec(build_chart("hyperboloid", {"s_max": 400.0}), a=0.3)
    bump = SectorBump(1.0, 2.0, center=0.0, width=np.pi / 4.0)
    trial = deformed_trial(layer, sigma=0.1, s0=5.0, eps=0.5, bump=bump)
    combined = combine(gj_trial(layer, s0=5.0, sigma=0.1),
                       deformation_trial(layer, 5.0, bump=bump), 1.0, 0.5)
    fe, ref = evaluate_form(layer, trial), evaluate_form(layer, combined)
    assert abs(fe.q_tilde - ref.q_tilde) <= fe.error + ref.error
    grid = layer.chart.grid(np.array([1.5]))
    widths = {a.shape[1] for term in trial.terms for a in term.surface_eval(grid)}
    assert max(widths) == grid.theta.size  # the sector term spans the full ring


def test_default_bump_sign_logic():
    hyp = LayerSpec(build_chart("hyperboloid", {"s_max": 50.0}), a=0.3)
    b = default_bump(hyp, 5.0)
    assert type(b).__name__ == "RadialBump"  # M single-signed on the annulus
    hp = LayerSpec(build_chart("hyperbolic-paraboloid", {"s_max": 50.0, "theta_samples": 256}), a=0.1)
    b = default_bump(hp, 4.0)
    assert type(b).__name__ == "SectorBump"  # M is theta-odd on every annulus


def test_thin_reduces_to_gj_on_plane(plane_layer):
    from layerspec.varform import evaluate_form

    base = gj_trial(plane_layer, s0=5.0, sigma=0.05)
    thin = thin_trial(plane_layer, sigma=0.05, s0=5.0)
    fe0 = evaluate_form(plane_layer, base)
    fe1 = evaluate_form(plane_layer, thin)
    assert fe1.q_tilde == pytest.approx(fe0.q_tilde, rel=1e-12, abs=1e-12)


def test_symmetric_log_support_and_closed_forms(hyperboloid_layer):
    n = 10
    trial = symmetric_log_trial(hyperboloid_layer, n, eps=0.3)
    b1, b2, b3 = trial.s_breakpoints
    assert (b1, b2, b3) == (10.0, 100.0, 1000.0)
    ss = np.array([b1 * 0.9, b1, b3, b3 * 1.01])
    assert np.all(trial.radial.value(ss) == 0.0)
    assert trial.radial.value(np.array([b2]))[0] == pytest.approx(1.0)

    # closed forms: int phi^2/s ds = ln(b3/b1)/3, and the ramp-derivative sum
    from layerspec.numkernel import gauss_legendre, panelize

    quad = gauss_legendre(24, panelize(b1, b3, breakpoints=(b2,), first=2.0))
    phi = trial.radial.value(quad.nodes)
    dphi = trial.radial.derivative(quad.nodes)
    int_phi2_over_s = quad.integrate_samples(phi**2 / quad.nodes)
    assert int_phi2_over_s == pytest.approx(np.log(100.0) / 3.0, rel=1e-12)
    assert int_phi2_over_s == pytest.approx(1.53506, abs=1e-5)
    int_dphi2_s = quad.integrate_samples(dphi**2 * quad.nodes)
    assert int_dphi2_s == pytest.approx(1.0 / np.log(b2 / b1) + 1.0 / np.log(b3 / b2), rel=1e-12)


def test_log_ramp_derivative_integral_decays(hyperboloid_layer):
    from layerspec.numkernel import gauss_legendre, panelize

    vals = []
    for n in (5, 10, 20, 40):
        b1, b2, b3 = float(n), float(n) ** 2, float(n) ** 3
        trial = symmetric_log_trial(hyperboloid_layer, n, eps=0.0)
        quad = gauss_legendre(20, panelize(b1, b3, breakpoints=(b2,), first=(b2 - b1) / 4))
        dphi = trial.radial.derivative(quad.nodes)
        vals.append(quad.integrate_samples(dphi**2 * quad.nodes))
    assert np.all(np.diff(vals) < 0)


def test_epsilon_choice_consistency_and_growth(hyperboloid_layer):
    eps10 = epsilon_choice(hyperboloid_layer, 10)
    assert eps10 == pytest.approx(1.0 / log_pairing(hyperboloid_layer, 10), rel=1e-8)
    pairings = [abs(log_pairing(hyperboloid_layer, n)) for n in (5, 10, 20, 40)]
    assert np.all(np.diff(pairings) >= 0)  # pairing grows along the sweep


def test_epsilon_choice_degenerate_on_plane(plane_layer):
    big_plane = LayerSpec(build_chart("plane", {"s_max": 1100.0}), a=0.5)
    with pytest.raises(DegeneratePairingError):
        epsilon_choice(big_plane, 10)


def test_symmetric_log_errors(plane_layer, hyperboloid_layer):
    with pytest.raises(TruncationError):
        symmetric_log_trial(LayerSpec(build_chart("hyperboloid", {"s_max": 100.0}), a=0.3), 10, eps=0.1)
    fan_layer = LayerSpec(
        build_chart("elliptic-paraboloid", {"s_max": 50.0, "theta_samples": 64}), a=0.05
    )
    with pytest.raises(CapabilityError):
        symmetric_log_trial(fan_layer, 3, eps=0.1)
    with pytest.raises(InvalidInputError):
        symmetric_log_trial(hyperboloid_layer, 1, eps=0.1)
