import numpy as np
import pytest
from scipy.special import fresnel

from layerspec.catalog import build_chart
from layerspec.errors import IntegrationFailureError, InvalidSurfaceError
from layerspec.surface import (
    MeridianSpec,
    profile_from_height,
    revolution_from_meridian,
)

SQRT_HALF_PI = float(np.sqrt(np.pi / 2.0))


def test_zero_meridian_is_plane():
    prof = revolution_from_meridian(MeridianSpec(k_s=lambda s: 0.0 * np.asarray(s), s_max=10.0))
    ss = np.linspace(0.1, 10.0, 25)
    ps = prof.eval(ss)
    assert np.max(np.abs(ps.r - ss)) <= 1e-12
    assert np.max(np.abs(ps.z)) <= 1e-12


def test_constant_meridian_is_sphere():
    R = 2.0
    prof = revolution_from_meridian(
        MeridianSpec(k_s=lambda s: 1.0 / R + 0.0 * np.asarray(s), s_max=0.9 * np.pi * R)
    )
    ss = np.linspace(0.05, 0.9 * np.pi * R, 40)
    ps = prof.eval(ss)
    assert np.max(np.abs(ps.r - R * np.sin(ss / R))) <= 5e-9
    at = prof.eval(1.3)
    assert at.k_s[0] == pytest.approx(1.0 / R, rel=1e-9)
    assert at.k_theta[0] == pytest.approx(1.0 / R, rel=1e-9)
    assert at.K[0] == pytest.approx(1.0 / R**2, rel=1e-9)
    assert at.M[0] == pytest.approx(1.0 / R, rel=1e-9)


def test_sphere_closes_and_raises():
    with pytest.raises(InvalidSurfaceError) as err:
        revolution_from_meridian(MeridianSpec(k_s=lambda s: 1.0 + 0.0 * np.asarray(s), s_max=4.0))
    assert err.value.s_cross == pytest.approx(np.pi, abs=1e-12)


def test_undeclared_jump_raises_integration_failure():
    # a jump of k_s that is not a declared breakpoint never resolves; the
    # bisection gives up at the jump, with everything before it resolved
    jump = np.sqrt(2.0)
    spec = MeridianSpec(k_s=lambda s: np.where(np.asarray(s) < jump, 0.5, 0.0), s_max=5.0)
    with pytest.raises(IntegrationFailureError) as err:
        revolution_from_meridian(spec)
    assert err.value.last_s == pytest.approx(jump, abs=1e-9)
    declared = MeridianSpec(k_s=spec.k_s, s_max=5.0, breakpoints=(jump,))
    ps = revolution_from_meridian(declared).eval(np.array([5.0]))
    assert ps.dr[0] == pytest.approx(np.cos(0.5 * jump), abs=1e-14)


def test_sine_meridian_matches_fresnel_closed_form():
    # b(s) = int_0^s sin(t^2)/t^2 dt = -sin(s^2)/s + sqrt(2 pi) C(s sqrt(2/pi)),
    # C the Fresnel cosine integral
    prof = build_chart("sine-meridian", {"s_max": 250.0}).profile
    ss = np.array([138.0, 175.0, 250.0])
    ps = prof.eval(ss)
    b_exact = -np.sin(ss**2) / ss + np.sqrt(2.0 * np.pi) * fresnel(ss * np.sqrt(2.0 / np.pi))[1]
    assert np.max(np.abs(np.arctan2(ps.dz, ps.dr) - b_exact)) <= 1e-12
    ss = np.linspace(0.01, 250.0, 100001)
    dk_exact = 2.0 * np.cos(ss**2) / ss - 2.0 * np.sin(ss**2) / ss**3
    assert np.max(np.abs(prof.eval(ss).dk_s - dk_exact)) <= 1e-10


def test_capped_cylinder_matches_closed_form():
    # hemisphere r = R sin(s/R), z = R (1 - cos(s/R)) up to pi R / 2, then
    # the cylinder r = R, z = R + s - pi R / 2
    prof = build_chart("capped-cylinder", {"R": 1.0, "s_max": 30.0}).profile
    ps = prof.eval(np.array([1.0, 29.9]))
    assert abs(ps.r[0] - np.sin(1.0)) <= 1e-12
    assert abs(ps.z[0] - (1.0 - np.cos(1.0))) <= 1e-12
    assert abs(ps.r[1] - 1.0) <= 1e-12
    assert abs(ps.z[1] - (1.0 + 29.9 - np.pi / 2.0)) <= 1e-12


def test_sine_meridian_limit_slope():
    # b(inf) = integral of sin(s^2)/s^2 = sqrt(pi/2), so r'(inf) = cos(sqrt(pi/2))
    chart = build_chart("sine-meridian", {"s_max": 60.0})
    dr = chart.profile.eval(np.array([60.0])).dr[0]
    assert dr == pytest.approx(np.cos(SQRT_HALF_PI), abs=1e-4)


def test_canonical_parametrization_invariant():
    for name, params in [
        ("sine-meridian", {"s_max": 40.0}),
        ("hyperboloid", {"s_max": 50.0}),
        ("capped-cylinder", {"R": 1.0, "s_max": 12.0}),
    ]:
        chart = build_chart(name, params)
        ss = np.linspace(0.01, chart.s_max, 200)
        ps = chart.profile.eval(ss)
        assert np.max(np.abs(ps.dr**2 + ps.dz**2 - 1.0)) <= 1e-10, name


def test_cylinder_part_of_capped_profile():
    chart = build_chart("capped-cylinder", {"R": 1.0, "s_max": 12.0})
    at = chart.profile.eval(5.0)
    assert abs(at.k_s[0]) <= 1e-9
    assert at.k_theta[0] == pytest.approx(1.0, rel=1e-9)
    assert abs(at.K[0]) <= 1e-9
    assert at.M[0] == pytest.approx(0.5, rel=1e-9)
    assert at.r[0] == pytest.approx(1.0, rel=1e-9)


def test_meridian_roundtrip_reconstruction():
    # profile -> curvature function -> reconstruction reproduces (r, z)
    # up to a rigid vertical shift
    base = build_chart("hyperboloid", {"s_max": 20.0}).profile
    spec = MeridianSpec(k_s=lambda s: base.eval(np.maximum(np.atleast_1d(s), 1e-9)).k_s, s_max=20.0)
    rebuilt = revolution_from_meridian(spec)
    ss = np.linspace(0.05, 20.0, 60)
    pa, pb = base.eval(ss), rebuilt.eval(ss)
    shift = pa.z[0] - pb.z[0]
    assert np.max(np.abs(pa.r - pb.r)) <= 1e-8
    assert np.max(np.abs(pa.z - (pb.z + shift))) <= 1e-8


def test_height_profile_curvatures_match_closed_form():
    z0 = 1.0
    prof = profile_from_height(
        z_fn=lambda rho: z0 * np.sqrt(1 + rho**2),
        dz_fn=lambda rho: z0 * rho / np.sqrt(1 + rho**2),
        d2z_fn=lambda rho: z0 * (1 + rho**2) ** -1.5,
        d3z_fn=lambda rho: -3.0 * z0 * rho * (1 + rho**2) ** -2.5,
        s_max=30.0,
    )
    ss = np.linspace(0.2, 30.0, 30)
    ps = prof.eval(ss)
    rho = ps.r
    assert np.max(np.abs(ps.k_s - (1 + 2 * rho**2) ** -1.5)) <= 1e-8
    assert np.max(np.abs(ps.k_theta - (1 + 2 * rho**2) ** -0.5)) <= 1e-8
