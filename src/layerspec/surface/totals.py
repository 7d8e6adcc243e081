"""Total (integral) curvatures over growing geodesic disks.

The integrals over the whole surface are improper; they are evaluated on an
increasing truncation schedule with geometric tail extrapolation when the
increments decay geometrically, and flagged as divergent or principal-value
estimates otherwise.  Error bounds are never smaller than the last observed
increment.  Total Gauss curvature needs no radial quadrature (Gauss-Bonnet,
see :func:`radial_gauss_partials`).  Every other radial integral of a ring
average goes through :func:`ring_integral`, which bisects only the panels on
which a nested Gauss pair disagrees (oscillatory meridian curvatures need
that); the remaining gap between the pair, summed over the annuli, is added
to the error bound.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..errors import InvalidInputError, NoLimitError
from ..numkernel import adaptive_gauss, gauss_legendre, panelize
from .charts import read_rings
from .graph import graph_curvatures

_DECAY_RATIO = 0.9
_ABS_FLOOR = 1e-11
# points per panel of the coarse and fine radial rule of ring_integral, and
# the fraction of the accumulated integral at which a panel has converged
_RING_ORDERS = (16, 22)
_RING_REL_TOL = 1e-7
_CARTESIAN_PHI = 128  # base-plane angles of total_gauss_cartesian


@dataclass(frozen=True)
class TotalCurvatureEstimate:
    """Truncated-integral sequence with its extrapolated limit."""

    value: float
    truncations: np.ndarray
    partials: np.ndarray
    error_bound: float
    divergent: bool
    principal_value: bool

    @property
    def converged(self):
        return not (self.divergent or self.principal_value)


def analyze_truncations(radii, partials):
    """Classify a truncation sequence and extrapolate its geometric tail."""
    radii = np.asarray(radii, dtype=float)
    partials = np.asarray(partials, dtype=float)
    if partials.size < 3:
        raise InvalidInputError("need at least three truncation radii")
    d = np.diff(partials)
    scale = max(np.max(np.abs(partials)), 1.0)

    def estimate(value, err, divergent=False, principal=False):
        return TotalCurvatureEstimate(
            value=float(value), truncations=radii, partials=partials,
            error_bound=float(max(err, abs(d[-1]), _ABS_FLOOR * scale)),
            divergent=divergent, principal_value=principal,
        )

    if np.all(np.abs(d[-2:]) <= _ABS_FLOOR * scale):
        return estimate(partials[-1], _ABS_FLOOR * scale)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = d[1:] / d[:-1]
    rho = ratios[-1]
    consistent = True
    if ratios.size >= 2:
        prev = ratios[-2]
        consistent = (
            np.isfinite(prev)
            and rho * prev > 0
            and abs(rho - prev) <= 0.3 * max(abs(rho), abs(prev))
        )
    if np.isfinite(rho) and abs(rho) < _DECAY_RATIO and abs(d[-1]) < abs(d[-2]) and consistent:
        tail = d[-1] * rho / (1.0 - rho)
        return estimate(partials[-1] + tail, abs(tail))

    # fast but irregular decay (oscillatory or accelerating tails): converged,
    # no tail model
    third = abs(d[-3]) if d.size >= 3 else abs(d[-2])
    if abs(d[-1]) <= 0.5 * abs(d[-2]) and abs(d[-1]) <= 0.5 * third:
        return estimate(partials[-1], abs(d[-1]))

    # sustained same-sign increments that do not flatten in aggregate
    same_sign = np.all(d[-4:] > 0) or np.all(d[-4:] < 0)
    if d.size >= 4:
        flattening = np.mean(np.abs(d[-2:])) < 0.7 * np.mean(np.abs(d[-4:-2]))
    else:
        flattening = abs(d[-1]) < 0.7 * abs(d[-2])
    if same_sign and not flattening:
        return estimate(partials[-1], max(abs(d[-1]), abs(d[-2])), divergent=True)

    return estimate(partials[-1], max(abs(d[-1]), abs(d[-2])), principal=True)


def ring_integral(chart, weight, panels, stride=None):
    """Integral over the panels of 2 pi mean_theta(weight(g) r) ds, panel-adaptive.

    ``weight`` maps a ChartGrid on ``chart.grid(nodes, stride)`` to an array
    that broadcasts to its ring; the ring average over theta_nodes[::stride]
    (by default the stride thinning the ring to about 256 rays) times 2 pi r
    is the density integrated by :func:`adaptive_gauss` on the given panels.
    Its ``gap`` bounds the quadrature error of its ``value``.  Each density
    call reads its nodes through :func:`read_rings`; where it cuts its blocks
    changes no bit, as an ODE chart's dense output is evaluated point by
    point.
    """
    if stride is None:
        stride = chart.theta_stride_for(256)

    def density(nodes, level):
        return read_rings(chart, nodes, lambda g: 2.0 * np.pi * (weight(g) * g.r).mean(axis=1),
                          stride)

    return adaptive_gauss(density, panels, _RING_ORDERS, _RING_REL_TOL)


def _check_schedule(chart, schedule):
    schedule = np.asarray(schedule, dtype=float)
    if schedule.ndim != 1 or schedule.size < 3 or not np.all(np.diff(schedule) > 0):
        raise InvalidInputError("truncation schedule must be increasing with >= 3 entries")
    if schedule[0] <= 0:
        raise InvalidInputError("truncation schedule radii must be positive")
    if schedule[-1] > chart.s_max * (1 + 1e-12):
        raise InvalidInputError("schedule exceeds chart validity range")
    return schedule


def _disk_estimate(chart, schedule, weight, stride=None):
    """Truncation analysis of the integrals of weight over the scheduled disks.

    Each annulus between consecutive radii is one ring integral; the partials
    are their running sums, and the summed quadrature gap enters the bound.
    Every weight is a chart field, so on a rotation-invariant chart it is a
    column and each ring average is that column.
    """
    schedule = _check_schedule(chart, schedule)
    parts = [
        ring_integral(chart, weight, panelize(lo, hi, chart.s_kinks, first=(hi - lo) / 8.0), stride)
        for lo, hi in zip(np.r_[0.0, schedule[:-1]], schedule)
    ]
    est = analyze_truncations(schedule, np.cumsum([p.value[0] for p in parts]))
    return replace(est, error_bound=est.error_bound + sum(float(p.gap[0]) for p in parts))


def resolved_prefix(full, half):
    """Count of leading radii at which a ring read is angularly resolved.

    ``full`` is the ring value at each radius and ``half`` the same ring on
    every other ray; a radius is resolved while they agree to 0.1% of the
    largest |full|, and the radii after the first disagreement are not.
    This is the package's one angular-resolution rule.
    """
    ok = np.abs(full - half) <= 1e-3 * float(np.max(np.abs(full)))
    return int(np.argmin(ok)) if not ok.all() else ok.size


def full_and_half(values):
    """Ring means of ``values`` (Ns, width), shape (Ns, 2): on every ray, then on
    every other one."""
    return np.stack([values.mean(axis=1), values[:, ::2].mean(axis=1)], axis=1)


def radial_gauss_partials(chart, radii, stride=1):
    """Disk integrals of K dSigma from r'(S) on the rays theta_nodes[::stride].

    Along every ray the Jacobi equation r'' + K r = 0 gives int_0^S K r ds =
    1 - r'(S) exactly, so only the theta ring integral is numerical.  Returns,
    read through :func:`read_rings`, the trapezoid value on the rays and the
    value on every other one of them; their gap measures the angular
    resolution error.
    """
    rings = read_rings(chart, radii, lambda g: full_and_half(g.dr_ds), stride)
    return 2.0 * np.pi * (1.0 - rings.T)


def total_gauss(chart, schedule, stride=1):
    """Total Gauss curvature: integral of K over the surface.

    The disk integrals come from :func:`radial_gauss_partials` on the rays
    theta_nodes[::stride]; only the leading radii that :func:`resolved_prefix`
    finds angularly resolved (at least 3) enter the truncation analysis, as
    the others would contaminate the tail extrapolation with angular aliasing.
    """
    schedule = _check_schedule(chart, schedule)
    full, half = radial_gauss_partials(chart, schedule, stride=stride)
    n_ok = max(resolved_prefix(full, half), min(3, full.size))
    est = analyze_truncations(schedule[:n_ok], full[:n_ok])
    res_err = float(np.max(np.abs(full[:n_ok] - half[:n_ok])))
    return replace(est, error_bound=max(est.error_bound, res_err))


def total_mean_sq(chart, schedule):
    """Total squared mean curvature: integral of M^2 (may be infinite)."""
    return _disk_estimate(chart, schedule, lambda g: g.M**2)


def total_abs_gauss(chart, schedule, stride=None):
    """Integral of |K|, the integrability check behind the K-summability box."""
    return _disk_estimate(chart, schedule, lambda g: np.abs(g.K), stride)


def total_grad_mean_sq(chart, schedule, stride=None):
    """Integral of |grad_g M|^2, the square-integrability check for grad M."""
    return _disk_estimate(chart, schedule, lambda g: g.grad_M_sq, stride)


def total_gauss_cartesian(surf, plane_radii):
    """Independent cross-check for graphs: integral of K over plane disks.

    Uses the Cartesian area element sqrt(1 + |grad f|^2) dx dy in polar
    coordinates on the base plane, entirely bypassing the geodesic fan.
    """
    plane_radii = np.asarray(plane_radii, dtype=float)
    quad = gauss_legendre(12, panelize(0.0, plane_radii[-1], breakpoints=tuple(plane_radii[:-1]),
                                       first=plane_radii[0] / 6.0))
    phi = np.arange(_CARTESIAN_PHI) * (2 * np.pi / _CARTESIAN_PHI)
    rho = quad.nodes[:, None]
    x = surf.pole[0] + rho * np.cos(phi)[None, :]
    y = surf.pole[1] + rho * np.sin(phi)[None, :]
    K = graph_curvatures(surf, x, y)[0]
    area = np.sqrt(1.0 + surf.fx(x, y) ** 2 + surf.fy(x, y) ** 2)
    ring = (K * area).mean(axis=1) * 2 * np.pi * quad.nodes
    cumulative = []
    for R in plane_radii:
        mask = quad.nodes <= R
        cumulative.append(float(np.dot(quad.weights[mask], ring[mask])))
    return analyze_truncations(plane_radii, np.asarray(cumulative))


def gauss_bonnet_residual(chart):
    """Self-consistency residual |total_K + 2 pi r'(S) - 2 pi| for a revolution chart.

    total_K is the ring quadrature of K, not r' (a tautology).  The Jacobi
    equation makes the identity exact at every finite S, so the residual
    measures quadrature plus tail-extrapolation error.  Returns the residual
    and its bar, the ring route's error bound.  Raises NoLimitError when
    r'(S) still oscillates at the sampled radii.
    """
    schedule = chart.s_max * np.array([0.125, 0.25, 0.5, 1.0])
    drs = chart.grid(schedule).dr_ds[:, 0]
    if abs(drs[-1] - drs[-2]) > 1e-3 and abs(drs[-1] - drs[-2]) > 0.5 * abs(drs[-2] - drs[-3]):
        raise NoLimitError("r'(s) has not settled on the sampled radii")
    est = _disk_estimate(chart, schedule, lambda g: g.K)
    return abs(est.value + 2.0 * np.pi * float(drs[-1]) - 2.0 * np.pi), est.error_bound
