"""Constant-width layer built over a polar chart.

The layer is the normal-bundle image p(q) + u n(q), |u| <= a, with hard-wall
boundary.  Its metric in chart coordinates is block diagonal: the surface
block (delta - u h)^2 g and a trivial normal block.  The determinant factor

    f(u) = 1 - 2 M u + K u^2 = (1 - u k1)(1 - u k2)

relates the layer and surface measures, sqrt(G) = sqrt(g) f, and stays
positive as long as the half-width is below the minimal normal curvature
radius rho_m (checked here with a sampled-sup estimate times the charts'
one sup factor 1 + SUP_BAR, reported as an estimate, never as a proof).
"""

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolationError, InvalidInputError
from .numkernel import gauss_legendre
from .surface.charts import SUP_BAR, read_rings

_PLANAR_SUP = 1e-12
_RHO_PROBES = 400  # radii sampled by rho_m, half geometric and half uniform
# collision_scan's sample counts in s, theta and u
_SCAN_S, _SCAN_THETA, _SCAN_U = 48, 24, 5
# transverse modes and Gauss nodes of check_mode_orthonormality
_GRAM_MODES, _GRAM_NODES = 5, 48


def rho_m(chart):
    """Minimal normal curvature radius: 1 / sup(|k1|, |k2|), sampled.

    Dense sampling over the chart with the supremum scaled by 1 + SUP_BAR;
    returns inf for (numerically) planar charts.
    """
    ring_sups = read_rings(chart, _rho_radii(chart),
                           lambda g: np.maximum(np.abs(g.k1), np.abs(g.k2)).max(axis=1),
                           stride=chart.theta_stride_for(512))
    sup = float(np.max(ring_sups)) * (1.0 + SUP_BAR)  # np.max keeps a NaN
    if sup <= _PLANAR_SUP:
        return np.inf
    return 1.0 / sup


def _rho_radii(chart):
    """rho_m's sample radii in increasing order, half geometric and half uniform."""
    lo = min(1e-3, chart.s_max * 1e-4)
    return np.sort(np.concatenate([
        np.geomspace(lo, chart.s_max, _RHO_PROBES // 2),
        np.linspace(lo, chart.s_max, _RHO_PROBES // 2),
    ]))


@dataclass(frozen=True)
class TransverseMode:
    """Dirichlet eigenfunction of -d^2/du^2 on (-a, a) at energy kappa_n^2."""

    n: int
    kappa: float
    a: float

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        amp = np.sqrt(1.0 / self.a)  # sqrt(2/d) with d = 2a
        if self.n % 2:
            return amp * np.cos(self.kappa * u)
        return amp * np.sin(self.kappa * u)

    def derivative(self, u):
        u = np.asarray(u, dtype=float)
        amp = np.sqrt(1.0 / self.a) * self.kappa
        if self.n % 2:
            return -amp * np.sin(self.kappa * u)
        return amp * np.cos(self.kappa * u)


class LayerSpec:
    """A chart plus half-width a, with the derived spectral constants.

    Raises HypothesisViolationError when a exceeds the (safety-adjusted)
    minimal normal curvature radius, unless ``force`` is set; the check
    outcome is recorded either way.
    """

    def __init__(self, chart, a, force=False):
        if a <= 0:
            raise InvalidInputError("half-width a must be positive")
        self.chart = chart
        self.a = float(a)
        self.d = 2.0 * self.a
        self.rho_m = rho_m(chart)
        self.omega1_ok = self.a < self.rho_m
        if not self.omega1_ok and not force:
            raise HypothesisViolationError(
                f"half-width a = {self.a:g} is not below the minimal normal "
                f"curvature radius estimate rho_m = {self.rho_m:g}"
            )

    @property
    def kappa1_sq(self):
        return (np.pi / self.d) ** 2

    def kappa(self, n):
        return n * np.pi / self.d

    def transverse_mode(self, n):
        if n < 1:
            raise InvalidInputError("transverse mode index starts at 1")
        return TransverseMode(n=n, kappa=self.kappa(n), a=self.a)


def c_bounds(layer):
    """Metric sandwich constants C_- g <= G_surface-block <= C_+ g."""
    if not layer.omega1_ok:
        raise HypothesisViolationError("sandwich constants require a < rho_m")
    if np.isinf(layer.rho_m):
        return 1.0, 1.0
    ratio = layer.a / layer.rho_m
    return (1.0 - ratio) ** 2, (1.0 + ratio) ** 2


@dataclass(frozen=True)
class LayerMetricSample:
    """Layer metric at one (s, theta, u): surface block plus G_33 = 1."""

    G11: float
    G12: float
    G22: float
    det_factor: float
    sqrt_g: float

    @property
    def G33(self):
        return 1.0

    @property
    def sqrt_G(self):
        return self.sqrt_g * self.det_factor


def _chart_point(chart, s, theta):
    """M, K, r, ii_ss, ii_st, ii_tt at s on the ray nearest to theta."""
    g = chart.grid(np.array([s]))
    j = int(np.argmin(np.abs((g.theta - theta + np.pi) % (2 * np.pi) - np.pi)))
    return (np.broadcast_to(v, (1, g.theta.size))[0, j] for v in (g.M, g.K, g.r, g.ii_ss, g.ii_st, g.ii_tt))


def det_factor(layer, s, theta, u):
    """1 - 2 M u + K u^2 at a chart point; equals (1 - u k1)(1 - u k2)."""
    M, K, *_ = _chart_point(layer.chart, s, theta)
    u = np.asarray(u, dtype=float)
    return 1.0 - 2.0 * M * u + K * u**2


def layer_metric(layer, s, theta, u):
    """Metric sample at (s, theta, u): (delta - u h)^2 g block and weights."""
    M, K, r, ii_ss, ii_st, ii_tt = _chart_point(layer.chart, s, theta)
    if not (-layer.a <= u <= layer.a):
        raise InvalidInputError("normal coordinate outside (-a, a)")
    g_cov = np.array([[1.0, 0.0], [0.0, r**2]])
    II = np.array([[ii_ss, ii_st], [ii_st, ii_tt]])
    G = g_cov - 2.0 * u * II + u**2 * (II @ np.linalg.solve(g_cov, II))
    f = 1.0 - 2.0 * M * u + K * u**2
    return LayerMetricSample(
        G11=float(G[0, 0]), G12=float(G[0, 1]), G22=float(G[1, 1]),
        det_factor=float(f), sqrt_g=float(r),
    )


@dataclass(frozen=True)
class CollisionScan:
    """Outcome of the coarse self-intersection probe (never a proof)."""

    result: str  # "no collision detected" | "possible self-intersection"
    checked_points: int


def collision_scan(layer):
    """Coarse spatial-hash probe for layer self-intersection.

    Samples layer points p + u n, buckets them into cubes of edge a, and
    looks inside each bucket for pairs whose chart coordinates are far
    apart (intrinsic separation proxy over 2.5a) but whose ambient distance
    is below a/2.  Complements the necessary condition det-factor > 0;
    the negative outcome reads "no collision detected", never "injective".
    """
    chart = layer.chart
    a = layer.a
    lo = min(1e-2, chart.s_max * 1e-3)
    s = np.geomspace(lo, chart.s_max * 0.98, _SCAN_S)
    stride = chart.theta_stride_for(_SCAN_THETA)
    g = chart.grid(s, stride=stride)
    p, dp_ds, dp_dt = chart.embedding(s, stride=stride)
    normal = np.cross(dp_ds, dp_dt)
    norms = np.linalg.norm(normal, axis=-1, keepdims=True)
    normal = normal / np.where(norms > 0, norms, 1.0)
    us = np.linspace(-a, a, _SCAN_U)
    pts = (p[None, ...] + us[:, None, None, None] * normal[None, ...]).reshape(-1, 3)
    uu, ss, tt = np.meshgrid(us, g.s, g.theta, indexing="ij")
    rr = np.broadcast_to(g.r[None, ...], (_SCAN_U, g.s.size, g.theta.size))
    coords = np.stack([ss.ravel(), tt.ravel(), rr.ravel()], axis=1)

    buckets = {}
    keys = np.floor(pts / a).astype(np.int64)
    for i, key in enumerate(map(tuple, keys)):
        buckets.setdefault(key, []).append(i)

    hit = False
    for members in buckets.values():
        if len(members) < 2:
            continue
        idx = np.asarray(members)
        sub = pts[idx]
        d2 = np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=-1)
        ds = np.abs(coords[idx, 0][:, None] - coords[idx, 0][None, :])
        dt = np.abs(coords[idx, 1][:, None] - coords[idx, 1][None, :])
        dt = np.minimum(dt, 2 * np.pi - dt)
        # chart separation with the local circumference radius of the pair
        r_loc = np.minimum(coords[idx, 2][:, None], coords[idx, 2][None, :])
        chart_far = (ds + r_loc * dt) > 2.5 * a
        if (chart_far & (d2 < (0.5 * a) ** 2)).any():
            hit = True
    return CollisionScan(
        result="possible self-intersection" if hit else "no collision detected",
        checked_points=pts.shape[0],
    )


def check_mode_orthonormality(layer):
    """Quadrature Gram matrix of the first _GRAM_MODES transverse modes."""
    quad = gauss_legendre(_GRAM_NODES, [-layer.a, layer.a])
    modes = [layer.transverse_mode(n) for n in range(1, _GRAM_MODES + 1)]
    gram = np.array([
        [quad.integrate_samples(m1(quad.nodes) * m2(quad.nodes)) for m2 in modes]
        for m1 in modes
    ])
    return gram
