"""Graph surfaces z = f(x, y) and their geodesic polar charts.

The chart is realized by shooting arc-length geodesics of the induced
metric from the pole in a fan of launch angles, co-integrating the Jacobi
equation along each ray for the metric factor r(s, theta).  The rays come
in two fixed levels, each integrated as one batched ODE system: the coarse
level theta_nodes[::k], with k the power-of-two stride that thins the ring
to about 768 rays (k = 1, a single level, on fans of up to 1535 rays), is
shot at build; the fine level of all other rays is shot the first time a
read needs one of them, and kept.  Which rays share a batch depends only on
k, never on the order of reads.  Both levels keep the start state of
every step.  The coarse level builds every step's dense interpolant as it
is shot, since every consumer reads it at every radius; the fine level
builds a step's interpolant only when a read falls in that step (see
:mod:`layerspec.numkernel.ode`), and keeps it.  ``totals`` reads the fine
level at 8 radii only: on the monkey-saddle totals chart (55 fine steps, a
13 824-dim state) it then holds 8 of the 55 interpolants.  Curvatures at
arbitrary fan points are evaluated from the closed graph (Weingarten)
formulas, with the upward normal (-f_x, -f_y, 1)/W, which makes the mean
curvature of an upward paraboloid positive.

The angular tangent comes from the polar-chart identity d_theta p =
r e_theta, with e_theta = n x e_s the unit normal-cross-ray direction, so
the surface block in the (s, theta) basis is diag(1, r^2) by construction
and the second fundamental form is the graph Hessian / W applied to
(e_s, r e_theta).  The mean-curvature derivatives come from the same frame:
M is a function of the plane point (x, y), so its gradient there, taken by
a short centered difference, gives dM/ds = grad M . (dx/ds, dy/ds) and
dM/dtheta = grad M . (dx/dtheta, dy/dtheta) on each ray independently.  A
strided grid therefore evaluates the dense ODE solution on its own rays
only.

A grid reads the dense solution when it is made; every other field is
computed on its first read.  A grid evaluates the derivatives of f at its
points once, for all of its curvatures and its second fundamental form,
and takes the grad M stencil (four more evaluations) only when dM_ds,
dM_dtheta or grad_M_sq is read.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import InvalidInputError, TruncationError
from ..numkernel import integrate_ode
from .charts import ChartGrid, uniform_theta

# relative step (scaled by 1 + |(x, y)|) of the centered grad M difference
# in the plane
_DM_STEP = 1e-5

# the coarse ray level thins the ring to about this many rays: no grid
# consumer reads more, and only full-ring reads need the fine level
_COARSE_RAYS = 768


@dataclass(frozen=True)
class GraphSurface:
    """Height function with first and second derivatives, all vectorized."""

    f: callable
    fx: callable
    fy: callable
    fxx: callable
    fxy: callable
    fyy: callable
    pole: tuple = (0.0, 0.0)
    name: str = "graph"


def _derivatives(surf, x, y):
    """(fx, fy, fxx, fxy, fyy, 1 + |grad f|^2) at (x, y)."""
    fx, fy = surf.fx(x, y), surf.fy(x, y)
    return fx, fy, surf.fxx(x, y), surf.fxy(x, y), surf.fyy(x, y), 1.0 + fx**2 + fy**2


def _gauss(fxx, fxy, fyy, w2):
    return (fxx * fyy - fxy**2) / w2**2


def _mean(fx, fy, fxx, fxy, fyy, w2):
    return ((1.0 + fy**2) * fxx - 2.0 * fx * fy * fxy + (1.0 + fx**2) * fyy) / (2.0 * w2**1.5)


def _curvatures(fx, fy, fxx, fxy, fyy, w2):
    """(K, M, k1, k2) from a :func:`_derivatives` tuple."""
    K = _gauss(fxx, fxy, fyy, w2)
    M = _mean(fx, fy, fxx, fxy, fyy, w2)
    disc = np.sqrt(np.maximum(M**2 - K, 0.0))
    return K, M, M + disc, M - disc


def graph_mean_curvature(surf, x, y):
    """M of a graph at (x, y), upward normal convention."""
    return _mean(*_derivatives(surf, x, y))


def graph_curvatures(surf, x, y):
    """(K, M, k1, k2) of a graph at (x, y), upward normal convention."""
    return _curvatures(*_derivatives(surf, x, y))


def _thinning_stride(n_rays, max_rays):
    """Power-of-two stride bringing a ring of n_rays near max_rays."""
    stride = 1
    while n_rays // (2 * stride) >= max_rays:
        stride *= 2
    return stride


class FanChart:
    """Geodesic polar chart of a graph surface from a fan of shot geodesics."""

    rotation_invariant = False
    s_kinks = ()

    def __init__(self, surf, theta_nodes, coarse_stride, coarse, shoot_fine, fine, s_max,
                 truncated):
        self.surface = surf
        self.theta_nodes = theta_nodes
        self._k = coarse_stride
        self._traj = coarse  # rays theta_nodes[::k]
        self._shoot_fine = shoot_fine  # () -> trajectory of the other rays
        self._fine_traj = fine  # None until a read needs the fine level
        self.s_max = float(s_max)
        self.truncated = truncated

    @property
    def n_theta(self):
        return self.theta_nodes.size

    def _fine(self):
        """The fine ray level, shot on first use.

        A conjugate point on it inside s_max is an error: the chart has
        already been read up to s_max and cannot shrink.
        """
        if self._fine_traj is None:
            self._fine_traj = self._shoot_fine()
        if self._fine_traj.s_end < self.s_max:
            raise TruncationError(
                f"conjugate point on the fan's fine rays at s = {self._fine_traj.s_end:.6g}, "
                f"inside the chart's s_max = {self.s_max:.6g}"
            )
        return self._fine_traj

    def _raw(self, s_nodes, stride=1):
        """State blocks (x, y, vx, vy, r, r') on rays theta_nodes[::stride].

        Each ray is read from its level (coarse if its index is a multiple
        of k, else fine), and only the rows of the requested rays in each
        level's dense solution are evaluated; each block comes back in ring
        order with shape (Ns, ceil(n_theta / stride)).
        """
        s = np.atleast_1d(np.asarray(s_nodes, dtype=float))
        if np.any(s < 0) or np.any(s > self.s_max * (1 + 1e-12)):
            raise InvalidInputError("fan chart evaluated outside [0, s_max]")
        s_eval = np.clip(s, 0.0, self.s_max)
        k, nt = self._k, self.n_theta
        rays = np.arange(0, nt, stride)
        coarse = rays % k == 0

        def read(traj, rows, n_level):
            n = rows.size
            rows = (np.arange(6)[:, None] * n_level + rows).ravel()
            return traj.eval(s_eval, rows=rows).T.reshape(s.size, 6, n)

        n_coarse = -(-nt // k)
        if coarse.all():
            vals = read(self._traj, rays // k, n_coarse)
        else:
            fine = rays[~coarse]
            vals = np.empty((s.size, 6, rays.size))
            vals[..., coarse] = read(self._traj, rays[coarse] // k, n_coarse)
            vals[..., ~coarse] = read(self._fine(), fine - fine // k - 1, nt - n_coarse)
        return s, *(vals[:, b] for b in range(6))

    def theta_stride_for(self, max_rays):
        """Power-of-two stride bringing the ray count near max_rays."""
        return _thinning_stride(self.n_theta, max_rays)

    def grid(self, s_nodes, stride=1):
        # C order, so that ring averages downstream sum in a fixed order
        s, *state = self._raw(s_nodes, stride=stride)
        return _FanGrid(self.surface, s, self.theta_nodes[::stride],
                        *(np.ascontiguousarray(v) for v in state))

    def embedding(self, s_nodes, stride=1):
        surf = self.surface
        _, x, y, vx, vy, r, _ = self._raw(s_nodes, stride=stride)
        fx, fy = surf.fx(x, y), surf.fy(x, y)
        dp_ds, _, dp_dt = _ray_frame(vx, vy, r, fx, fy, np.sqrt(1.0 + fx**2 + fy**2))
        return np.stack([x, y, surf.f(x, y)], axis=-1), dp_ds, dp_dt


class _FanGrid:
    """A FanChart grid, with the fields of ChartGrid: s, theta, r and dr_ds are
    set from the dense ODE read, every other field is computed from the ray
    states on its first read and kept.

    The fields come in groups that share work: K, M, k1 and k2 from the one
    derivative evaluation; the second fundamental form from it and the ray
    frame; dM_ds and dM_dtheta from the grad M stencil and the frame.
    """

    def __init__(self, surf, s, theta, x, y, vx, vy, r, dr_ds):
        self.s, self.theta, self.r, self.dr_ds = s, theta, r, dr_ds
        self._surf, self._x, self._y, self._vx, self._vy = surf, x, y, vx, vy

    K = property(lambda g: g._curvatures[0])
    M = property(lambda g: g._curvatures[1])
    k1 = property(lambda g: g._curvatures[2])
    k2 = property(lambda g: g._curvatures[3])
    ii_ss = property(lambda g: g._second_form[0])
    ii_st = property(lambda g: g._second_form[1])
    ii_tt = property(lambda g: g._second_form[2])
    dM_ds = property(lambda g: g._grad_M[0])
    dM_dtheta = property(lambda g: g._grad_M[1])
    grad_M_sq = ChartGrid.grad_M_sq

    @cached_property
    def _derivs(self):
        return _derivatives(self._surf, self._x, self._y)

    @cached_property
    def _curvatures(self):
        return _curvatures(*self._derivs)

    @cached_property
    def _second_form(self):
        """(ii_ss, ii_st, ii_tt, d_theta p): the graph Hessian / W on (e_s, r e_theta)."""
        fx, fy, fxx, fxy, fyy, w2 = self._derivs
        w = np.sqrt(w2)
        _, e_s, dp_dt = _ray_frame(self._vx, self._vy, self.r, fx, fy, w)
        hess = lambda ax, ay, bx, by: (fxx * ax * bx + fxy * (ax * by + ay * bx) + fyy * ay * by) / w
        sx, sy, tx, ty = e_s[..., 0], e_s[..., 1], dp_dt[..., 0], dp_dt[..., 1]
        return hess(sx, sy, sx, sy), hess(sx, sy, tx, ty), hess(tx, ty, tx, ty), dp_dt

    @cached_property
    def _grad_M(self):
        """grad M in the plane by centered differences, then along the ray
        velocity and along d_theta p."""
        surf, x, y = self._surf, self._x, self._y
        h = _DM_STEP * (1.0 + np.hypot(x, y))
        mean = lambda u, v: graph_mean_curvature(surf, u, v)
        dM_dx = (mean(x + h, y) - mean(x - h, y)) / (2.0 * h)
        dM_dy = (mean(x, y + h) - mean(x, y - h)) / (2.0 * h)
        dp_dt = self._second_form[3]
        return dM_dx * self._vx + dM_dy * self._vy, dM_dx * dp_dt[..., 0] + dM_dy * dp_dt[..., 1]


def _ray_frame(vx, vy, r, fx, fy, w):
    """dp/ds and the Jacobi frame: unit ray tangent e_s (normalized, so the frame
    stays orthonormal where the integrated speed drifts from 1) and dp/dtheta =
    r e_theta, e_theta = n x e_s with the upward normal n = (-f_x, -f_y, 1)/W."""
    dp_ds = np.stack([vx, vy, fx * vx + fy * vy], axis=-1)
    e_s = dp_ds / np.linalg.norm(dp_ds, axis=-1, keepdims=True)
    normal = np.stack([-fx, -fy, np.ones_like(fx)], axis=-1) / w[..., None]
    return dp_ds, e_s, r[..., None] * np.cross(normal, e_s)


def _pole_frame(surf):
    """g-orthonormal, right-handed tangent frame at the pole (in the plane)."""
    x0, y0 = surf.pole
    g0 = np.array([float(surf.fx(x0, y0)), float(surf.fy(x0, y0))])

    def g_dot(u, v):
        return u @ v + (g0 @ u) * (g0 @ v)

    e1 = np.array([1.0, 0.0])
    e1 = e1 / np.sqrt(g_dot(e1, e1))
    e2 = np.array([0.0, 1.0])
    e2 = e2 - g_dot(e2, e1) * e1
    e2 = e2 / np.sqrt(g_dot(e2, e2))
    if e1[0] * e2[1] - e1[1] * e2[0] < 0:
        e2 = -e2
    return e1, e2


def _shoot(surf, dirs, s_max, tol, keep_interpolants):
    """Integrate the rays launched along ``dirs`` (n, 2) as one ODE system.

    Co-integrates r'' = -K r along every ray and stops at the first zero of
    any ray's metric factor.  With ``keep_interpolants=False`` a step builds
    its interpolant on its first read.
    """
    x0, y0 = surf.pole
    nt = dirs.shape[0]
    y_init = np.concatenate([
        np.full(nt, x0), np.full(nt, y0),
        dirs[:, 0], dirs[:, 1],
        np.zeros(nt), np.ones(nt),
    ])

    def rhs(s, ys):
        x, y, vx, vy, r, rd = ys.reshape(6, nt)
        fx, fy, fxx, fxy, fyy, w2 = _derivatives(surf, x, y)
        acc = -(fxx * vx**2 + 2.0 * fxy * vx * vy + fyy * vy**2) / w2
        return np.concatenate([vx, vy, acc * fx, acc * fy, rd, -_gauss(fxx, fxy, fyy, w2) * r])

    def min_r(s, ys):
        return ys.reshape(6, nt)[4].min()

    return integrate_ode(rhs, y_init, (0.0, s_max), tol=tol, stop=min_r,
                         keep_interpolants=keep_interpolants)


def geodesic_fan(surf, theta_samples=96, s_max=50.0, tol=1e-10):
    """Shoot a fan of unit-speed geodesics and return the polar chart.

    Co-integrates r'' = -K r along every ray.  The coarse ray level is shot
    here, the fine level when first read (see the module docstring).  If a
    coarse ray's metric factor reaches zero before ``s_max`` (conjugate
    point, injectivity loss suspected), the fine level is shot here too and
    the whole chart is truncated just below the earlier of the two levels'
    first hits and flagged; a warning is emitted.  A fine-level hit found
    only later raises TruncationError on that read.
    """
    theta = uniform_theta(theta_samples)
    e1, e2 = _pole_frame(surf)
    dirs = np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)  # (nt, 2)
    k = _thinning_stride(theta.size, _COARSE_RAYS)
    on_coarse = np.arange(theta.size) % k == 0

    coarse = _shoot(surf, dirs[on_coarse], s_max, tol, keep_interpolants=True)
    shoot_fine = lambda: _shoot(surf, dirs[~on_coarse], s_max, tol, keep_interpolants=False)
    fine = None
    s_hit = coarse.stopped_at
    if s_hit is not None and k > 1:
        fine = shoot_fine()
        s_fine = fine.stopped_at
        s_hit = s_hit if s_fine is None else min(s_hit, s_fine)
    truncated = s_hit is not None
    if truncated:
        warnings.warn(
            f"conjugate point on the fan at s = {s_hit:.6g}; chart truncated "
            "(injectivity loss suspected)",
            RuntimeWarning,
        )
        s_valid = s_hit * (1.0 - 1e-9)
    else:
        s_valid = s_max
    return FanChart(surf, theta, k, coarse, shoot_fine, fine, s_valid, truncated)
