"""Graph surfaces z = f(x, y) and their geodesic polar charts.

The chart is realized by shooting arc-length geodesics of the induced
metric from the pole in a fan of launch angles, co-integrating the Jacobi
equation along each ray for the metric factor r(s, theta).  All rays are
integrated together as one batched ODE system.  Curvatures at arbitrary
fan points are evaluated from the closed graph (Weingarten) formulas, with
the upward normal (-f_x, -f_y, 1)/W, which makes the mean curvature of an
upward paraboloid positive.

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
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..numkernel import integrate_ode
from .charts import ChartGrid, uniform_theta

# relative step (scaled by 1 + |(x, y)|) of the centered grad M difference
# in the plane
_DM_STEP = 1e-5


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


def graph_curvatures(surf, x, y):
    """(K, M, k1, k2) of a graph at (x, y), upward normal convention."""
    fx, fy = surf.fx(x, y), surf.fy(x, y)
    fxx, fxy, fyy = surf.fxx(x, y), surf.fxy(x, y), surf.fyy(x, y)
    w2 = 1.0 + fx**2 + fy**2
    K = (fxx * fyy - fxy**2) / w2**2
    M = ((1.0 + fy**2) * fxx - 2.0 * fx * fy * fxy + (1.0 + fx**2) * fyy) / (2.0 * w2**1.5)
    disc = np.sqrt(np.maximum(M**2 - K, 0.0))
    return K, M, M + disc, M - disc


class FanChart:
    """Geodesic polar chart of a graph surface from a fan of shot geodesics."""

    provenance = "graph-shot"
    rotation_invariant = False
    s_kinks = ()

    def __init__(self, surf, trajectory, theta_nodes, s_max, truncated):
        self.surface = surf
        self._traj = trajectory
        self.theta_nodes = theta_nodes
        self.s_max = float(s_max)
        self.truncated = truncated
        x0, y0 = surf.pole
        self.pole = np.array([x0, y0, float(surf.f(np.float64(x0), np.float64(y0)))])

    @property
    def n_theta(self):
        return self.theta_nodes.size

    def _raw(self, s_nodes, stride=1, blocks=range(6)):
        """State blocks (x, y, vx, vy, r, r') on rays theta_nodes[::stride].

        Only the requested rows of the dense solution are evaluated; each
        block comes back with shape (Ns, ceil(n_theta / stride)).
        """
        s = np.atleast_1d(np.asarray(s_nodes, dtype=float))
        if np.any(s < 0) or np.any(s > self.s_max * (1 + 1e-12)):
            raise InvalidInputError("fan chart evaluated outside [0, s_max]")
        nt = self.n_theta
        rows = (np.asarray(blocks)[:, None] * nt + np.arange(0, nt, stride)).ravel()
        vals = self._traj.eval(np.clip(s, 0.0, self.s_max), rows=rows)
        return s, *(v.T for v in vals.reshape(len(blocks), -1, s.size))

    def radial_gauss_partials(self, radii):
        """Disk integrals of K dSigma using the exact per-ray antiderivative.

        Along every ray the Jacobi equation gives int_0^S K r ds = 1 - r'(S)
        exactly, so only the theta ring integral is numerical.  Returns the
        full-resolution trapezoid value and the half-resolution (every other
        ray) value; their gap measures the angular resolution error.
        """
        _, rd = self._raw(radii, blocks=[5])
        full = 2.0 * np.pi * (1.0 - rd.mean(axis=1))
        half = 2.0 * np.pi * (1.0 - rd[:, ::2].mean(axis=1))
        return full, half

    def theta_stride_for(self, max_rays):
        """Power-of-two stride bringing the ray count near max_rays."""
        stride = 1
        while self.n_theta // (2 * stride) >= max_rays:
            stride *= 2
        return stride

    def grid(self, s_nodes, stride=1):
        surf = self.surface
        # C order, so that ring averages downstream sum in a fixed order
        s, *state = self._raw(s_nodes, stride=stride)
        x, y, vx, vy, r, rd = (np.ascontiguousarray(v) for v in state)

        fx, fy = surf.fx(x, y), surf.fy(x, y)
        K, M, k1, k2 = graph_curvatures(surf, x, y)
        w = np.sqrt(1.0 + fx**2 + fy**2)

        p = np.stack([x, y, surf.f(x, y)], axis=-1)
        dp_ds = np.stack([vx, vy, fx * vx + fy * vy], axis=-1)
        # Jacobi frame: unit ray tangent e_s (normalized, so the frame stays
        # orthonormal where the integrated speed drifts from 1) and
        # e_theta = n x e_s with the upward normal n = (-f_x, -f_y, 1)/W
        e_s = dp_ds / np.linalg.norm(dp_ds, axis=-1, keepdims=True)
        normal = np.stack([-fx, -fy, np.ones_like(fx)], axis=-1) / w[..., None]
        dp_dt = r[..., None] * np.cross(normal, e_s)

        fxx, fxy, fyy = surf.fxx(x, y), surf.fxy(x, y), surf.fyy(x, y)
        hess = lambda ax, ay, bx, by: (fxx * ax * bx + fxy * (ax * by + ay * bx) + fyy * ay * by) / w
        sx, sy, tx, ty = e_s[..., 0], e_s[..., 1], dp_dt[..., 0], dp_dt[..., 1]
        ii_ss = hess(sx, sy, sx, sy)
        ii_st = hess(sx, sy, tx, ty)
        ii_tt = hess(tx, ty, tx, ty)

        # grad M in the plane by centered differences, then along the ray
        # velocity and along d_theta p
        h = _DM_STEP * (1.0 + np.hypot(x, y))
        mean = lambda u, v: graph_curvatures(surf, u, v)[1]
        dM_dx = (mean(x + h, y) - mean(x - h, y)) / (2.0 * h)
        dM_dy = (mean(x, y + h) - mean(x, y - h)) / (2.0 * h)
        dM_ds = dM_dx * vx + dM_dy * vy
        dM_dt = dM_dx * tx + dM_dy * ty

        return ChartGrid(
            s=s, theta=self.theta_nodes[::stride], r=r, dr_ds=rd, K=K, M=M, k1=k1, k2=k2,
            dM_ds=dM_ds, dM_dtheta=dM_dt, p=p, dp_ds=dp_ds, dp_dtheta=dp_dt,
            ii_ss=ii_ss, ii_st=ii_st, ii_tt=ii_tt,
        )


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


def geodesic_fan(surf, theta_samples=96, s_max=50.0, tol=1e-10):
    """Shoot a fan of unit-speed geodesics and return the polar chart.

    Co-integrates r'' = -K r along every ray.  If any ray's metric factor
    reaches zero before ``s_max`` (conjugate point, injectivity loss
    suspected), the whole chart is truncated just below the first hit and
    flagged; a warning is emitted.
    """
    theta = uniform_theta(theta_samples)
    e1, e2 = _pole_frame(surf)
    x0, y0 = surf.pole
    dirs = np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2)  # (nt, 2)
    nt = theta.size

    y_init = np.concatenate([
        np.full(nt, x0), np.full(nt, y0),
        dirs[:, 0], dirs[:, 1],
        np.zeros(nt), np.ones(nt),
    ])

    def rhs(s, ys):
        x, y, vx, vy, r, rd = ys.reshape(6, nt)
        fx, fy = surf.fx(x, y), surf.fy(x, y)
        fxx, fxy, fyy = surf.fxx(x, y), surf.fxy(x, y), surf.fyy(x, y)
        acc = -(fxx * vx**2 + 2.0 * fxy * vx * vy + fyy * vy**2) / (1.0 + fx**2 + fy**2)
        K = graph_curvatures(surf, x, y)[0]
        return np.concatenate([vx, vy, acc * fx, acc * fy, rd, -K * r])

    def min_r(s, ys):
        return ys.reshape(6, nt)[4].min()

    min_r.terminal = True
    min_r.direction = -1

    traj = integrate_ode(rhs, y_init, (0.0, s_max), tol=tol, events=[min_r])
    truncated = traj.events and traj.events[0] is not None
    if truncated:
        s_hit = traj.events[0][0]
        warnings.warn(
            f"conjugate point on the fan at s = {s_hit:.6g}; chart truncated "
            "(injectivity loss suspected)",
            RuntimeWarning,
        )
        s_valid = s_hit * (1.0 - 1e-9)
    else:
        s_valid = s_max
    return FanChart(surf, traj, theta, s_valid, bool(truncated))
