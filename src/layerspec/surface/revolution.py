"""Surfaces of revolution in the canonical (unit-speed meridian) gauge.

A profile (r(s), z(s)) with r'^2 + z'^2 = 1 generates the chart
p(s, theta) = (r cos theta, r sin theta, z).  The principal curvatures are
k_s = r' z'' - r'' z' (meridian) and k_theta = z'/r (parallel), and the
canonical gauge gives r'' = -k_s z', z'' = k_s r', so everything follows
from the meridian curvature function k_s alone:

    b(s) = int_0^s k_s,   r = int_0^s cos b,   z = int_0^s sin b.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import InvalidInputError, InvalidSurfaceError, PoleSingularityError
from ..numkernel import integrate_ode
from .charts import ChartGrid, uniform_theta

_R_FLOOR = 1e-12


@dataclass(frozen=True)
class MeridianSpec:
    """Meridian curvature generator k_s(s) on (0, s_max].

    ``k_s`` must be evaluable down to s = 0 (finite limit).  ``breakpoints``
    mark jump locations of k_s; integration and differentiation never cross
    them.  ``dk_s`` is the analytic derivative when available; otherwise a
    one-sided-safe finite difference is used.
    """

    k_s: callable
    s_max: float
    breakpoints: tuple = ()
    dk_s: callable = None


@dataclass(frozen=True)
class ProfileSample:
    """Profile quantities at sampled arc lengths."""

    s: np.ndarray
    r: np.ndarray
    dr: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    k_s: np.ndarray
    k_theta: np.ndarray
    dk_s: np.ndarray
    dk_theta: np.ndarray

    @property
    def K(self):
        return self.k_s * self.k_theta

    @property
    def M(self):
        return 0.5 * (self.k_s + self.k_theta)

    @property
    def dM_ds(self):
        return 0.5 * (self.dk_s + self.dk_theta)


class RevolutionProfile:
    """Dense canonical profile; see module docstring for conventions."""

    def __init__(self, s_max, breakpoints, eval_brz, k_s_fn, dk_s_fn, name="revolution"):
        self.s_max = float(s_max)
        self.breakpoints = tuple(float(b) for b in breakpoints if 0.0 < b < s_max)
        self._eval_brz = eval_brz  # s -> (r, dr, z, dz)
        self._k_s = k_s_fn
        self._dk_s = dk_s_fn
        self.name = name

    def _dk_s_values(self, s):
        if self._dk_s is not None:
            return np.asarray(self._dk_s(s), dtype=float)
        # central FD, shrunk so the stencil never crosses a breakpoint
        s = np.asarray(s, dtype=float)
        edges = np.array([0.0, *self.breakpoints, self.s_max])
        out = np.empty_like(s)
        for i, si in enumerate(s.ravel()):
            j = np.searchsorted(edges, si, side="right") - 1
            j = min(max(j, 0), edges.size - 2)
            lo, hi = edges[j], edges[j + 1]
            h = min(1e-5 * (1.0 + abs(si)), 0.25 * (hi - lo))
            a, b = si - h, si + h
            if a < lo:
                a, b = si, min(si + 2 * h, hi)
            elif b > hi:
                a, b = max(si - 2 * h, lo), si
            hi_val = np.ravel(np.asarray(self._k_s(b)))[0]
            lo_val = np.ravel(np.asarray(self._k_s(a)))[0]
            out.ravel()[i] = (hi_val - lo_val) / (b - a)
        return out

    def eval(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s < 0) or np.any(s > self.s_max * (1 + 1e-12)):
            raise InvalidInputError("profile evaluated outside [0, s_max]")
        r, dr, z, dz = self._eval_brz(np.clip(s, 0.0, self.s_max))
        ks = np.asarray(self._k_s(s), dtype=float)
        safe = r > _R_FLOOR * max(1.0, self.s_max)
        kth = np.where(safe, dz / np.where(safe, r, 1.0), ks)
        dks = self._dk_s_values(s)
        # d(k_theta)/ds = (r'/r)(k_s - k_theta); pole limit is 0.5*dk_s
        dkth = np.where(safe, dr / np.where(safe, r, 1.0) * (ks - kth), 0.5 * dks)
        return ProfileSample(s=s, r=r, dr=dr, z=z, dz=dz, k_s=ks, k_theta=kth,
                             dk_s=dks, dk_theta=dkth)


def revolution_from_meridian(spec, tol=1e-10):
    """Reconstruct the canonical profile from its meridian curvature.

    Integrates b' = k_s, r' = cos b, z' = sin b piecewise between the
    declared breakpoints of k_s, so jump discontinuities stay on segment
    boundaries and the integrator never chatters across them.

    Raises
    ------
    InvalidSurfaceError
        If r(s) crosses zero at some s <= s_max (first crossing reported).
    """
    if spec.s_max <= 0:
        raise InvalidInputError("s_max must be positive")
    edges = [0.0, *sorted(b for b in spec.breakpoints if 0.0 < b < spec.s_max), spec.s_max]

    def r_vanishes(s, y):
        return y[1]

    r_vanishes.terminal = True
    r_vanishes.direction = -1

    trajs = []
    state = np.array([0.0, 0.0, 0.0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        # keep RHS stage evaluations strictly inside the segment so a jump
        # of k_s sitting exactly on the boundary is never sampled from the
        # wrong side
        eps = 1e-9 * (hi - lo)

        def rhs(s, y, lo=lo, hi=hi, eps=eps):
            sc = min(max(s, lo + eps), hi - eps)
            ks = np.ravel(np.asarray(spec.k_s(sc)))[0]
            return np.array([ks, np.cos(y[0]), np.sin(y[0])])

        traj = integrate_ode(rhs, state, (lo, hi), tol=tol, events=[r_vanishes])
        if traj.events and traj.events[0] is not None and traj.events[0][0] > 1e-12:
            raise InvalidSurfaceError(traj.events[0][0])
        trajs.append((lo, traj))
        state = traj.states[-1]

    seg_edges = np.array(edges)

    def eval_brz(s):
        b = np.empty_like(s)
        r = np.empty_like(s)
        z = np.empty_like(s)
        idx = np.clip(np.searchsorted(seg_edges, s, side="right") - 1, 0, len(trajs) - 1)
        for j, (_, traj) in enumerate(trajs):
            sel = idx == j
            if sel.any():
                vals = traj.eval(np.minimum(s[sel], traj.s_end))
                b[sel], r[sel], z[sel] = vals[0], vals[1], vals[2]
        return r, np.cos(b), z, np.sin(b)

    return RevolutionProfile(spec.s_max, spec.breakpoints, eval_brz, spec.k_s,
                             spec.dk_s, name="meridian")


def profile_from_height(z_fn, dz_fn, d2z_fn, s_max, tol=1e-10, d3z_fn=None, name="height"):
    """Canonical profile of the revolution graph z = z(rho), z'(0) = 0.

    Integrates the arc-length reparametrization d(rho)/ds = (1 + z'^2)^{-1/2}
    once; curvatures then come from the closed rho-formulas.
    """
    if abs(dz_fn(0.0)) > 1e-12:
        raise InvalidInputError("height profile needs z'(0) = 0 for a smooth pole")

    def rhs(s, y):
        return np.array([1.0 / np.sqrt(1.0 + dz_fn(y[0]) ** 2)])

    traj = integrate_ode(rhs, [0.0], (0.0, s_max), tol=tol)

    def k_s_of_s(s):
        rho = np.atleast_1d(traj.eval(np.clip(np.asarray(s, float), 0.0, s_max)))[0]
        zp = dz_fn(rho)
        return d2z_fn(rho) / (1.0 + zp**2) ** 1.5

    dk_s_of_s = None
    if d3z_fn is not None:
        def dk_s_of_s(s):
            rho = np.atleast_1d(traj.eval(np.clip(np.asarray(s, float), 0.0, s_max)))[0]
            zp, zpp, zppp = dz_fn(rho), d2z_fn(rho), d3z_fn(rho)
            w2 = 1.0 + zp**2
            dk_drho = zppp / w2**1.5 - 3.0 * zpp**2 * zp / w2**2.5
            return dk_drho / np.sqrt(w2)

    def eval_brz(s):
        rho = traj.eval(s)[0]
        zp = dz_fn(rho)
        w = np.sqrt(1.0 + zp**2)
        return rho, 1.0 / w, np.asarray(z_fn(rho), dtype=float), zp / w

    return RevolutionProfile(s_max, (), eval_brz, k_s_of_s, dk_s_of_s, name=name)


def revolution_curvatures(profile, s):
    """(k_s, k_theta, K, M, r) at arc length s in (0, s_max]."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr <= 0.0):
        raise PoleSingularityError("curvatures are undefined at the pole s = 0")
    ps = profile.eval(s_arr)
    if np.any(ps.r <= 0.0):
        raise PoleSingularityError("profile radius vanished at a requested s")
    out = (ps.k_s, ps.k_theta, ps.K, ps.M, ps.r)
    if np.ndim(s) == 0:
        return tuple(float(v[0]) for v in out)
    return out


class RevolutionChart:
    """Geodesic polar chart of a surface of revolution."""

    provenance = "revolution"
    rotation_invariant = True
    truncated = False

    def __init__(self, profile, n_theta=64):
        self.profile = profile
        self.s_max = profile.s_max
        self.s_kinks = profile.breakpoints
        self.theta_nodes = uniform_theta(n_theta)
        self.pole = np.zeros(3)

    def theta_stride_for(self, max_rays):
        """The closed-form ring is exact and cheap; it is never thinned."""
        return 1

    def grid(self, s_nodes, stride=1):
        th = self.theta_nodes[::stride]
        ps = self.profile.eval(np.asarray(s_nodes, dtype=float))
        col = lambda v: v[:, None]  # profile fields broadcast over theta
        ct, st = np.cos(th), np.sin(th)
        r, dr, z, dz = col(ps.r), col(ps.dr), col(ps.z), col(ps.dz)
        p = np.stack([r * ct, r * st, np.broadcast_to(z, (r.shape[0], th.size))], axis=-1)
        dp_ds = np.stack([dr * ct, dr * st, np.broadcast_to(dz, (r.shape[0], th.size))], axis=-1)
        dp_dt = np.stack([-r * st, r * ct, np.zeros((r.shape[0], th.size))], axis=-1)
        k_s, k_th = col(ps.k_s), col(ps.k_theta)
        k1 = np.maximum(k_s, k_th)
        k2 = np.minimum(k_s, k_th)
        ones = np.ones((1, th.size))
        return ChartGrid(
            s=ps.s,
            theta=th,
            r=r * ones,
            dr_ds=dr * ones,
            K=(k_s * k_th) * ones,
            M=0.5 * (k_s + k_th) * ones,
            k1=k1 * ones,
            k2=k2 * ones,
            dM_ds=col(ps.dM_ds) * ones,
            dM_dtheta=np.zeros((r.shape[0], th.size)),
            p=p,
            dp_ds=dp_ds,
            dp_dtheta=dp_dt,
            ii_ss=k_s * ones,
            ii_st=np.zeros((r.shape[0], th.size)),
            ii_tt=(k_th * r**2) * ones,
        )
