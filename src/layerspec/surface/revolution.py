"""Surfaces of revolution in the canonical (unit-speed meridian) gauge.

A profile (r(s), z(s)) with r'^2 + z'^2 = 1 generates the chart
p(s, theta) = (r cos theta, r sin theta, z).  The principal curvatures are
k_s = r' z'' - r'' z' (meridian) and k_theta = z'/r (parallel), and the
canonical gauge gives r'' = -k_s z', z'' = k_s r', so everything follows
from the meridian curvature function k_s alone:

    b(s) = int_0^s k_s,   r = int_0^s cos b,   z = int_0^s sin b.

A meridian profile takes them as spectral antiderivatives (Greengard, SIAM
J. Numer. Anal. 28 (1991) 1071) on adaptive Chebyshev panels that break at
the declared jumps of k_s; dk_s/ds is the derivative of the k_s series.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb

from ..errors import IntegrationFailureError, InvalidInputError, InvalidSurfaceError
from ..numkernel import integrate_ode
from .charts import ChartGrid, uniform_theta

_R_FLOOR = 1e-12
_N_THETA = 64  # rays of the (exact, theta-independent) chart ring

# first-kind Chebyshev nodes per meridian panel, ascending on [-1, 1]
_N = 24
_X = cheb.chebpts1(_N)
_AT_NODES = cheb.chebvander(_X, _N)  # coefficients up to degree _N -> node values
_TO_COEFS = np.linalg.inv(_AT_NODES[:, :_N])  # node values -> coefficients
_INTEGRATE = cheb.chebint(np.eye(_N), lbnd=-1, axis=0)  # -> antiderivative vanishing at -1
# a panel is resolved when the last _TAIL coefficients of k_s are below
# _RESOLVED and b turns by at most _MAX_TURN across it (then cos b and sin b
# are resolved to roundoff); per panel, coefficients below _CHOP (the
# transform's roundoff) of the largest are dropped; a jump of k_s off the
# breakpoints never resolves, so bisection stops after _MAX_PASSES passes
_TAIL = 4
_RESOLVED = 1e-13
_MAX_TURN = 2.0
_CHOP = 1e-14
_MAX_PASSES = 40


@dataclass(frozen=True)
class MeridianSpec:
    """Meridian curvature generator k_s(s) on (0, s_max].

    ``k_s`` maps a flat array of arc lengths to k_s there and must be
    evaluable down to s = 0 (finite limit).  ``breakpoints`` mark jump
    locations of k_s; no panel of the profile crosses them.
    """

    k_s: callable
    s_max: float
    breakpoints: tuple = ()


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
    """Dense canonical profile; see module docstring for conventions.

    ``fields`` maps arc lengths in [0, s_max] to (r, r', z, z', k_s, dk_s/ds).
    """

    def __init__(self, s_max, breakpoints, fields):
        self.s_max = float(s_max)
        self.breakpoints = tuple(float(b) for b in breakpoints if 0.0 < b < s_max)
        self._fields = fields

    def eval(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s < 0) or np.any(s > self.s_max * (1 + 1e-12)):
            raise InvalidInputError("profile evaluated outside [0, s_max]")
        r, dr, z, dz, ks, dks = self._fields(np.clip(s, 0.0, self.s_max))
        safe = r > _R_FLOOR * max(1.0, self.s_max)
        kth = np.where(safe, dz / np.where(safe, r, 1.0), ks)
        # d(k_theta)/ds = (r'/r)(k_s - k_theta); pole limit is 0.5*dk_s
        dkth = np.where(safe, dr / np.where(safe, r, 1.0) * (ks - kth), 0.5 * dks)
        return ProfileSample(s=s, r=r, dr=dr, z=z, dz=dz, k_s=ks, k_theta=kth,
                             dk_s=dks, dk_theta=dkth)


def _chop(coefs):
    """Drop, per panel, the coefficients below _CHOP of its largest one."""
    return np.where(np.abs(coefs) <= _CHOP * np.abs(coefs).max(axis=1, keepdims=True), 0.0, coefs)


def _resolved_panels(k_s, edges):
    """(left ends, right ends, k_s at the nodes) of panels resolving a profile.

    Bisects the panels between ``edges`` for at most _MAX_PASSES passes.
    The tail of k_s is judged relative to its largest coefficient seen so far
    (a per-panel scale would never resolve the zeros of k_s).
    """
    lo, hi = np.asarray(edges[:-1]), np.asarray(edges[1:])
    done, scale = [], 0.0
    for _ in range(_MAX_PASSES):
        half = 0.5 * (hi - lo)[:, None]
        nodes = 0.5 * (lo + hi)[:, None] + half * _X
        k = np.asarray(k_s(nodes.ravel()), dtype=float).reshape(nodes.shape)
        ck = np.abs(k @ _TO_COEFS.T)
        scale = max(scale, float(ck.max()))
        turn = 2.0 * half[:, 0] * np.abs(k).max(axis=1)
        ok = (ck[:, -_TAIL:].max(axis=1) <= _RESOLVED * scale) & (turn <= _MAX_TURN)
        done.append((lo[ok], hi[ok], k[ok]))
        mid = 0.5 * (lo + hi)[~ok]
        lo, hi = np.r_[lo[~ok], mid], np.r_[mid, hi[~ok]]
        if lo.size == 0:
            lo, hi, k = (np.concatenate(parts) for parts in zip(*done))
            order = np.argsort(lo)
            return lo[order], hi[order], k[order]
    raise IntegrationFailureError(
        f"meridian curvature unresolved after {_MAX_PASSES} panel bisections "
        "(a jump of k_s off the declared breakpoints?)", lo.min())


def _antiderivative(half, coefs):
    """Running integral over the ordered panels, as per-panel coefficients."""
    out = half * (coefs @ _INTEGRATE.T)
    out[:, 0] += np.r_[0.0, np.cumsum(out.sum(axis=1))[:-1]]
    return out


def revolution_from_meridian(spec):
    """Reconstruct the canonical profile from its meridian curvature.

    b, r and z are spectral antiderivatives on adaptive Chebyshev panels
    with the running value at each panel's left end as the constant, and
    are evaluated by Clenshaw's recurrence on each panel's chopped
    coefficients (so a field constant on a panel is one constant there).

    Raises
    ------
    InvalidSurfaceError
        If r(s) crosses zero at some s <= s_max (first crossing reported).
    IntegrationFailureError
        If a panel is still unresolved after the last bisection pass.
    """
    if spec.s_max <= 0:
        raise InvalidInputError("s_max must be positive")
    edges = [0.0, *sorted(b for b in spec.breakpoints if 0.0 < b < spec.s_max), spec.s_max]
    lo, hi, k = _resolved_panels(spec.k_s, edges)
    half = 0.5 * (hi - lo)[:, None]
    mid = 0.5 * (lo + hi)
    ck = _chop(k @ _TO_COEFS.T)
    cb = _antiderivative(half, ck)
    b = cb @ _AT_NODES.T
    cr = _antiderivative(half, _chop(np.cos(b) @ _TO_COEFS.T))
    cz = _antiderivative(half, _chop(np.sin(b) @ _TO_COEFS.T))
    cdk = np.pad(cheb.chebder(ck, axis=1) / half, ((0, 0), (0, 2)))
    # (degree, field, panel), cut after the last degree that is nonzero on
    # some panel: the all-zero ones would only cost evaluations
    series = np.stack([cdk, cb, cr, cz]).transpose(2, 0, 1)
    series = series[:np.flatnonzero(series.any(axis=(1, 2)))[-1] + 1].copy()

    def fields(s):
        i = np.clip(np.searchsorted(lo, s, side="right") - 1, 0, lo.size - 1)
        x = (s - mid[i]) / half[i, 0]
        dk, b, r, z = cheb.chebval(x, series[..., i], tensor=False)
        return r, np.cos(b), z, np.sin(b), np.asarray(spec.k_s(s), dtype=float), dk

    # the first sign change of r on the nodes, refined on the series
    r_nodes = (cr @ _AT_NODES.T).ravel()
    neg = np.flatnonzero(r_nodes <= 0.0)
    if neg.size:
        from scipy.optimize import brentq

        s_nodes = (mid[:, None] + half * _X).ravel()
        j = neg[0]  # >= 1: next to the pole r is about s > 0
        r_at = lambda s: fields(np.array([s]))[0][0]
        raise InvalidSurfaceError(brentq(r_at, s_nodes[j - 1], s_nodes[j]))
    return RevolutionProfile(spec.s_max, spec.breakpoints, fields)


def profile_from_height(z_fn, dz_fn, d2z_fn, d3z_fn, s_max, tol=1e-10):
    """Canonical profile of the revolution graph z = z(rho), z'(0) = 0.

    ``dz_fn``, ``d2z_fn`` and ``d3z_fn`` are the first three derivatives of
    ``z_fn``.  Integrates the arc-length reparametrization
    d(rho)/ds = (1 + z'^2)^{-1/2} once; curvatures then come from the closed
    rho-formulas.
    """
    if abs(dz_fn(0.0)) > 1e-12:
        raise InvalidInputError("height profile needs z'(0) = 0 for a smooth pole")

    def rhs(s, y):
        return np.array([1.0 / np.sqrt(1.0 + dz_fn(y[0]) ** 2)])

    traj = integrate_ode(rhs, [0.0], (0.0, s_max), tol=tol)

    def fields(s):
        rho = traj.eval(s)[0]
        zp, zpp = dz_fn(rho), d2z_fn(rho)
        w2 = 1.0 + zp**2
        w = np.sqrt(w2)
        dk_drho = d3z_fn(rho) / w2**1.5 - 3.0 * zpp**2 * zp / w2**2.5
        return (rho, 1.0 / w, np.asarray(z_fn(rho), dtype=float), zp / w,
                zpp / w2**1.5, dk_drho / np.sqrt(w2))

    return RevolutionProfile(s_max, (), fields)


class RevolutionChart:
    """Geodesic polar chart of a surface of revolution."""

    rotation_invariant = True
    truncated = False

    def __init__(self, profile):
        self.profile = profile
        self.s_max = profile.s_max
        self.s_kinks = profile.breakpoints
        self.theta_nodes = uniform_theta(_N_THETA)

    def theta_stride_for(self, max_rays):
        """Never thinned: only the embedding spans the ring, grid fields are columns."""
        return 1

    def grid(self, s_nodes, stride=1):
        ps = self.profile.eval(np.asarray(s_nodes, dtype=float))
        col = lambda v: v[:, None]  # profile fields broadcast over theta
        r, k_s, k_th = col(ps.r), col(ps.k_s), col(ps.k_theta)
        zero = np.broadcast_to(0.0, r.shape)
        return ChartGrid(
            s=ps.s,
            theta=self.theta_nodes[::stride],
            r=r,
            dr_ds=col(ps.dr),
            K=k_s * k_th,
            M=0.5 * (k_s + k_th),
            k1=np.maximum(k_s, k_th),
            k2=np.minimum(k_s, k_th),
            dM_ds=col(ps.dM_ds),
            dM_dtheta=zero,
            ii_ss=k_s,
            ii_st=zero,
            ii_tt=k_th * r**2,
        )

    def embedding(self, s_nodes, stride=1):
        th = self.theta_nodes[::stride]
        ps = self.profile.eval(np.asarray(s_nodes, dtype=float))
        ct, st = np.cos(th), np.sin(th)
        r, dr, z, dz = (v[:, None] for v in (ps.r, ps.dr, ps.z, ps.dz))
        ring = lambda v: np.broadcast_to(v, (ps.s.size, th.size))
        p = np.stack([r * ct, r * st, ring(z)], axis=-1)
        dp_ds = np.stack([dr * ct, dr * st, ring(dz)], axis=-1)
        dp_dt = np.stack([-r * st, r * ct, ring(0.0)], axis=-1)
        return p, dp_ds, dp_dt
