"""Geodesic polar chart data model and the protocol every chart meets.

A chart exposes, at sampled (s, theta), the metric factor r (Jacobian of the
exponential map), the curvatures, the embedded points with their tangents,
and the second fundamental form in the (s, theta) basis.  The surface metric
in these coordinates is always diag(1, r^2).

Every chart (PlaneChart, RevolutionChart, FanChart) has

    s_max               validity radius; grids are sampled on [0, s_max]
    pole                embedded pole point, shape (3,)
    theta_nodes         the uniform angular ring on [0, 2pi)
    s_kinks             radii where the curvatures jump (panels break there)
    rotation_invariant  True when no chart quantity depends on theta
    truncated           True when s_max was cut short (conjugate point)
    provenance          how the chart was built: "analytic", "revolution"
                        (carries .profile) or "graph-shot" (carries .surface);
                        read only by the CLI cross-checks and the hypotheses
                        sign probe
    grid(s_nodes, stride=1)     ChartGrid on s_nodes x theta_nodes[::stride]
    theta_stride_for(max_rays)  stride thinning the ring to about max_rays
                                rays; 1 where the ring is exact and cheap

Charts are immutable after construction and all evaluations are reentrant.
Every chart returns its whole (strided) ring, also when it is
theta-independent; consumers average over the ring they receive.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError


def uniform_theta(n):
    """n equispaced angles on [0, 2pi); trapezoid weights are exact here."""
    if n < 4:
        raise InvalidInputError("need at least 4 theta samples")
    return np.arange(n) * (2.0 * np.pi / n)


@dataclass(frozen=True)
class ChartGrid:
    """Chart quantities sampled on a tensor grid s x theta.

    Scalar fields have shape (Ns, Nt); point fields have shape (Ns, Nt, 3).
    ``ii_ss, ii_st, ii_tt`` are the second-fundamental-form components, so the
    layer metric at normal height u is g - 2u*II + u^2 * II g^{-1} II with
    g = diag(1, r^2).
    """

    s: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    dr_ds: np.ndarray
    K: np.ndarray
    M: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    dM_ds: np.ndarray
    dM_dtheta: np.ndarray
    p: np.ndarray
    dp_ds: np.ndarray
    dp_dtheta: np.ndarray
    ii_ss: np.ndarray
    ii_st: np.ndarray
    ii_tt: np.ndarray

    @property
    def grad_M_sq(self):
        """|grad_g M|^2 = (dM/ds)^2 + r^{-2} (dM/dtheta)^2."""
        return self.dM_ds**2 + self.dM_dtheta**2 / self.r**2


class PlaneChart:
    """The flat reference chart: r = s, all curvatures zero."""

    provenance = "analytic"
    rotation_invariant = True
    truncated = False
    s_kinks = ()

    def __init__(self, s_max, n_theta=64):
        if s_max <= 0:
            raise InvalidInputError("s_max must be positive")
        self.s_max = float(s_max)
        self.pole = np.zeros(3)
        self.theta_nodes = uniform_theta(n_theta)

    def theta_stride_for(self, max_rays):
        """The closed-form ring is exact and cheap; it is never thinned."""
        return 1

    def grid(self, s_nodes, stride=1):
        s = np.asarray(s_nodes, dtype=float).reshape(-1, 1)
        th = self.theta_nodes[::stride]
        ct, st = np.cos(th), np.sin(th)
        zeros = np.zeros((s.size, th.size))
        p = self.pole + np.stack(
            [s * ct, s * st, np.zeros_like(s * ct)], axis=-1
        )
        dp_ds = np.broadcast_to(
            np.stack([ct, st, np.zeros_like(ct)], axis=-1), p.shape
        ).copy()
        dp_dt = np.stack([-s * st, s * ct, np.zeros_like(s * st)], axis=-1)
        return ChartGrid(
            s=s.ravel(),
            theta=th,
            r=np.broadcast_to(s, zeros.shape).copy(),
            dr_ds=np.ones_like(zeros),
            K=zeros.copy(),
            M=zeros.copy(),
            k1=zeros.copy(),
            k2=zeros.copy(),
            dM_ds=zeros.copy(),
            dM_dtheta=zeros.copy(),
            p=p,
            dp_ds=dp_ds,
            dp_dtheta=dp_dt,
            ii_ss=zeros.copy(),
            ii_st=zeros.copy(),
            ii_tt=zeros.copy(),
        )
