"""Geodesic polar chart data model and the protocol every chart meets.

A chart exposes, at sampled (s, theta), a grid of the metric factor r (Jacobian
of the exponential map), the curvatures and the second fundamental form in the
(s, theta) basis, and apart from it the embedded points with their tangents.
The surface metric in these coordinates is always diag(1, r^2).

There are two chart kinds: a RevolutionChart for every rotation-invariant
surface (the flat plane is the profile with k_s = 0) and a FanChart of shot
geodesics for graphs.  Every chart has

    s_max               validity radius; grids are sampled on [0, s_max]
    theta_nodes         the uniform angular ring on [0, 2pi)
    s_kinks             radii where the curvatures jump (panels break there)
    rotation_invariant  True on a RevolutionChart (it carries .profile),
                        False on a FanChart (it carries .surface)
    truncated           True when s_max was cut short (conjugate point)
    grid(s_nodes, stride=1)       ChartGrid on s_nodes x theta_nodes[::stride]
    embedding(s_nodes, stride=1)  (p, dp_ds, dp_dtheta) there, each (Ns, Nt, 3)
    theta_stride_for(max_rays)    stride thinning the ring to about max_rays
                                  rays; 1 where the ring is exact and cheap

Every sweep over many radii (a sampled sup, a ring integral's or the shifted
form's density) reads through read_rings, which keeps each grid() call
under READ_POINTS points (radii x the grid's width).  SUP_BAR is the
relative bar of every sampled supremum, which is scaled by 1 + SUP_BAR as
an estimate.

Charts are immutable after construction and all evaluations are reentrant.
Every field of a grid broadcasts to (Ns, Nt), Nt the size of its (strided)
ring: a theta-independent field may be an (Ns, 1) column, as every
RevolutionChart field is.  The array's width is the one record of
axisymmetry; consumers broadcast what they combine and average over the
width they get.

A grid has the fields of ChartGrid, by name; it need not be one.  s, theta,
r and dr_ds are read when grid() is called, and a grid may compute any
other field on its first read and keep it (a FanChart grid does), so a read
costs only the fields it touches.  A grid is immutable to its readers: they
never write to it or to its arrays.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError

# points (radii x the grid's width) per chart.grid read of a multi-radius
# sweep: bounds the read's temporaries, several arrays of this size each
READ_POINTS = 2**15
# relative bar on a sampled supremum of a chart field
SUP_BAR = 0.05


def uniform_theta(n):
    """n equispaced angles on [0, 2pi); trapezoid weights are exact here."""
    if n < 4:
        raise InvalidInputError("need at least 4 theta samples")
    return np.arange(n) * (2.0 * np.pi / n)


@dataclass(frozen=True)
class ChartGrid:
    """Chart quantities sampled on a tensor grid s x theta.

    Every field broadcasts to (Ns, Nt) and may be an (Ns, 1) column where
    it does not depend on theta.
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
    ii_ss: np.ndarray
    ii_st: np.ndarray
    ii_tt: np.ndarray

    @property
    def grad_M_sq(self):
        """|grad_g M|^2 = (dM/ds)^2 + r^{-2} (dM/dtheta)^2."""
        return self.dM_ds**2 + self.dM_dtheta**2 / self.r**2


def read_rings(chart, s, reduce, stride=1):
    """``reduce(grid)`` at the radii ``s`` on the rays theta_nodes[::stride].

    Radii are read in order, in blocks of at most READ_POINTS points (or one
    radius), each grid dropped before the next; the results are joined along
    the radius axis, as one whole read gives where ``reduce`` works by ring.
    A point is one radius on one ray of the grid's width: a RevolutionChart's
    grid is one column wide, whatever its ring.
    """
    width = 1 if chart.rotation_invariant else chart.theta_nodes[::stride].size
    per_read = max(1, READ_POINTS // width)
    return np.concatenate([reduce(chart.grid(block, stride=stride))
                           for block in np.array_split(s, -(-len(s) // per_read))])
