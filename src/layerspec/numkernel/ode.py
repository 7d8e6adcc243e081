"""Adaptive ODE integration with dense output.

Thin contract wrapper around an embedded Runge-Kutta pair (Dormand-Prince
5(4) via :func:`scipy.integrate.solve_ivp`) that returns a trajectory object
with dense evaluation, and converts solver stalls into a typed error that
records the last abscissa reached.  Dense evaluation reads the stored RK
interpolants directly and can be restricted to some state rows (``rows=``),
so a caller that needs a few components of a large batched system pays only
for those.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from ..errors import IntegrationFailureError, InvalidInputError


@dataclass
class OdeTrajectory:
    """Dense solution of an initial value problem on [s0, s1].

    ``abscissae`` are the accepted step endpoints (monotone increasing);
    ``states`` has shape ``(len(abscissae), dim)``.  Dense evaluation between
    samples uses the solver's quartic interpolant and reproduces the stored
    samples exactly at the nodes.
    """

    abscissae: np.ndarray
    states: np.ndarray
    interpolation_order: int
    events: list = field(default_factory=list)
    _sol: object = None

    @property
    def s_end(self):
        return float(self.abscissae[-1])

    def eval(self, s, rows=None):
        """Evaluate the dense solution; returns shape (n,) or (n, m).

        ``rows`` selects state components (default: all ``dim``), and only
        those rows of each stored interpolant are evaluated, so ``n`` is
        ``len(rows)``.  Points are sorted once and grouped by step; a point
        on a step boundary takes the lower step, as scipy's OdeSolution does.
        """
        s = np.asarray(s, dtype=float)
        lo, hi = self.abscissae[0], self.abscissae[-1]
        if np.any(s < lo - 1e-12 * max(1.0, abs(lo))) or np.any(
            s > hi + 1e-12 * max(1.0, abs(hi))
        ):
            raise InvalidInputError(
                f"dense evaluation outside [{lo:.6g}, {hi:.6g}] requested"
            )
        pts = np.atleast_1d(np.clip(s, lo, hi))
        rows = np.arange(self.states.shape[1]) if rows is None else np.asarray(rows)
        pieces = self._sol.interpolants
        # column-major, as scipy's OdeSolution returns it: each point's
        # column is written in one piece, and callers' reductions keep their
        # summation order
        out = np.empty((rows.size, pts.size), order="F")

        order = np.argsort(pts)
        seg = np.searchsorted(self._sol.ts, pts[order], side="left") - 1
        np.clip(seg, 0, len(pieces) - 1, out=seg)
        cuts = np.flatnonzero(np.diff(seg)) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, pts.size]):
            piece = pieces[seg[a]]
            idx = order[a:b]
            x = (pts[idx] - piece.t_old) / piece.h
            powers = np.cumprod(np.tile(x, (piece.Q.shape[1], 1)), axis=0)
            out[:, idx] = piece.h * np.dot(piece.Q[rows], powers) + piece.y_old[rows, None]

        # reproduce stored samples exactly where s coincides with a node
        req = np.atleast_1d(s)
        pos = np.clip(np.searchsorted(self.abscissae, req), 0, self.abscissae.size - 1)
        hit = self.abscissae[pos] == req
        if hit.any():
            out[:, hit] = self.states[pos[hit]][:, rows].T
        return out[:, 0] if s.ndim == 0 else out


def integrate_ode(rhs, initial, span, tol=1e-10, max_step=np.inf, first_step=None, events=None):
    """Integrate ``y' = rhs(s, y)`` over ``span`` with local tolerance ``tol``.

    Parameters
    ----------
    rhs : callable
        Vector field ``rhs(s, y) -> array``.
    initial : array_like
        State at ``span[0]``.
    span : tuple
        ``(s0, s1)`` with ``s1 > s0``.
    tol : float
        Relative and absolute local error target (> 0).
    events : list of callables, optional
        Scalar event functions ``g(s, y)``; attributes ``terminal`` and
        ``direction`` are honoured as in scipy.  Event hits are recorded on
        the returned trajectory as ``(s_event, y_event)`` per event function.

    Raises
    ------
    IntegrationFailureError
        If the step size controller underflows (stiff blow-up); the error
        carries the last successfully integrated abscissa.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be > 0")
    s0, s1 = float(span[0]), float(span[1])
    if not s1 > s0:
        raise InvalidInputError("span must satisfy s1 > s0")
    y0 = np.atleast_1d(np.asarray(initial, dtype=float))

    sol = solve_ivp(
        rhs,
        (s0, s1),
        y0,
        method="RK45",
        dense_output=True,
        rtol=tol,
        atol=tol,
        max_step=max_step,
        first_step=first_step,
        events=events,
    )
    if sol.status == -1:
        last = sol.t[-1] if sol.t.size else s0
        raise IntegrationFailureError(sol.message, last_s=last)

    hits = []
    if events is not None:
        for k in range(len(events)):
            if sol.t_events[k].size:
                hits.append((float(sol.t_events[k][0]), sol.y_events[k][0].copy()))
            else:
                hits.append(None)

    return OdeTrajectory(
        abscissae=sol.t.copy(),
        states=sol.y.T.copy(),
        interpolation_order=4,
        events=hits,
        _sol=sol.sol,
    )
