"""Composite Gauss-Legendre quadrature on explicit panels.

An n-point Gauss-Legendre rule is exact for polynomials of degree 2n-1 on
each panel, so placing panel boundaries on the kinks of a piecewise-smooth
integrand restores spectral accuracy.

:func:`adaptive_gauss` refines such a rule panel by panel, in the spirit of
QUADPACK (Piessens et al. 1983): every panel is integrated by a nested pair
of Gauss rules, and only the panels on which the pair disagrees are
bisected.  Initial boundaries (kinks, breakpoints) are kept throughout.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError

# bisection passes of adaptive_gauss at most (a panel splits into <= 64)
_MAX_DEPTH = 6


@dataclass(frozen=True)
class QuadratureGrid:
    """Flattened nodes/weights of a composite Gauss-Legendre rule.

    ``nodes`` are ordered panel by panel; ``weights`` are positive and sum
    to the total panel length; ``panels`` holds the monotone boundaries.
    """

    nodes: np.ndarray
    weights: np.ndarray
    panels: np.ndarray

    def integrate(self, f):
        """Integrate a callable evaluated on all nodes at once."""
        return float(np.dot(self.weights, f(self.nodes)))

    def integrate_samples(self, values, axis=-1):
        """Contract sampled values (last axis = node axis by default)."""
        values = np.asarray(values)
        return np.tensordot(values, self.weights, axes=([axis], [0]))


def gauss_legendre(points_per_panel, panels):
    """Build a composite Gauss-Legendre rule.

    Parameters
    ----------
    points_per_panel : int
        Nodes per panel, >= 1.
    panels : array_like
        Strictly increasing panel boundaries, at least two entries.
    """
    if points_per_panel < 1:
        raise InvalidInputError("points_per_panel must be >= 1")
    panels = np.asarray(panels, dtype=float)
    if panels.ndim != 1 or panels.size < 2:
        raise InvalidInputError("panels must be a 1-d list with at least two boundaries")
    if not np.all(np.diff(panels) > 0.0):
        raise InvalidInputError("panels must be strictly increasing")
    nodes, weights = _panel_rule(points_per_panel, panels[:-1], panels[1:])
    return QuadratureGrid(nodes=nodes.ravel(), weights=weights.ravel(), panels=panels)


def _panel_rule(points_per_panel, lo, hi):
    """Gauss-Legendre nodes and weights, shape (panels, points), on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(points_per_panel)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


@dataclass(frozen=True)
class AdaptiveIntegral:
    """Per-panel integrals of a vector density after adaptive refinement.

    ``panels`` holds the final monotone boundaries; ``coarse`` and ``fine``
    have shape (panels, components) and hold the lower- and higher-order
    rule values on each final panel; ``depth`` counts the bisection passes.
    """

    panels: np.ndarray
    coarse: np.ndarray
    fine: np.ndarray
    depth: int

    @property
    def value(self):
        """Higher-order integral of every component."""
        return self.fine.sum(axis=0)

    @property
    def gap(self):
        """Sum over panels of |fine - coarse|, per component."""
        return np.abs(self.fine - self.coarse).sum(axis=0)


def adaptive_gauss(density, panels, orders, rel_tol, judged=None):
    """Integrate a vector density, bisecting only unconverged panels.

    Parameters
    ----------
    density : callable
        ``density(nodes, level)`` returns samples of shape
        (components, nodes.size) for the rule ``orders[level]``; the level
        lets the caller refine other (e.g. transverse) rules alongside.
    panels : array_like
        Initial strictly increasing boundaries; all of them are kept.
    orders : (int, int)
        Points per panel of the coarse and the fine rule.
    rel_tol : float
        A panel converges when, in every judged component, its two rule
        values differ by at most ``rel_tol`` times the accumulated
        sum over judged components of |fine integral|.
    judged : sequence of int, optional
        Components that drive refinement (all by default).  Components left
        out are integrated on the same panels but never force a split.

    After ``_MAX_DEPTH`` bisection passes the panels still open are
    accepted as they are; their gaps stay in :attr:`AdaptiveIntegral.gap`.
    """
    panels = np.asarray(panels, dtype=float)
    gauss_legendre(orders[0], panels)  # validates the boundaries
    judged = slice(None) if judged is None else list(judged)
    lo, hi = panels[:-1], panels[1:]
    done_lo, done_hi, done_coarse, done_fine = [], [], [], []
    accepted = 0.0
    for depth in range(_MAX_DEPTH + 1):
        values = []
        for level, n in enumerate(orders):
            nodes, weights = _panel_rule(n, lo, hi)
            # C order: the weighted sums below must not depend on the layout
            samples = np.ascontiguousarray(density(nodes.ravel(), level), dtype=float)
            samples = samples.reshape(-1, lo.size, n)
            values.append(np.einsum("kpn,pn->pk", samples, weights))
        coarse, fine = values
        scale = np.abs(accepted + fine.sum(axis=0))[judged].sum()
        ok = np.all(np.abs(fine - coarse)[:, judged] <= rel_tol * scale, axis=1)
        if depth == _MAX_DEPTH:
            ok[:] = True
        done_lo.append(lo[ok])
        done_hi.append(hi[ok])
        done_coarse.append(coarse[ok])
        done_fine.append(fine[ok])
        accepted = accepted + fine[ok].sum(axis=0)
        if ok.all():
            break
        mid = 0.5 * (lo[~ok] + hi[~ok])
        lo, hi = np.sort(np.r_[lo[~ok], mid]), np.sort(np.r_[mid, hi[~ok]])
    lo, hi = np.concatenate(done_lo), np.concatenate(done_hi)
    order = np.argsort(lo)
    return AdaptiveIntegral(
        panels=np.append(lo[order], hi[order][-1]),
        coarse=np.concatenate(done_coarse)[order],
        fine=np.concatenate(done_fine)[order],
        depth=depth,
    )


def geometric_panels(lo, hi, first, ratio=2.0):
    """Panel boundaries from ``lo`` to ``hi`` with geometrically growing width.

    The first panel has width <= ``first``; subsequent widths grow by at most
    ``ratio``.  Useful for integrands that decay over several decades.
    """
    if not hi > lo:
        raise InvalidInputError("need hi > lo")
    if first <= 0 or ratio <= 1.0:
        raise InvalidInputError("need first > 0 and ratio > 1")
    bounds = [lo]
    width = min(first, hi - lo)
    while bounds[-1] + width < hi:
        bounds.append(bounds[-1] + width)
        width *= ratio
    bounds.append(hi)
    # merge a trailing sliver into the previous panel
    if len(bounds) > 2 and (bounds[-1] - bounds[-2]) < 0.25 * (bounds[-2] - bounds[-3]):
        del bounds[-2]
    return np.asarray(bounds)


def panelize(lo, hi, breakpoints=(), first=None):
    """Geometric panels on [lo, hi] with boundaries forced onto breakpoints.

    Breakpoints outside (lo, hi) are ignored.  Between consecutive anchors
    the spacing doubles away from the left anchor.
    """
    anchors = [lo] + sorted(b for b in breakpoints if lo < b < hi) + [hi]
    if first is None:
        first = (anchors[1] - anchors[0]) / 4.0
    bounds = [lo]
    for left, right in zip(anchors[:-1], anchors[1:]):
        seg = geometric_panels(left, right, first=min(first, (right - left) / 2.0))
        bounds.extend(seg[1:])
    return np.asarray(bounds)
