"""Evaluation of the shifted quadratic form on the layer.

For a trial Psi the form splits into the longitudinal part Q1 (surface-index
gradient contracted with the inverse layer metric), the transverse part Q2,
and the weighted norm, all integrated against sqrt(G) = sqrt(g) f du.

The shifted combination Q2 - kappa1^2 |Psi|^2 is assembled from a single
integrand before any spatial quadrature: its transverse moments cancel the
O(kappa1^2) bulk exactly per surface point, which keeps the small shifted
value free of the cancellation noise the two large pieces would otherwise
leave behind.

Error estimates come from nested refinement.  Every radial panel is
integrated by a coarse and a fine radial/transverse rule pair, and panels on
which the pair disagrees (relative to the accumulated Q1, shifted Q2 and
norm) are bisected until it agrees.  Every read also sums Q1, the norm and
the shifted Q2 on every other ray of its ring, and the reported error is the
sum of the remaining per-panel gaps plus the shift between the two rings.
An integrand of width 1 (chart fields and trial terms all (Ns, 1) columns)
takes the single theta weight 2 pi, and its half ring is its full ring.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError, TruncationError
from ..numkernel import adaptive_gauss, gauss_legendre, panelize
from ..surface import ring_integral
from ..surface.charts import read_rings
from .trials import combine, deformation_trial, gj_trial

# Gauss points of the coarse rules: across the width (-a, a) and per
# radial panel; the fine rules take 8 and 6 more
_U_POINTS = 24
_S_POINTS = 14
# radial panels are bisected until the coarse and fine rules agree to this
# fraction of the accumulated judged integrals
_PANEL_REL_TOL = 1e-7
# rays of the angular ring a form evaluation reads (about this many)
_THETA_RAYS = 192
# components of the radial densities returned by _evaluate: the full ring,
# then the same three on every other ray of it
_Q1, _NORM, _Q2S, _Q1_HALF, _NORM_HALF, _Q2S_HALF = range(6)


@dataclass(frozen=True)
class FormEvaluation:
    """Decomposed shifted form values with quadrature error estimates.

    ``error`` bounds ``q_tilde`` and ``norm_error`` bounds ``norm_sq``, each
    by the same rule: the remaining panel gaps plus the half-ring shift.
    """

    q1: float
    norm_sq: float
    kappa1_sq: float
    q_tilde: float
    error: float
    norm_error: float

    @property
    def rayleigh_shift(self):
        """Q_tilde / |Psi|^2: the certified upper bound on lambda_0 - kappa1^2."""
        return self.q_tilde / self.norm_sq


def _u_rule(layer, n_u):
    quad = gauss_legendre(n_u, [-layer.a, layer.a])
    chi = layer.transverse_mode(1)
    u = quad.nodes
    profiles = {
        "chi1": (chi(u), chi.derivative(u)),
        "u_chi1": (u * chi(u), chi(u) + u * chi.derivative(u)),
    }
    return u, quad.weights, profiles


def transverse_moments(layer):
    """Closed-form u-moments of the profile pairs over (-a, a).

    For B1 = chi1 and B2 = u chi1, returns, per ordered pair, the moments
    (m0, m1, m2) of B_i B_j u^m ("mass") and of (B_i' B_j' - kappa1^2 B_i B_j)
    u^m ("shift").  Contracting (m0, m1, m2) with (1, -2M, K) integrates the
    pair against the determinant factor.
    The shifted moments are the reason the threshold-scale bulk cancels
    exactly: their (1,1) entry is (0, 0, 1), leaving only curvature terms.
    """
    a = layer.a
    pi2 = np.pi**2
    c2 = a**2 * (pi2 - 6.0) / (3.0 * pi2)
    c4 = a**4 / 5.0 - 4.0 * a**4 * (pi2 - 6.0) / pi2**2
    mass = {(1, 1): (1.0, 0.0, c2), (1, 2): (0.0, c2, 0.0), (2, 2): (c2, 0.0, c4)}
    shift = {(1, 1): (0.0, 0.0, 1.0), (1, 2): (0.0, 0.5, 0.0), (2, 2): (1.0, 0.0, 4.0 * c2)}
    return mass, shift


def _s_panels(layer, trial):
    lo, hi = trial.support
    hi = min(hi, layer.chart.s_max)
    if lo >= hi:
        raise TruncationError("trial support does not intersect the chart")
    breaks = tuple(sorted(set(trial.s_breakpoints) | set(layer.chart.s_kinks)))
    return panelize(lo, hi, breakpoints=breaks, first=max((hi - lo) / 64.0, 1e-9))


def _evaluate(layer, trial, grid, n_u):
    """Radial densities on the rings of ``grid``, shape (Ns, 6), ``_Q1`` ... ``_Q2S_HALF``.

    Each density is integrated over theta and u but not over s.  The theta
    rule spans the broadcast width of the chart and term fields; a half-ring
    density sums every other column of the same weighted products and
    rescales by width / ceil(width / 2), exactly 1 at width 1.  The moment
    tables (norm, shifted Q2) are summed term pair by term pair; Q1 takes a
    Gauss rule in u.
    """
    r = grid.r
    K, M = grid.K, grid.M
    ii_ss, ii_st, ii_tt = grid.ii_ss, grid.ii_st, grid.ii_tt
    r2 = r**2

    fields = [term.surface_eval(grid) for term in trial.terms]
    integrand = (r, K, M, ii_ss, ii_st, ii_tt, *(a for f in fields for a in f))
    width = np.broadcast_shapes(*(a.shape for a in integrand))[1]
    w_theta = np.full(width, 2.0 * np.pi / width)
    idx = [1 if term.u_profile == "chi1" else 2 for term in trial.terms]

    # transverse direction analytically: the norm and above all the
    # shifted combination Q2 - kappa1^2 |Psi|^2 use the closed u-moments,
    # whose (chi1, chi1) shift entry removes the threshold-scale bulk
    # exactly per surface point
    tables = transverse_moments(layer)
    full = np.zeros((len(tables), r.shape[0]))
    half = np.zeros((len(tables), r.shape[0]))  # every other ray
    for ia, (Ai, _, _) in zip(idx, fields):
        for jb, (Aj, _, _) in zip(idx, fields):
            key = (min(ia, jb), max(ia, jb))
            pair = w_theta * Ai * Aj * r
            for t, moments in enumerate(tables):
                p0, p1, p2 = moments[key]
                product = pair * (p0 - 2.0 * M * p1 + K * p2)
                full[t] += np.sum(product, axis=1)
                half[t] += np.sum(product[:, ::2], axis=1)
    (norm, q2_shift), (norm_h, q2_shift_h) = full, half

    # longitudinal part by transverse quadrature (no cancellation there):
    # contract the surface gradient with the inverse metric block weighted
    # by sqrt(G) at each u node
    u_nodes, w_u, profiles = _u_rule(layer, n_u)
    q1 = q1_h = 0.0
    for iu, (u, wu) in enumerate(zip(u_nodes, w_u)):
        psi_s = psi_t = 0.0
        for (A, As, At), term in zip(fields, trial.terms):
            B, _ = profiles[term.u_profile]
            psi_s = psi_s + As * B[iu]
            psi_t = psi_t + At * B[iu]
        f = 1.0 - 2.0 * M * u + K * u**2
        sqrtG = r * f
        # inverse of the 2x2 surface block G = g - 2u II + u^2 II g^{-1} II
        G11 = 1.0 - 2.0 * u * ii_ss + u**2 * (ii_ss**2 + ii_st**2 / r2)
        G12 = -2.0 * u * ii_st + u**2 * (ii_ss * ii_st + ii_st * ii_tt / r2)
        G22 = r2 - 2.0 * u * ii_tt + u**2 * (ii_st**2 + ii_tt**2 / r2)
        det = sqrtG**2
        grad_sq = (psi_s**2 * G22 - 2.0 * psi_s * psi_t * G12 + psi_t**2 * G11) / det
        product = w_theta * grad_sq * sqrtG
        q1 += wu * np.sum(product, axis=1)
        q1_h += wu * np.sum(product[:, ::2], axis=1)
    scale = width / ((width + 1) // 2)  # every other ray's weight over 2 pi / width
    return np.stack([q1, norm, q2_shift, q1_h * scale, norm_h * scale, q2_shift_h * scale], axis=1)


def evaluate_form(layer, trial):
    """Q1, |Psi|^2 and the shifted form for one trial, with error bars.

    The integration domain is the trial's support (clipped to the chart)
    times the full angle times (-a, a); radial panels break at the trial's
    kinks and at any chart kinks.
    """
    if not layer.omega1_ok:
        raise InvalidInputError("form evaluation requires the layer width check to pass")
    stride = layer.chart.theta_stride_for(_THETA_RAYS)
    n_u_pair = (_U_POINTS, _U_POINTS + 8)

    def density(nodes, level):
        return read_rings(layer.chart, nodes, lambda g: _evaluate(layer, trial, g, n_u_pair[level]),
                          stride).T

    adapt = adaptive_gauss(density, _s_panels(layer, trial), orders=(_S_POINTS, _S_POINTS + 6),
                           rel_tol=_PANEL_REL_TOL, judged=(_Q1, _NORM, _Q2S))
    value, gap = adapt.value, adapt.gap
    q1_f, norm_f, q2s_f = map(float, value[:_Q1_HALF])
    # the half-ring shift, 0 on a one-column integrand
    err = (gap[_Q1] + gap[_Q2S] + abs(value[_Q1_HALF] - value[_Q1])
           + abs(value[_Q2S_HALF] - value[_Q2S]))
    norm_err = gap[_NORM] + abs(value[_NORM_HALF] - value[_NORM])

    q_tilde = q1_f + q2s_f
    if not np.isfinite(q_tilde):
        raise InvalidInputError("non-finite integrand in form evaluation")
    return FormEvaluation(
        q1=q1_f, norm_sq=norm_f, kappa1_sq=layer.kappa1_sq,
        q_tilde=q_tilde, error=float(err), norm_error=float(norm_err),
    )


def bilinear_shifted(layer, t1, t2):
    """Polarization value Q~(t1, t2) = (Q~[t1+t2] - Q~[t1-t2]) / 4."""
    plus = evaluate_form(layer, combine(t1, t2, 1.0, 1.0))
    minus = evaluate_form(layer, combine(t1, t2, 1.0, -1.0))
    value = 0.25 * (plus.q_tilde - minus.q_tilde)
    return value, 0.25 * (plus.error + minus.error)


def surface_pairing(layer, radial, weight):
    """(phi, W phi)_g = int phi^2 W r ds dtheta for a radial factor phi.

    The weight is a callable on the chart grid (e.g. lambda g: g.K); this is
    the independent surface-quadrature side of the transverse identities.
    It is one :func:`ring_integral` over the support of phi, with panels
    breaking at phi's and the chart's kinks.
    """
    chart = layer.chart
    lo, hi = radial.support
    hi = min(hi, chart.s_max)
    panels = panelize(lo, hi, breakpoints=tuple(radial.breakpoints) + tuple(chart.s_kinks),
                      first=max((hi - lo) / 64.0, 1e-9))
    pairing = ring_integral(chart, lambda g: weight(g) * radial.value(g.s)[:, None] ** 2, panels)
    return float(pairing.value[0])


def mixed_term(layer, sigma, s0, bump=None):
    """The polarization form between the deformation and the mollified trial.

    Equals -(j, M)_g whenever the bump sits inside the plateau; computed
    here by polarization of the shifted form, so tests can compare it with
    the independent surface quadrature of the mean-curvature pairing.
    """
    base = gj_trial(layer, s0, sigma)
    theta = deformation_trial(layer, s0, bump=bump)
    value, _ = bilinear_shifted(layer, base, theta)
    return value


def bump_mean_curvature_pairing(layer, bump):
    """(j, M)_g for a bump: the surface-quadrature oracle side."""
    panels = panelize(bump.lo, bump.hi, first=(bump.hi - bump.lo) / 8.0)
    pairing = ring_integral(layer.chart, lambda g: bump.values(g)[0] * g.M, panels)
    return float(pairing.value[0])
