"""Numerical verdicts for the asymptotic-planarity and integrability boxes.

All verdicts here are sampled evidence, the report's sups and growth
constant scaled by the charts' one sup factor 1 + SUP_BAR, reported as
estimates, never as proofs.  A verdict is "pass", "fail", or "undecided"
when the evidence is non-monotone or rests on ring integrals that are not
angularly resolved.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import InvalidInputError
from ..numkernel import gauss_legendre, panelize
from .charts import SUP_BAR, read_rings
from .totals import (
    full_and_half,
    radial_gauss_partials,
    resolved_prefix,
    total_abs_gauss,
    total_gauss,
    total_grad_mean_sq,
)

_ZERO_FLOOR = 1e-10
# radii sampled per annulus by the quick flatness gate and by the full report
_FLATNESS_SAMPLES = 120
_REPORT_SAMPLES = 160
# the flatness gate's annulus edges, as fractions of the chart's s_max
_FLATNESS_EDGES = (0.0625, 0.125, 0.25, 0.5, 0.96)


@dataclass(frozen=True)
class HypothesisReport:
    """Verdicts with the numerical evidence that produced them."""

    sigma0: str
    sigma0_sup_K: np.ndarray
    sigma0_sup_M: np.ndarray
    annuli: np.ndarray
    sigma1: str
    sigma1_partials: np.ndarray
    sigma2: str
    sigma2_partials: np.ndarray
    growth_constant: float
    notes: list = field(default_factory=list)


def _decay_verdict(sups):
    """pass / fail / undecided for a sequence that should decrease to zero."""
    sups = np.asarray(sups)
    peak = sups.max()
    if peak <= _ZERO_FLOOR:
        return "pass"
    tail = sups[-3:]
    strictly = np.all(np.diff(tail) < -1e-9 * np.maximum(tail[:-1], _ZERO_FLOOR))
    if strictly and tail[-1] <= 0.75 * tail[0] + _ZERO_FLOOR:
        return "pass"
    if tail[-1] >= 0.85 * tail.max() and tail[-1] > 0.05 * peak:
        return "fail"
    return "undecided"


def _integral_verdict(estimate):
    if estimate.divergent:
        return "fail"
    if estimate.principal_value:
        return "undecided"
    return "pass"


def _sigma0_probe(chart, edges, samples_per_annulus, stride):
    """sup|K| and sup|M| on each annulus between consecutive ``edges``, sampled at
    ``samples_per_annulus`` radii on the rays theta_nodes[::stride] in one sweep, and
    whether K keeps one sign on every sample."""
    s = np.concatenate([np.linspace(lo, hi, samples_per_annulus)
                        for lo, hi in zip(edges[:-1], edges[1:])])
    rings = read_rings(chart, s, lambda g: np.stack(
        [np.abs(g.K).max(axis=1), np.abs(g.M).max(axis=1), g.K.max(axis=1), g.K.min(axis=1)],
        axis=1), stride=stride)
    sup_K, sup_M = rings[:, :2].reshape(-1, samples_per_annulus, 2).max(axis=1).T
    return sup_K, sup_M, rings[:, 2].max() <= 1e-12 or rings[:, 3].min() >= -1e-12


def _sigma0_verdict(sup_K, sup_M):
    """Combined verdict (fail if either fails, pass if both pass), sup|K|'s and sup|M|'s."""
    v_K, v_M = _decay_verdict(sup_K), _decay_verdict(sup_M)
    verdict = "fail" if "fail" in (v_K, v_M) else "pass" if v_K == v_M == "pass" else "undecided"
    return verdict, v_K, v_M


def _resolution_cut(radii, full, half, what, notes):
    """The leading radii at which the ring read ``what`` is angularly resolved.

    ``full`` and ``half`` are the read on its rays and on every other one,
    judged by :func:`resolved_prefix`.  A cut may not leave fewer than 4
    radii, so then it keeps them all.  Returns the kept radii and whether
    every kept radius is resolved; a note in ``notes`` says what was cut or kept.
    """
    n_ok = resolved_prefix(full, half)
    if n_ok == radii.size:
        return radii, True
    if n_ok >= 4:
        notes.append(f"probe radii beyond s = {radii[n_ok - 1]:g} dropped: "
                     f"{what} are not angularly resolved there")
        return radii[:n_ok], True
    listed = ", ".join(f"{r:g}" for r in radii[n_ok:])
    notes.append(f"probe radii s = {listed} kept though {what} are not angularly resolved there")
    return radii, False


def asymptotic_flatness_verdict(chart):
    """Quick decay verdict for sup|K|, sup|M| on a few annuli.

    Used as a gate by consumers whose conclusions presuppose that the
    essential spectrum starts at the transverse threshold.
    """
    edges = chart.s_max * np.array(_FLATNESS_EDGES)
    sup_K, sup_M, _ = _sigma0_probe(chart, edges, _FLATNESS_SAMPLES, chart.theta_stride_for(256))
    return _sigma0_verdict(sup_K, sup_M)[0]


def hypotheses_report(chart, probe_radii):
    """Check curvature decay, K-integrability, and |grad M|^2-integrability.

    Parameters
    ----------
    chart : polar chart
    probe_radii : increasing positive radii bounding the annuli to probe; the largest
        must not exceed the chart validity radius.

    The linear-growth constant C is estimated as the max over the sampled
    radii of (circumference integral of r)/s, times 1 + SUP_BAR.
    """
    probe_radii = np.asarray(probe_radii, dtype=float)
    if probe_radii.size < 4 or not np.all(np.diff(probe_radii) > 0):
        raise InvalidInputError("need at least 4 increasing probe radii")
    if probe_radii[0] <= 0:
        raise InvalidInputError("probe radii must be positive")
    if probe_radii[-1] > chart.s_max * (1 + 1e-12):
        raise InvalidInputError("probe radii exceed chart validity range")

    notes = []
    # drop radii beyond the ring's angular-resolution trust range (only a
    # fan's ring can fall short of it: a revolution ring is one column)
    probe_radii, _ = _resolution_cut(probe_radii, *radial_gauss_partials(chart, probe_radii),
                                     "fan ring integrals", notes)
    # the disk inside the first annulus counts for K's sign only
    sup_K, sup_M, sign_definite = _sigma0_probe(
        chart, np.r_[0.0, probe_radii[0] * 0.5, probe_radii], _REPORT_SAMPLES, 1)
    sup_K, sup_M = (1.0 + SUP_BAR) * sup_K[1:], (1.0 + SUP_BAR) * sup_M[1:]
    sigma0, v_K, v_M = _sigma0_verdict(sup_K, sup_M)
    if sigma0 != "pass":
        notes.append(f"sup|K| verdict {v_K}, sup|M| verdict {v_M}")

    stride = chart.theta_stride_for(768)

    # K-integrability: when K sampled from the pole out keeps one sign (every
    # catalog graph does), |K| integrals equal |K integrals| and can use the exact per-ray
    # radial antiderivative, which is far more resolution-tolerant.
    if sign_definite:
        est1 = total_gauss(chart, probe_radii)
        est1 = replace(est1, value=abs(est1.value), partials=np.abs(est1.partials))
    else:
        est1 = total_abs_gauss(chart, probe_radii, stride=stride)
    sigma1 = _integral_verdict(est1)

    # the same cut on the grad-M ring, whose integrability evidence is void
    # where the fan does not resolve it
    rings = read_rings(chart, probe_radii, lambda g: full_and_half(g.grad_M_sq * g.r), stride)
    full, half = 2.0 * np.pi * rings.T
    sigma2_radii, resolved = _resolution_cut(probe_radii, full, half, "grad-M ring integrals", notes)
    est2 = total_grad_mean_sq(chart, sigma2_radii, stride=stride)
    sigma2 = _integral_verdict(est2) if resolved else "undecided"

    # growth estimate for the circumference: int r dtheta <= C s
    quad = gauss_legendre(8, panelize(probe_radii[0] * 1e-3, probe_radii[-1], first=probe_radii[0] / 4))
    circ = read_rings(chart, quad.nodes, lambda g: g.r.mean(axis=1)) * 2.0 * np.pi
    growth_C = (1.0 + SUP_BAR) * float(np.max(circ / quad.nodes))

    return HypothesisReport(
        sigma0=sigma0, sigma0_sup_K=sup_K, sigma0_sup_M=sup_M, annuli=probe_radii,
        sigma1=sigma1, sigma1_partials=est1.partials,
        sigma2=sigma2, sigma2_partials=est2.partials,
        growth_constant=growth_C, notes=notes,
    )
