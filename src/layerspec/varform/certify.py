"""Certificate search: drive the trial families until the shifted form goes
negative with margin.

A certificate is numerical evidence of discrete spectrum below the
transverse threshold: a concrete admissible trial whose shifted form value
is negative beyond its quadrature error bar (margin = |value|/error >= 3).
Strategies run in a fixed order, each sweeping its own parameter; the first
certified evaluation wins, otherwise the best (smallest) value observed is
reported as "not-found".
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    CapabilityError,
    DegeneratePairingError,
    HypothesisViolationError,
    LayerSpecError,
    TruncationError,
)
from ..surface import total_gauss
from .form import bilinear_shifted, evaluate_form
from .trials import (
    deformation_trial,
    deformed_trial,
    gj_trial,
    epsilon_choice,
    symmetric_log_trial,
    thin_trial,
)

_MARGIN = 3.0
_SIGMA_GRID = tuple(np.geomspace(1e-1, 1e-8, 29))
_LOG_N_GRID = (4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
_K_TOT_ZERO = 1e-3


@dataclass(frozen=True)
class Certificate:
    """Outcome of a certification run."""

    verdict: str  # "certified" | "not-found"
    family: str
    params: dict
    q_tilde: float
    error: float
    norm_sq: float
    margin: float
    evaluations: tuple = field(default_factory=tuple)
    notes: tuple = field(default_factory=tuple)

    @property
    def certified(self):
        return self.verdict == "certified"


def _is_certified(fe):
    return fe.q_tilde + fe.error < 0.0 and abs(fe.q_tilde) >= _MARGIN * fe.error


def _default_s0(layer):
    return float(min(5.0, max(1.0, layer.chart.s_max / 20.0)))


def _total_gauss_value(layer):
    # the sweep only needs the sign (and zero-detection) of the total Gauss
    # curvature; a moderate schedule keeps fan charts inside their angular
    # resolution range, and the ring the forms read (about 768 rays) keeps a
    # fan's fine ray level unshot
    S_end = min(layer.chart.s_max, 400.0)
    schedule = S_end * np.geomspace(1.0 / 32.0, 1.0, 6)
    return total_gauss(layer.chart, schedule, stride=layer.chart.theta_stride_for(768))


def _sweep_sigma(layer, s0, budget, rows, family, make_trial):
    """Sweep the mollifier width sigma of a (layer, s0, sigma) trial family."""
    best = None
    count = 0
    for sigma in _SIGMA_GRID:
        if count >= budget:
            break
        params = {"sigma": sigma, "s0": s0}
        try:
            trial = make_trial(layer, s0=s0, sigma=sigma)
            if trial.support[1] >= layer.chart.s_max:
                rows.append((family, params, None, None, "support exceeds chart"))
                break
            fe = evaluate_form(layer, trial)
        except (TruncationError, CapabilityError) as exc:
            rows.append((family, params, None, None, str(exc)))
            break
        count += 1
        rows.append((family, params, fe.q_tilde, fe.error, ""))
        if best is None or fe.q_tilde < best[0].q_tilde:
            best = (fe, params)
        if _is_certified(fe):
            return best, count, True
    return best, count, False


def _sweep_deformed(layer, s0, budget, rows):
    """Quadratic minimization in the deformation amplitude at each sigma."""
    best = None
    count = 0
    for sigma in _SIGMA_GRID[::4]:
        if count + 3 > budget:
            break
        try:
            base = gj_trial(layer, s0, sigma)
            if base.support[1] >= layer.chart.s_max:
                break
            theta = deformation_trial(layer, s0)
            fe_base = evaluate_form(layer, base)
            fe_theta = evaluate_form(layer, theta)
            mixed, mixed_err = bilinear_shifted(layer, base, theta)
            count += 3
            if fe_theta.q_tilde <= 0:
                continue
            eps_star = -mixed / fe_theta.q_tilde
            trial = deformed_trial(layer, sigma, s0, eps_star)
            fe = evaluate_form(layer, trial)
            count += 1
        except (TruncationError, LayerSpecError) as exc:
            rows.append(("deformed", {"sigma": sigma, "s0": s0}, None, None, str(exc)))
            break
        rows.append(("deformed", {"sigma": sigma, "s0": s0, "eps": eps_star}, fe.q_tilde, fe.error, ""))
        if best is None or fe.q_tilde < best[0].q_tilde:
            best = (fe, {"sigma": sigma, "s0": s0, "eps": eps_star})
        if _is_certified(fe):
            return best, count, True
    return best, count, False


def _sweep_symmetric_log(layer, budget, rows):
    best = None
    count = 0
    if not layer.chart.rotation_invariant:
        rows.append(("symmetric_log", {}, None, None, "not a revolution chart"))
        return best, count, False
    for n in _LOG_N_GRID:
        if count >= budget:
            break
        if float(n) ** 3 > layer.chart.s_max:
            rows.append(("symmetric_log", {"n": n}, None, None, "support exceeds chart"))
            break
        try:
            eps = epsilon_choice(layer, n)
            trial = symmetric_log_trial(layer, n, eps)
            fe = evaluate_form(layer, trial)
        except DegeneratePairingError as exc:
            rows.append(("symmetric_log", {"n": n}, None, None, str(exc)))
            continue
        except (TruncationError, LayerSpecError) as exc:
            rows.append(("symmetric_log", {"n": n}, None, None, str(exc)))
            break
        count += 1
        rows.append(("symmetric_log", {"n": n, "eps": eps}, fe.q_tilde, fe.error, ""))
        if best is None or fe.q_tilde < best[0].q_tilde:
            best = (fe, {"n": n, "eps": eps})
        if _is_certified(fe):
            return best, count, True
    return best, count, False


def certify(layer, strategies=("goldstone_jaffe", "deformed", "thin", "symmetric_log"),
            budget=40, s0=None, require_asymptotic_flatness=True):
    """Search the requested families for a negative shifted-form value.

    Strategy preconditions: the mollified family runs when the total Gauss
    curvature estimate is non-positive, the deformation family when it is
    numerically zero, the thin family whenever the chart exposes curvature
    gradients, the logarithmic family on revolution charts.  ``budget``
    bounds the number of form evaluations per family.

    A negative shifted form certifies spectrum below the transverse
    threshold only where that threshold is the essential bottom, i.e. for
    asymptotically planar surfaces; layers failing the decay probe are
    rejected up front unless ``require_asymptotic_flatness`` is cleared.

    Raises CapabilityError when no requested family is applicable.
    """
    from ..surface import asymptotic_flatness_verdict

    if not layer.omega1_ok:
        raise CapabilityError("certification requires the half-width check to pass")
    s0 = s0 if s0 is not None else _default_s0(layer)
    rows = []
    notes = []
    flatness = asymptotic_flatness_verdict(layer.chart)
    if flatness == "fail" and require_asymptotic_flatness:
        raise HypothesisViolationError(
            "surface is not asymptotically planar: a negative shifted form "
            "would not certify discrete spectrum here"
        )
    if flatness != "pass":
        notes.append(f"asymptotic flatness probe: {flatness}")
    best_overall = None
    applicable = 0

    k_tot = None
    if "goldstone_jaffe" in strategies or "deformed" in strategies:
        est = _total_gauss_value(layer)
        k_tot = est.value
        notes.append(f"total Gauss curvature estimate {k_tot:.6g} (error {est.error_bound:.2g})")

    for family in strategies:
        certified = False
        result = None
        if family == "goldstone_jaffe":
            if k_tot is not None and k_tot <= _K_TOT_ZERO:
                applicable += 1
                result, _, certified = _sweep_sigma(layer, s0, budget, rows, family, gj_trial)
            else:
                notes.append("goldstone_jaffe skipped: total Gauss curvature is positive")
        elif family == "deformed":
            if k_tot is not None and abs(k_tot) <= _K_TOT_ZERO:
                applicable += 1
                result, _, certified = _sweep_deformed(layer, s0, budget, rows)
            else:
                notes.append("deformed skipped: total Gauss curvature is not zero")
        elif family == "thin":
            applicable += 1
            result, _, certified = _sweep_sigma(layer, s0, budget, rows, family, thin_trial)
        elif family == "symmetric_log":
            if layer.chart.rotation_invariant:
                applicable += 1
                result, _, certified = _sweep_symmetric_log(layer, budget, rows)
            else:
                notes.append("symmetric_log skipped: chart is not a revolution chart")
        else:
            raise CapabilityError(f"unknown strategy {family!r}")

        if result is not None:
            fe, params = result
            if best_overall is None or fe.q_tilde < best_overall[0].q_tilde:
                best_overall = (fe, family, params)
            if certified:
                return Certificate(
                    verdict="certified", family=family, params=params,
                    q_tilde=fe.q_tilde, error=fe.error, norm_sq=fe.norm_sq,
                    margin=abs(fe.q_tilde) / max(fe.error, 1e-300),
                    evaluations=tuple(rows), notes=tuple(notes),
                )

    if applicable == 0:
        raise CapabilityError(
            "no requested certification family is applicable: " + "; ".join(notes)
        )
    if best_overall is None:
        return Certificate(
            verdict="not-found", family="none", params={}, q_tilde=np.nan,
            error=np.nan, norm_sq=np.nan, margin=0.0,
            evaluations=tuple(rows), notes=tuple(notes),
        )
    fe, family, params = best_overall
    return Certificate(
        verdict="not-found", family=family, params=params, q_tilde=fe.q_tilde,
        error=fe.error, norm_sq=fe.norm_sq,
        margin=abs(fe.q_tilde) / max(fe.error, 1e-300),
        evaluations=tuple(rows), notes=tuple(notes),
    )
