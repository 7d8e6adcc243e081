"""Certificate search: drive the trial families until the shifted form goes
negative with margin.

A certificate is numerical evidence of discrete spectrum below the
transverse threshold: a concrete admissible trial whose shifted form value
is negative beyond its quadrature error bar (margin = |value|/error >= 3).

The families (``FAMILIES``), when each applies, and the steps it sweeps:

- goldstone_jaffe, total Gauss curvature <= 0: the mollifier width sigma;
- deformed, total Gauss curvature = 0: every 4th sigma, with the deformation
  amplitude that minimises the form;
- thin, always: sigma, for the trial (1 + M u) psi_sigma;
- symmetric_log, revolution charts: the log-ramp order n.

One loop in :func:`certify` runs every family's steps under the same budget
and error rules; the first certified evaluation ends the search, otherwise
the best (smallest) value observed is reported as "not-found".
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import (
    CapabilityError,
    DegeneratePairingError,
    HypothesisViolationError,
    TruncationError,
)
from ..surface import asymptotic_flatness_verdict, total_gauss
from .form import bilinear_shifted, evaluate_form
from .trials import (
    default_bump,
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
    norm_error: float
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


def _inside_chart(layer, trial):
    if trial.support[1] >= layer.chart.s_max:
        raise TruncationError("support exceeds chart")
    return trial


# A family's steps are (cost, params, run): ``cost`` bounds the form
# evaluations ``run()`` makes, ``params`` labels the step's row, and ``run()``
# returns (FormEvaluation, row params).  The loop runs each step before it
# asks the generator for the next, so the closures see their own loop values.

def _mollified_steps(make_trial):
    """The mollifier-width sweep of a (layer, s0, sigma) trial family."""
    def steps(layer, s0):
        for sigma in _SIGMA_GRID:
            params = {"sigma": sigma, "s0": s0}

            def run():
                trial = _inside_chart(layer, make_trial(layer, s0=s0, sigma=sigma))
                return evaluate_form(layer, trial), params

            yield 1, params, run
    return steps


def _deformed_steps(layer, s0):
    """psi_sigma + eps * Theta, eps minimising the form, at every 4th sigma.

    The bump sits inside the plateau s < s0, so Theta and Q~[Theta] do not
    depend on sigma: the first step builds them (one evaluation more) and the
    rest reuse them.  Each step evaluates the mixed term by polarization (two
    evaluations) and the deformed trial (one).
    """
    bump = theta = q_theta = None
    for sigma in _SIGMA_GRID[::4]:
        params = {"sigma": sigma, "s0": s0}

        def run():
            nonlocal bump, theta, q_theta
            base = _inside_chart(layer, gj_trial(layer, s0, sigma))
            if theta is None:
                bump = default_bump(layer, s0)
                theta = deformation_trial(layer, s0, bump=bump)
                q_theta = evaluate_form(layer, theta).q_tilde
            if q_theta <= 0:
                raise CapabilityError(f"deformation form {q_theta:.6g} is not positive: "
                                      "no amplitude minimises the form")
            mixed, _ = bilinear_shifted(layer, base, theta)
            eps = -mixed / q_theta
            fe = evaluate_form(layer, deformed_trial(layer, sigma, s0, eps, bump=bump))
            return fe, {**params, "eps": eps}

        yield (4 if theta is None else 3), params, run


def _log_steps(layer, s0):
    """The logarithmic ramps of order n, supported up to n^3."""
    for n in _LOG_N_GRID:
        def run():
            if float(n) ** 3 > layer.chart.s_max:
                raise TruncationError("support exceeds chart")
            eps = epsilon_choice(layer, n)
            return evaluate_form(layer, symmetric_log_trial(layer, n, eps)), {"n": n, "eps": eps}

        yield 1, {"n": n}, run


# family -> (applies(layer, total Gauss curvature), why it is skipped otherwise,
# steps(layer, s0))
FAMILIES = {
    "goldstone_jaffe": (lambda layer, k_tot: k_tot <= _K_TOT_ZERO,
                        "total Gauss curvature is positive", _mollified_steps(gj_trial)),
    "deformed": (lambda layer, k_tot: abs(k_tot) <= _K_TOT_ZERO,
                 "total Gauss curvature is not zero", _deformed_steps),
    "thin": (lambda layer, k_tot: True, None, _mollified_steps(thin_trial)),
    "symmetric_log": (lambda layer, k_tot: layer.chart.rotation_invariant,
                      "chart is not a revolution chart", _log_steps),
}


def certify(layer, strategies=tuple(FAMILIES), budget=40, s0=None):
    """Search the requested families for a negative shifted-form value.

    Families run in the order of ``strategies``, each only where the
    module's family table says it applies.  ``budget`` bounds the form
    evaluations of each family: a step that could take its family past it
    does not start, and a polarization counts as two evaluations.

    Every step appends a row (family, params, q_tilde, error, note) to
    ``evaluations``.  A DegeneratePairingError skips the step.  A
    TruncationError (a support beyond the chart included), a CapabilityError
    or the budget ends the family with a row saying why.  Any other
    LayerSpecError propagates.

    A negative shifted form certifies spectrum below the transverse
    threshold only where that threshold is the essential bottom, i.e. for
    asymptotically planar surfaces; layers failing the decay probe are
    rejected up front.

    Raises CapabilityError when no requested family is applicable.
    """
    if not layer.omega1_ok:
        raise CapabilityError("certification requires the half-width check to pass")
    s0 = s0 if s0 is not None else _default_s0(layer)
    rows = []
    notes = []
    flatness = asymptotic_flatness_verdict(layer.chart)
    if flatness == "fail":
        raise HypothesisViolationError(
            "surface is not asymptotically planar: a negative shifted form "
            "would not certify discrete spectrum here"
        )
    if flatness != "pass":
        notes.append(f"asymptotic flatness probe: {flatness}")

    k_tot = None
    if "goldstone_jaffe" in strategies or "deformed" in strategies:
        est = _total_gauss_value(layer)
        k_tot = est.value
        notes.append(f"total Gauss curvature estimate {k_tot:.6g} (error {est.error_bound:.2g})")

    best = None  # (FormEvaluation, family, params)
    certified = False
    for family in strategies:
        if family not in FAMILIES:
            raise CapabilityError(f"unknown strategy {family!r}")
        applies, why_not, steps = FAMILIES[family]
        if not applies(layer, k_tot):
            notes.append(f"{family} skipped: {why_not}")
            continue
        spent = 0
        for cost, params, run in steps(layer, s0):
            if spent + cost > budget:
                rows.append((family, params, None, None, f"next step exceeds budget {budget}"))
                break
            try:
                fe, params = run()
            except DegeneratePairingError as exc:
                rows.append((family, params, None, None, str(exc)))
                continue
            except (TruncationError, CapabilityError) as exc:
                rows.append((family, params, None, None, str(exc)))
                break
            spent += cost
            rows.append((family, params, fe.q_tilde, fe.error, ""))
            certified = _is_certified(fe)
            if certified or best is None or fe.q_tilde < best[0].q_tilde:
                best = (fe, family, params)
            if certified:
                break
        if certified:
            break

    if not rows:  # every family that runs leaves a row
        raise CapabilityError(
            "no requested certification family is applicable: " + "; ".join(notes)
        )
    fe, family, params = best or (None, "none", {})
    q_tilde, error, norm_sq, norm_error = (
        (fe.q_tilde, fe.error, fe.norm_sq, fe.norm_error) if fe else (np.nan,) * 4)
    return Certificate(
        verdict="certified" if certified else "not-found", family=family, params=params,
        q_tilde=q_tilde, error=error, norm_sq=norm_sq, norm_error=norm_error,
        margin=abs(q_tilde) / max(error, 1e-300) if fe else 0.0,
        evaluations=tuple(rows), notes=tuple(notes),
    )
