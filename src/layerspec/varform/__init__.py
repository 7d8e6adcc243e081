"""Variational certification of discrete spectrum below the threshold."""

from .trials import (
    RadialBump,
    RadialFactor,
    TrialFunction,
    combine,
    default_bump,
    deformation_trial,
    deformed_trial,
    derphi_integral,
    epsilon_choice,
    gj_trial,
    log_pairing,
    symmetric_log_trial,
    thin_trial,
)
from .form import (
    bilinear_shifted,
    bump_mean_curvature_pairing,
    evaluate_form,
    mixed_term,
    surface_pairing,
)
from .certify import certify

__all__ = [
    "RadialBump",
    "RadialFactor",
    "TrialFunction",
    "combine",
    "default_bump",
    "deformation_trial",
    "deformed_trial",
    "derphi_integral",
    "epsilon_choice",
    "gj_trial",
    "log_pairing",
    "symmetric_log_trial",
    "thin_trial",
    "bilinear_shifted",
    "bump_mean_curvature_pairing",
    "evaluate_form",
    "mixed_term",
    "surface_pairing",
    "certify",
]
