"""Surfaces with a pole in geodesic polar coordinates."""

from .charts import ChartGrid, uniform_theta
from .revolution import (
    MeridianSpec,
    RevolutionChart,
    RevolutionProfile,
    profile_from_height,
    revolution_from_meridian,
)
from .graph import FanChart, GraphSurface, geodesic_fan, graph_curvatures
from .totals import (
    gauss_bonnet_residual,
    ring_integral,
    total_abs_gauss,
    total_gauss,
    total_gauss_cartesian,
    total_grad_mean_sq,
    total_mean_sq,
)
from .hypotheses import asymptotic_flatness_verdict, hypotheses_report

__all__ = [
    "ChartGrid",
    "uniform_theta",
    "MeridianSpec",
    "RevolutionChart",
    "RevolutionProfile",
    "profile_from_height",
    "revolution_from_meridian",
    "FanChart",
    "GraphSurface",
    "geodesic_fan",
    "graph_curvatures",
    "gauss_bonnet_residual",
    "ring_integral",
    "total_abs_gauss",
    "total_gauss",
    "total_gauss_cartesian",
    "total_grad_mean_sq",
    "total_mean_sq",
    "asymptotic_flatness_verdict",
    "hypotheses_report",
]
