"""Finite-difference spectra of axisymmetric layers by partial waves."""

from .mesh import build_mesh
from .assemble import assemble_partial_wave, transverse_ground
from .solve import mesh_threshold, solve_spectrum, spectrum_with_refinement
from .counterexample import (
    cap_neumann_ground,
    counterexample_full,
    counterexample_radial,
    spherical_shell_ground,
)

__all__ = [
    "build_mesh",
    "assemble_partial_wave",
    "transverse_ground",
    "mesh_threshold",
    "solve_spectrum",
    "spectrum_with_refinement",
    "cap_neumann_ground",
    "counterexample_full",
    "counterexample_radial",
    "spherical_shell_ground",
]
