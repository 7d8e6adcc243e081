"""The capped-cylinder layer: a geometry with no discrete spectrum.

The layer over a semi-cylinder of radius R closed by a hemisphere has its
whole spectrum filled from the cylindrical end.  The bottom eps_1 is the
lowest Dirichlet eigenvalue of the radial operator -d^2/dr^2 - 1/(4 r^2)
on the interval (R - a, R + a), which sits strictly below the transverse
threshold.  It is a dense Galerkin eigenvalue in Legendre modes that
vanish at both walls (Shen, SIAM J. Sci. Comput. 15, 1994); their count is
doubled until two values agree, and the bar is the last change.  The
hemispherical cap alone contributes the threshold itself: the full
spherical shell's ground state is (pi/(2a))^2 in closed form.
Truncated-domain eigensolves (FD on the strip) are counted against
eps1_mesh, the ground of the strips' own u stencil on the cylinder, which
is where a long strip's discrete spectrum starts.  They must land at or
above it, and that is numerical evidence only: Dirichlet truncation yields
upper bounds, never an existence proof.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from ..catalog import build_chart
from ..errors import InvalidInputError
from ..layer import LayerSpec
from ..numkernel import gauss_legendre
from .assemble import assemble_partial_wave, transverse_ground
from .mesh import build_mesh
from .solve import solve_spectrum


# Legendre modes of the eps_1 solve: the first count, doubled up to the cap
_RADIAL_MODES, _RADIAL_MODES_CAP = 16, 128
# relative agreement of two mode counts that stops the doubling
_RADIAL_RTOL = 1e-12
# relative floor of eps_1's bar: once converged, the values at 16 to 256
# modes scatter by up to 1.6e-14 relative in rounding, more than the last
# change at the default (2.6e-15)
_RADIAL_ROUNDING = 1e-13
# mesh of cap_neumann_ground's hemispherical segment
_CAP_N_S, _CAP_N_U = 200, 40
# eigenvalues solved on each truncation (the lowest two)
_TRUNCATION_EIGS = 2


def _radial_modes_ground(R, a, n):
    """Lowest eigenvalue of -f'' - f/(4 r^2) on (R-a, R+a) in n Legendre modes."""
    quad = gauss_legendre(2 * n, [R - a, R + a])
    r, w = quad.nodes, quad.weights
    P = np.polynomial.legendre.legvander((r - R) / a, n + 1)
    k = np.arange(1, n + 1)
    # P_{k+1} - P_{k-1} vanishes at both walls and has derivative (2k+1) P_k
    # in x = (r - R)/a, so these scaled modes have int f_j' f_k' dr = delta_jk
    modes = (P[:, 2:] - P[:, :-2]) * np.sqrt(a / (2.0 * (2 * k + 1)))
    mass = (modes * w[:, None]).T @ modes
    energy = np.eye(n) - (modes * (0.25 * w / r**2)[:, None]).T @ modes
    # the top of mass x = mu energy x is 1/eps_1: energy stays well conditioned
    # (Hardy's inequality keeps it positive definite) where mass does not
    top = eigh(mass, energy, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0]
    return 1.0 / top


def counterexample_radial(R, a):
    """eps_1: ground state of -d^2/dr^2 - 1/(4 r^2) on (R-a, R+a).

    Galerkin in Legendre modes, their count doubled from _RADIAL_MODES until
    two values agree to _RADIAL_RTOL relative or _RADIAL_MODES_CAP is
    reached.  Returns the value and its bar: the last change, at least
    _RADIAL_ROUNDING relative.
    """
    if not 0.0 < a < R:
        raise InvalidInputError("need 0 < a < R")
    n, value = _RADIAL_MODES, _radial_modes_ground(R, a, _RADIAL_MODES)
    while True:
        n *= 2
        last, value = value, _radial_modes_ground(R, a, n)
        step = abs(value - last)
        if step <= _RADIAL_RTOL * abs(value) or n >= _RADIAL_MODES_CAP:
            return value, max(step, _RADIAL_ROUNDING * abs(value))


def spherical_shell_ground(R, a):
    """Ground state of the Dirichlet Laplacian between spheres of radii R -+ a.

    The l = 0 radial reduction with f = g/rho is -g'' on an interval of
    width 2a, so the value is exactly (pi/(2a))^2, independent of R.
    """
    if not 0.0 < a < R:
        raise InvalidInputError("need 0 < a < R")
    return (np.pi / (2.0 * a)) ** 2


@dataclass(frozen=True)
class CounterexampleReport:
    R: float
    a: float
    eps1: float
    eps1_error: float  # last change of eps1 under doubled modes
    eps1_mesh: float  # ground of the strips' u stencil on the cylinder
    bracket: tuple
    kappa1_sq: float
    shell_ground: float
    cap_neumann: object  # SpectrumResult of the Neumann-cut hemisphere segment
    spectra: tuple  # SpectrumResult per truncation radius


def capped_layer(R, a, S):
    chart = build_chart("capped-cylinder", {"R": R, "s_max": S * 1.02 + 1.0})
    return LayerSpec(chart, a=a)


def cap_neumann_ground(R, a):
    """Ground state of the hemispherical cap segment with a Neumann cut.

    By mirror symmetry through the cut this reproduces the full spherical
    shell's ground state, i.e. the transverse threshold; compare against the
    result's own mesh threshold, which carries the same O(h_u^2) bias.
    """
    layer = capped_layer(R, a, np.pi * R)
    junction = np.pi * R / 2.0
    mesh = build_mesh(junction, a, _CAP_N_S, _CAP_N_U)
    op = assemble_partial_wave(layer, 0, mesh, neumann_outer=True)
    return solve_spectrum(op, 1)


def counterexample_full(R, a, S, n_s_per_R, n_u):
    """Full m = 0 pipeline on truncations S x {1, 2, 4}: eigenvalues vs eps_1.

    The curvature jump at the junction is face-aligned on every mesh.
    Reports the analytic bracket for eps_1, its Legendre-mode value and
    bar, the shell and cap grounds, and the truncated spectra.  Every strip
    is counted against ``eps1_mesh``, the ground of its own u stencil on
    the cylinder, so its ``count`` is the number of eigenvalues below it:
    0 is the absence claim.
    """
    if not 0.0 < a < R:
        raise InvalidInputError("need 0 < a < R")
    if not S > 0.0:
        raise InvalidInputError(f"need a truncation S > 0, got S = {S:g}")
    # build_mesh refuses too few cells before any solve
    meshes = [build_mesh(T, a, int(n_s_per_R * T / R), n_u, align_face=np.pi * R / 2.0)
              for T in (S, 2 * S, 4 * S)]
    # one layer for every strip, reaching the cylinder even when 4S ends on the cap
    layer = capped_layer(R, a, max(4 * S, np.pi * R))
    # the strips' pencil separates on the cylinder into an s part and the u
    # stencil: the honest bottom to count them against is that stencil's
    # ground, which carries their O(h_u^2) transverse bias
    eps1_mesh = transverse_ground(layer, meshes[0], np.pi * R)
    spectra = [solve_spectrum(assemble_partial_wave(layer, 0, mesh), _TRUNCATION_EIGS,
                              threshold=eps1_mesh) for mesh in meshes]
    eps1, eps1_error = counterexample_radial(R, a)
    kap2 = (np.pi / (2.0 * a)) ** 2
    bracket = (kap2 - 1.0 / (4.0 * (R - a) ** 2), kap2 - 1.0 / (4.0 * (R + a) ** 2))
    return CounterexampleReport(
        R=R, a=a, eps1=eps1, eps1_error=eps1_error, eps1_mesh=eps1_mesh,
        bracket=bracket, kappa1_sq=kap2, shell_ground=spherical_shell_ground(R, a),
        cap_neumann=cap_neumann_ground(R, a),
        spectra=tuple(spectra),
    )
