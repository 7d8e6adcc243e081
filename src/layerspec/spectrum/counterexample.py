"""The capped-cylinder layer: a geometry with no discrete spectrum.

The layer over a semi-cylinder of radius R closed by a hemisphere has its
whole spectrum filled from the cylindrical end.  The bottom eps_1 is the
lowest Dirichlet eigenvalue of the radial operator -d^2/dr^2 - 1/(4 r^2)
on the interval (R - a, R + a), which sits strictly below the transverse
threshold; the hemispherical cap alone (via the full spherical shell, whose
l = 0 reduction is exactly the flat interval problem) contributes the
threshold itself.  Truncated-domain eigensolves therefore must land at or
above eps_1, and that is numerical evidence only: Dirichlet truncation
yields upper bounds, never an existence proof.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..catalog import build_chart
from ..errors import InvalidInputError
from ..layer import LayerSpec
from ..numkernel import SparseSymmetricPair, lowest_eigenpairs
from .assemble import assemble_partial_wave
from .mesh import build_mesh
from .solve import solve_spectrum


# coarsest cell counts of the interval solves: the two meshes the
# extrapolated eps_1 and shell ground read, the three radial_order_estimate reads
_INTERVAL_CELLS = 3200
_ORDER_CELLS = 400
# mesh of cap_neumann_ground's hemispherical segment
_CAP_N_S, _CAP_N_U = 200, 40
# eigenvalues solved on each truncation (the lowest two)
_TRUNCATION_EIGS = 2

# the two interval operators: the cylinder's radial problem (eps_1) and the
# l = 0 reduction of the spherical shell
_INTERVAL_PROBLEMS = {
    "radial": {"potential": lambda x: -0.25 / x**2},
    "shell": {"weight": lambda x: x**2},
}


def _interval_ground(R, a, n, potential=None, weight=None):
    """Lowest Dirichlet eigenvalue of -(w f')'/w + V on (R-a, R+a), FD."""
    h = 2.0 * a / n
    nodes = R - a + h * np.arange(1, n)
    faces = R - a + h * (np.arange(n) + 0.5)
    w_face = np.ones(n) if weight is None else weight(faces)
    w_node = np.ones(n - 1) if weight is None else weight(nodes)
    main = (w_face[:-1] + w_face[1:]) / h**2
    off = -w_face[1:-1] / h**2
    if potential is not None:
        main = main + potential(nodes)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    B = sp.diags(w_node, format="csr")
    pair = SparseSymmetricPair.build(A, B)
    # row-wise Gershgorin bound of B^{-1} A: a true lower bound of the pencil
    # for diagonal B, and near enough to the ground state that one Lanczos
    # run converges (a bound of A alone ignores the weight and lands far off)
    radius = np.zeros(n - 1)
    radius[1:] += np.abs(off)
    radius[:-1] += np.abs(off)
    shift = float(((main - radius) / w_node).min() - 1.0)
    pairs, _ = lowest_eigenpairs(pair, 1, shift=shift)
    return pairs[0].value


def _interval_levels(R, a, n, kind, levels):
    """Interval ground states on n, 2n, ... 2^(levels-1) n cells."""
    problem = _INTERVAL_PROBLEMS[kind]
    return [_interval_ground(R, a, n * 2**lev, **problem) for lev in range(levels)]


def _richardson(R, a, kind):
    """Second-order Richardson extrapolation from _INTERVAL_CELLS and twice as many cells.

    Returns the value and its last step |value - finer level|, the
    correction the extrapolation made: the error bar of the value.
    """
    lam_h, lam_h2 = _interval_levels(R, a, _INTERVAL_CELLS, kind, 2)
    value = lam_h2 + (lam_h2 - lam_h) / 3.0
    return value, abs(value - lam_h2)


def counterexample_radial(R, a):
    """eps_1: ground state of -d^2/dr^2 - 1/(4 r^2) on (R-a, R+a).

    Second-order finite differences with Richardson extrapolation over
    halved meshes; returns the value and its last extrapolation step.
    """
    if not 0.0 < a < R:
        raise InvalidInputError("need 0 < a < R")
    return _richardson(R, a, "radial")


def spherical_shell_ground(R, a):
    """Ground state of the Dirichlet Laplacian between spheres of radii R -+ a.

    Computed from the l = 0 radial reduction with the rho^2 weight; the
    substitution f = g/rho removes the curvature term exactly, so the limit
    is the flat interval value (pi/(2a))^2 independently of R.  Returns the
    value and its last extrapolation step.
    """
    if not 0.0 < a < R:
        raise InvalidInputError("need 0 < a < R")
    return _richardson(R, a, "shell")


def radial_order_estimate(R, a, kind="shell"):
    """Observed convergence order of the interval solver on halved meshes.

    ``kind`` picks the interval problem: "shell" or "radial".
    """
    if kind not in _INTERVAL_PROBLEMS:
        raise InvalidInputError(f"unknown interval problem {kind!r}; expected one of "
                                f"{sorted(_INTERVAL_PROBLEMS)}")
    vals = _interval_levels(R, a, _ORDER_CELLS, kind, 3)
    num = vals[0] - vals[1]
    den = vals[1] - vals[2]
    return float(np.log2(num / den))


@dataclass(frozen=True)
class CounterexampleReport:
    R: float
    a: float
    eps1: float
    eps1_error: float  # last Richardson step of eps1
    eps1_mesh: float  # same interval operator on the 2-d solve's u grid
    bracket: tuple
    kappa1_sq: float
    shell_ground: float
    shell_error: float  # last Richardson step of shell_ground
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


def _truncation_spectrum(R, a, S, n_s_per_R, n_u, shift):
    """m = 0 spectrum of the capped strip truncated at S, junction face-aligned."""
    mesh = build_mesh(S, a, int(n_s_per_R * S / R), n_u, align_face=np.pi * R / 2.0)
    op = assemble_partial_wave(capped_layer(R, a, S), 0, mesh)
    return solve_spectrum(op, _TRUNCATION_EIGS, shift=shift)


def counterexample_full(R, a, S, n_s_per_R, n_u):
    """Full m = 0 pipeline on truncations S x {1, 2, 4}: eigenvalues vs eps_1.

    The curvature jump at the junction is face-aligned on every mesh.
    Reports the analytic bracket for eps_1, the extrapolated interval value,
    the shell and cap grounds, and the truncated spectra.  The interval
    values' errors are their last Richardson steps.  Each truncation is
    shifted at ``eps1_mesh``, eps_1 measured on the strip's own u grid, so
    its ``count`` is the number of eigenvalues below it: 0 is the absence
    claim.
    """
    if not 0.0 < a < R:
        raise InvalidInputError("need 0 < a < R")
    if not S > 0.0:
        raise InvalidInputError(f"need a truncation S > 0, got S = {S:g}")
    if n_u < 16 or int(n_s_per_R * S / R) < 16:
        # build_mesh's floor on the smallest strip, checked before any solve
        raise InvalidInputError("need at least 16 cells per direction")
    # the truncated 2-d eigenvalues inherit the transverse grid's O(h_u^2)
    # bias; the honest bottom to count them against is the same interval
    # operator discretized on that grid
    eps1_mesh = _interval_ground(R, a, n_u, **_INTERVAL_PROBLEMS["radial"])
    spectra = [_truncation_spectrum(R, a, S * mult, n_s_per_R, n_u, eps1_mesh)
               for mult in (1, 2, 4)]
    eps1, eps1_error = counterexample_radial(R, a)
    shell, shell_error = spherical_shell_ground(R, a)
    kap2 = (np.pi / (2.0 * a)) ** 2
    bracket = (kap2 - 1.0 / (4.0 * (R - a) ** 2), kap2 - 1.0 / (4.0 * (R + a) ** 2))
    return CounterexampleReport(
        R=R, a=a, eps1=eps1, eps1_error=eps1_error, eps1_mesh=eps1_mesh,
        bracket=bracket, kappa1_sq=kap2, shell_ground=shell, shell_error=shell_error,
        cap_neumann=cap_neumann_ground(R, a),
        spectra=tuple(spectra),
    )
