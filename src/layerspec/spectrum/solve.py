"""Eigenvalue extraction and refinement studies for partial-wave operators."""

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import InvalidInputError
from ..numkernel import lowest_eigenpairs
from .assemble import assemble_partial_wave
from .mesh import build_mesh


def mesh_threshold(mesh):
    """Lowest eigenvalue (4 / h_u^2) sin^2(pi / (2 n_u)) of the u grid's second difference.

    This is :func:`transverse_ground` of a flat cross-section in closed form,
    the mesh-consistent version of the continuum threshold: flags for "below
    the essential spectrum" compare against it, otherwise the O(h_u^2)
    discretization bias of the transverse energy would masquerade as binding.
    """
    return float(4.0 / mesh.h_u**2 * np.sin(np.pi / (2 * mesh.n_u)) ** 2)


@dataclass(frozen=True)
class SpectrumResult:
    """Lowest generalized eigenvalues of one partial wave."""

    m: int
    eigenvalues: np.ndarray
    residuals: np.ndarray
    threshold: float         # continuum kappa_1^2
    threshold_mesh: float    # the bottom on the u grid that the flags and count refer to
    S: float
    h_s: float
    h_u: float
    below_threshold: np.ndarray
    count: int               # eigenvalues below the cut, by the factorization's inertia
    convergence: tuple = field(default_factory=tuple)  # (h_s, h_u, lambda_0, mesh thr) rows

    @property
    def order_estimate(self):
        """Observed order log2((l0 - l1) / (l1 - l2)) of lambda_0 on the last three levels.

        None with fewer than three refinement levels (so at the CLI default
        ``spectrum.levels = 2``), and when the two differences do not share
        a sign.
        """
        if len(self.convergence) < 3:
            return None
        lam = [row[2] for row in self.convergence[-3:]]
        num = lam[0] - lam[1]
        den = lam[1] - lam[2]
        if den == 0 or num / den <= 0:
            return None
        return float(np.log2(num / den))


def solve_spectrum(op, k, threshold=None):
    """k lowest eigenvalues of a partial-wave operator with threshold flags.

    ``threshold`` is the bottom on the operator's own u grid, by default
    :func:`mesh_threshold` (the counterexample passes its strips'
    ``eps1_mesh``).  One eigensolve, factored at the cut threshold * (1 - 1e-10),
    so that ``count`` is the number of eigenvalues below the cut and
    ``below_threshold`` flags the same ones.
    """
    thr = mesh_threshold(op.mesh) if threshold is None else float(threshold)
    cut = thr * (1.0 - 1e-10)
    pairs, count = lowest_eigenpairs(op.pair, k, shift=cut)
    lam = np.array([p.value for p in pairs])
    res = np.array([p.residual for p in pairs])
    return SpectrumResult(
        m=op.m, eigenvalues=lam, residuals=res, threshold=op.kappa1_sq,
        threshold_mesh=thr, S=op.mesh.S, h_s=op.mesh.h_s, h_u=op.mesh.h_u,
        below_threshold=lam < cut, count=count,
    )


def spectrum_with_refinement(layer, m, S, n_s, n_u, k, levels):
    """Solve on a sequence of halved meshes and report the refinement table.

    The levels are solved coarse to fine; the table runs in that order and
    the result is the finest level's.
    """
    if levels < 1:
        raise InvalidInputError(f"levels must be >= 1, got {levels}")
    table = []
    for lev in range(levels):
        mesh = build_mesh(S, layer.a, n_s * 2**lev, n_u * 2**lev)
        result = solve_spectrum(assemble_partial_wave(layer, m, mesh), k)
        table.append((mesh.h_s, mesh.h_u, float(result.eigenvalues[0]), result.threshold_mesh))
    return replace(result, convergence=tuple(table))
