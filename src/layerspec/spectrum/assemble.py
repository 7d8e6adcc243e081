"""Assembly of the partial-wave layer forms over revolution charts.

The quadratic form in the angular-momentum-m subspace is

    Q_m[psi] = 2 pi int int [ psi_s^2/(1-u k_s)^2 + psi_u^2
                              + m^2 psi^2/((1-u k_th)^2 r^2) ] w ds du,

with the volume weight w = (1 - u k_s)(1 - u k_th) r.  Flux coefficients
are sampled at geometric cell-face midpoints and the mass is lumped, which
keeps the stiffness exactly symmetric and the scheme second order even with
the vanishing weight at the pole.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import CapabilityError, HypothesisViolationError
from ..numkernel import SparseSymmetricPair


@dataclass(frozen=True)
class PartialWaveOperator:
    m: int
    pair: SparseSymmetricPair
    mesh: object
    kappa1_sq: float


def _profile_columns(chart, s_values, u):
    g = chart.grid(s_values)
    return 1.0 - u[None, :] * g.ii_ss, 1.0 - u[None, :] * (g.ii_tt / g.r**2), g.r


def _stiffness(chart, mesh, neumann_outer):
    """The m = 0 stiffness: radial and transverse fluxes as a five-band CSR matrix."""
    nu_nodes = mesh.n_u - 1
    n = mesh.n_unknowns
    u_n = mesh.u_nodes

    # radial fluxes through interior faces (the s = 0 face carries w = 0)
    one_s_f, one_t_f, r_f = _profile_columns(chart, mesh.s_faces[1:-1], u_n)
    c_face = (one_t_f * r_f / one_s_f) * (mesh.h_u / mesh.h_s)

    # transverse fluxes: elements between consecutive u nodes and the walls
    one_s_m, one_t_m, r_m = _profile_columns(chart, mesh.s_centers, mesh.u_midpoints)
    c_elem = one_s_m * one_t_m * r_m * (mesh.h_s / mesh.h_u)

    # Five-point stencil: the row of unknown (i, j) holds the columns
    # -nu_nodes, -1, 0, +1, +nu_nodes around it, in that order, wherever the
    # neighbour exists.  The pattern depends on indices alone, so a coupling
    # that rounds to 0.0 stays stored.  Each diagonal sums its terms in the
    # order a flux-by-flux assembly adds them (the tests' oracle, which
    # agrees bitwise): radial face above, face below, outer boundary,
    # transverse element above, element below, then the two wall elements.
    diag = np.zeros((mesh.n_s, nu_nodes))
    diag[:-1] += c_face
    diag[1:] += c_face
    # outer boundary: ghost value 0 at distance h_s/2 beyond the last center
    if not neumann_outer:
        one_s_b, one_t_b, r_b = _profile_columns(chart, [mesh.S], u_n)
        diag[-1] += (one_t_b * r_b / one_s_b)[0] * (mesh.h_u / (0.5 * mesh.h_s))
    diag[:, :-1] += c_elem[:, 1:nu_nodes]
    diag[:, 1:] += c_elem[:, 1:nu_nodes]
    diag[:, 0] += c_elem[:, 0]
    diag[:, -1] += c_elem[:, nu_nodes]

    vals = np.empty((mesh.n_s, nu_nodes, 5))
    vals[1:, :, 0] = -c_face
    vals[:, 1:, 1] = -c_elem[:, 1:nu_nodes]
    vals[:, :, 2] = diag
    vals[:, :-1, 3] = -c_elem[:, 1:nu_nodes]
    vals[:-1, :, 4] = -c_face
    present = np.ones((mesh.n_s, nu_nodes, 5), dtype=bool)
    present[0, :, 0] = present[:, 0, 1] = present[:, -1, 3] = present[-1, :, 4] = False
    offsets = np.array([-nu_nodes, -1, 0, 1, nu_nodes], dtype=np.int32)
    cols = np.arange(n, dtype=np.int32).reshape(mesh.n_s, nu_nodes, 1) + offsets
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=2, dtype=np.int32).ravel(), out=indptr[1:])
    return sp.csr_matrix((vals[present], cols[present], indptr), shape=(n, n))


def assemble_partial_wave(layer, m, mesh, neumann_outer=False):
    """Discretize Q_m over a rotation-invariant layer on the given mesh.

    Dirichlet walls at u = +-a; Dirichlet truncation at s = S (variational
    upper bounds) unless ``neumann_outer``; natural closure at the pole via
    the vanishing weight.  Raises when the weight loses positivity (the
    half-width check failing on the sampled mesh).
    """
    chart = layer.chart
    if not chart.rotation_invariant:
        raise CapabilityError("partial-wave assembly needs a rotation-invariant chart")
    if m < 0:
        raise CapabilityError("angular momentum index must be >= 0")
    if mesh.S > chart.s_max * (1 + 1e-12):
        raise CapabilityError("mesh truncation exceeds chart validity")
    # node weights (mass, centrifugal) at cell centers x u nodes
    one_s_n, one_t_n, r_n = _profile_columns(chart, mesh.s_centers, mesh.u_nodes)
    w_node = one_s_n * one_t_n * r_n
    if np.any(w_node <= 0.0):
        raise HypothesisViolationError(
            "volume weight non-positive on the mesh: half-width check fails here"
        )

    A = _stiffness(chart, mesh, neumann_outer)
    if m > 0:
        cent = (m**2) * w_node / (one_t_n**2 * r_n**2) * (mesh.h_s * mesh.h_u)
        A = A + sp.diags(cent.ravel(), format="csr")

    B = sp.diags((w_node * mesh.h_s * mesh.h_u).ravel(), format="csr")
    pair = SparseSymmetricPair.build(A, B)
    return PartialWaveOperator(m=int(m), pair=pair, mesh=mesh, kappa1_sq=layer.kappa1_sq)
