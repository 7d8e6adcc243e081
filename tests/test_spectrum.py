import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from layerspec.catalog import build_chart
from layerspec.errors import CapabilityError, HypothesisViolationError, InvalidInputError
from layerspec.layer import LayerSpec
from layerspec.spectrum import (
    assemble_partial_wave,
    build_mesh,
    mesh_threshold,
    solve_spectrum,
    spectrum_with_refinement,
    transverse_ground,
)
from layerspec.numkernel import eigensolve
from layerspec.spectrum.assemble import _profile_columns
from layerspec.spectrum.counterexample import capped_layer

J01 = 2.404825557695773


@pytest.fixture(scope="module")
def plane_layer():
    return LayerSpec(build_chart("plane", {"s_max": 60.0}), a=0.3)


@pytest.fixture(scope="module")
def hyperboloid_layer():
    return LayerSpec(build_chart("hyperboloid", {"s_max": 150.0}), a=0.3)


def _flux_pair_stiffness(layer, m, mesh, neumann_outer=False):
    """The stiffness summed from symmetric flux pairs in COO form, then ``tocsr()``.

    An independent route to assemble_partial_wave's stiffness: every flux
    adds +c to both diagonals and -c to both couplings, and the
    conversion sums duplicates.
    """
    chart = layer.chart
    nu = mesh.n_u - 1
    n = mesh.n_unknowns
    idx = lambda i, j: i * nu + j
    rows, cols, vals = [], [], []

    def add_pairs(i1, i2, c):
        rows.append(np.concatenate([i1, i2, i1, i2]))
        cols.append(np.concatenate([i1, i2, i2, i1]))
        vals.append(np.concatenate([c, c, -c, -c]))

    def add_diag(i1, c):
        rows.append(i1)
        cols.append(i1)
        vals.append(c)

    jj = np.arange(nu)
    one_s_f, one_t_f, r_f = _profile_columns(chart, mesh.s_faces[1:-1], mesh.u_nodes)
    c_face = (one_t_f * r_f / one_s_f) * (mesh.h_u / mesh.h_s)
    fi = np.arange(mesh.n_s - 1)[:, None]
    add_pairs(idx(fi, jj).ravel(), idx(fi + 1, jj).ravel(), c_face.ravel())
    if not neumann_outer:
        one_s_b, one_t_b, r_b = _profile_columns(chart, [mesh.S], mesh.u_nodes)
        add_diag(idx(mesh.n_s - 1, jj), (one_t_b * r_b / one_s_b)[0] * (mesh.h_u / (0.5 * mesh.h_s)))
    one_s_m, one_t_m, r_m = _profile_columns(chart, mesh.s_centers, mesh.u_midpoints)
    c_elem = one_s_m * one_t_m * r_m * (mesh.h_s / mesh.h_u)
    ii = np.arange(mesh.n_s)[:, None]
    j_in = np.arange(nu - 1)
    add_pairs(idx(ii, j_in).ravel(), idx(ii, j_in + 1).ravel(), c_elem[:, 1:nu].ravel())
    add_diag(idx(np.arange(mesh.n_s), 0), c_elem[:, 0])
    add_diag(idx(np.arange(mesh.n_s), nu - 1), c_elem[:, nu])
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    if m > 0:
        one_s_n, one_t_n, r_n = _profile_columns(chart, mesh.s_centers, mesh.u_nodes)
        w_node = one_s_n * one_t_n * r_n
        cent = (m**2) * w_node / (one_t_n**2 * r_n**2) * (mesh.h_s * mesh.h_u)
        A = A + sp.diags(cent.ravel(), format="csr")
    return A


def _capped_strip(S, R=1.0, a=0.29, n_s_per_R=50, n_u=32):
    """The counterexample's truncation at S, its mesh face-aligned at the junction."""
    mesh = build_mesh(S, a, int(n_s_per_R * S / R), n_u, align_face=np.pi * R / 2.0)
    return capped_layer(R, a, S), mesh


@pytest.mark.parametrize("operator", ["capped strip", "neumann cap", "hyperboloid m = 1"])
def test_five_band_stiffness_equals_the_flux_pair_assembly(operator, hyperboloid_layer):
    # same pattern (explicit zeros included) and bitwise the same sums, so
    # the LU ordering and every value downstream stay as they were
    m, neumann = 0, False
    if operator == "capped strip":
        layer, mesh = _capped_strip(10.0)
    elif operator == "neumann cap":
        layer, mesh = capped_layer(1.0, 0.29, np.pi), build_mesh(np.pi / 2.0, 0.29, 200, 40)
        neumann = True
    else:
        layer, mesh, m = hyperboloid_layer, build_mesh(20.0, 0.3, n_s=200, n_u=32), 1
    A = assemble_partial_wave(layer, m, mesh, neumann_outer=neumann).pair.stiffness
    ref = _flux_pair_stiffness(layer, m, mesh, neumann_outer=neumann)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)


def test_assembly_transient_is_a_small_multiple_of_the_pair():
    # the counterexample's largest strip (62 372 unknowns): the flux-pair
    # lists, tocsr() and a three-matrix symmetry check peaked at 7.2 times
    # the returned pair's bytes
    layer, mesh = _capped_strip(40.0)
    tracemalloc.start()
    try:
        op = assemble_partial_wave(layer, 0, mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pair_bytes = sum(M.data.nbytes + M.indices.nbytes + M.indptr.nbytes
                     for M in (op.pair.stiffness, op.pair.mass))
    assert op.pair.dimension == 62372
    assert peak <= 4.0 * pair_bytes


def test_refinement_tables_coarse_to_fine_and_returns_the_finest(hyperboloid_layer):
    res = spectrum_with_refinement(hyperboloid_layer, 1, S=20.0, n_s=64, n_u=16, k=2, levels=3)
    meshes = [build_mesh(20.0, 0.3, 64 * 2**lev, 16 * 2**lev) for lev in range(3)]
    levels = [solve_spectrum(assemble_partial_wave(hyperboloid_layer, 1, mesh), 2) for mesh in meshes]
    assert res.convergence == tuple((r.h_s, r.h_u, float(r.eigenvalues[0]), r.threshold_mesh)
                                    for r in levels)
    assert np.array_equal(res.eigenvalues, levels[-1].eigenvalues)
    assert np.array_equal(res.residuals, levels[-1].residuals)
    assert res.count == levels[-1].count


def test_flat_disk_oracle(plane_layer):
    # separable solution: lowest m=0 eigenvalue is kappa1^2 + (j01/S)^2
    mesh = build_mesh(12.0, 0.3, n_s=600, n_u=40)
    res = solve_spectrum(assemble_partial_wave(plane_layer, 0, mesh), 1)
    target = plane_layer.kappa1_sq + (J01 / 12.0) ** 2
    assert res.eigenvalues[0] == pytest.approx(target, rel=0.01)
    assert np.all(res.residuals <= 1e-9)


def test_stiffness_exactly_symmetric(plane_layer, hyperboloid_layer):
    mesh = build_mesh(10.0, 0.3, n_s=64, n_u=20)
    for layer in (plane_layer, hyperboloid_layer):
        A = assemble_partial_wave(layer, 0, mesh).pair.stiffness
        gap = A - A.T
        assert gap.nnz == 0 or abs(gap).max() == 0.0


def test_centrifugal_ordering_plane(plane_layer):
    mesh = build_mesh(12.0, 0.3, n_s=300, n_u=24)
    lam0 = solve_spectrum(assemble_partial_wave(plane_layer, 0, mesh), 1).eigenvalues[0]
    lam1 = solve_spectrum(assemble_partial_wave(plane_layer, 1, mesh), 1).eigenvalues[0]
    assert lam1 > lam0


def test_plane_never_below_threshold(plane_layer):
    for S in (10.0, 20.0, 40.0):
        mesh = build_mesh(S, 0.3, n_s=int(30 * S), n_u=24)
        res = solve_spectrum(assemble_partial_wave(plane_layer, 0, mesh), 2)
        assert not res.below_threshold.any(), S


def test_hyperboloid_bound_state_stable_gap(hyperboloid_layer):
    res = spectrum_with_refinement(hyperboloid_layer, 0, S=60.0, n_s=300, n_u=16, k=1, levels=3)
    gaps = [lam - thr for (_, _, lam, thr) in res.convergence]
    assert all(g < 0 for g in gaps)  # below the (mesh) essential threshold
    assert abs(gaps[-1] - gaps[-2]) <= 0.5 * abs(gaps[-2])  # stable under halving
    assert res.below_threshold[0]


def test_order_estimate_reads_second_order_on_three_levels(hyperboloid_layer):
    # lambda_0's differences on halved meshes fall by 4; two levels give no order
    res = spectrum_with_refinement(hyperboloid_layer, 0, S=20.0, n_s=64, n_u=16, k=1, levels=3)
    assert res.order_estimate == pytest.approx(2.0, abs=0.01)
    res = spectrum_with_refinement(hyperboloid_layer, 0, S=20.0, n_s=64, n_u=16, k=1, levels=2)
    assert res.order_estimate is None


@pytest.mark.parametrize("levels", [0, -1])
def test_refinement_needs_a_level(hyperboloid_layer, levels):
    with pytest.raises(InvalidInputError, match="levels"):
        spectrum_with_refinement(hyperboloid_layer, 0, S=20.0, n_s=64, n_u=16, k=1, levels=levels)


def test_floor_above_a_bound_state_still_finds_it(hyperboloid_layer, monkeypatch):
    # a shift between lambda_0 and the threshold has the bound state below
    # it: the inertia counts it, and one Lanczos run returns it
    op = assemble_partial_wave(hyperboloid_layer, 0, build_mesh(60.0, 0.3, n_s=300, n_u=16))
    ref = solve_spectrum(op, 1)
    assert ref.below_threshold[0] and ref.count == 1
    shift = 0.5 * (ref.eigenvalues[0] + ref.threshold_mesh)
    runs = []
    lanczos = eigensolve._lanczos_shift_invert

    def counted(*args):
        runs.append(args[2])
        return lanczos(*args)

    monkeypatch.setattr(eigensolve, "_lanczos_shift_invert", counted)
    res = solve_spectrum(op, 1, threshold=shift)
    assert runs == [shift * (1.0 - 1e-10)]
    assert res.threshold_mesh == shift and res.count == 1
    assert res.eigenvalues[0] == pytest.approx(ref.eigenvalues[0], rel=1e-12)
    assert res.below_threshold[0]


def test_domain_monotonicity(hyperboloid_layer):
    lams = []
    for S in (30.0, 60.0, 120.0):
        mesh = build_mesh(S, 0.3, n_s=int(10 * S), n_u=24)
        lams.append(solve_spectrum(assemble_partial_wave(hyperboloid_layer, 0, mesh), 1).eigenvalues[0])
    assert lams[0] >= lams[1] - 1e-9
    assert lams[1] >= lams[2] - 1e-9


def test_partial_wave_ordering_catalog():
    for name, params, a in [
        ("hyperboloid", {"s_max": 80.0}, 0.3),
        ("capped-cylinder", {"R": 1.0, "s_max": 25.0}, 0.3),
    ]:
        layer = LayerSpec(build_chart(name, params), a=a)
        mesh = build_mesh(20.0, a, n_s=200, n_u=24)
        lams = [
            solve_spectrum(assemble_partial_wave(layer, m, mesh), 1).eigenvalues[0]
            for m in (0, 1, 2)
        ]
        assert lams[0] <= lams[1] + 1e-10 <= lams[2] + 2e-10, name


def test_variational_consistency(hyperboloid_layer):
    # discrete Rayleigh quotient of any interpolated trial bounds lam0 above
    from layerspec.varform import gj_trial

    mesh = build_mesh(60.0, 0.3, n_s=600, n_u=32)
    op = assemble_partial_wave(hyperboloid_layer, 0, mesh)
    res = solve_spectrum(op, 1)
    trial = gj_trial(hyperboloid_layer, s0=5.0, sigma=0.2)
    chi = hyperboloid_layer.transverse_mode(1)
    x = (trial.radial.value(mesh.s_centers)[:, None] * chi(mesh.u_nodes)[None, :]).ravel()
    rq = (x @ (op.pair.stiffness @ x)) / (x @ (op.pair.mass @ x))
    assert rq >= res.eigenvalues[0] - 1e-9 * abs(rq)

    # the discrete minimum beats the certificate trial's variational bound
    from layerspec.varform import epsilon_choice, evaluate_form, symmetric_log_trial

    big = LayerSpec(build_chart("hyperboloid", {"s_max": 2.0e7}), a=0.3)
    eps = epsilon_choice(big, 256)
    fe = evaluate_form(big, symmetric_log_trial(big, 256, eps))
    assert fe.q_tilde < 0
    lhs = res.eigenvalues[0] - res.threshold_mesh
    assert lhs <= fe.q_tilde / fe.norm_sq + 1e-3


def test_mesh_validation_and_alignment():
    with pytest.raises(InvalidInputError):
        build_mesh(10.0, 0.3, n_s=8, n_u=20)
    junction = np.pi / 2.0
    mesh = build_mesh(10.0, 0.3, n_s=100, n_u=20, align_face=junction)
    assert np.min(np.abs(mesh.s_faces - junction)) <= 1e-12


def test_capability_and_hypothesis_errors():
    fan_layer = LayerSpec(
        build_chart("hyperbolic-paraboloid", {"s_max": 30.0, "theta_samples": 64}), a=0.1
    )
    mesh = build_mesh(10.0, 0.1, n_s=50, n_u=20)
    with pytest.raises(CapabilityError):
        assemble_partial_wave(fan_layer, 0, mesh)

    capped = LayerSpec(build_chart("capped-cylinder", {"R": 1.0, "s_max": 25.0}), a=1.2, force=True)
    mesh = build_mesh(20.0, 1.2, n_s=100, n_u=20)
    with pytest.raises(HypothesisViolationError):
        assemble_partial_wave(capped, 0, mesh)


def test_mesh_threshold_matches_closed_form():
    for n_u in (64, 128):
        mesh = build_mesh(10.0, 0.3, n_s=32, n_u=n_u)
        h = mesh.h_u
        closed = (4.0 / h**2) * np.sin(np.pi * h / (2 * 0.6)) ** 2
        assert mesh_threshold(mesh) == pytest.approx(closed, rel=1e-15), n_u


@pytest.mark.parametrize("n_u", [16, 32, 128])
def test_mesh_threshold_is_the_flat_transverse_ground(plane_layer, n_u):
    # a flat cross-section's u stencil is the plain second difference
    mesh = build_mesh(10.0, 0.3, n_s=32, n_u=n_u)
    assert transverse_ground(plane_layer, mesh, 5.0) == pytest.approx(mesh_threshold(mesh), rel=1e-12)


@pytest.mark.parametrize("name,a,s_max,bound", [
    ("hyperboloid", 0.3, 1.6e8, True),
    ("sine-meridian", 0.1, 250.0, True),
    ("plane", 0.1, 400.0, False),
])
def test_certificate_and_fd_count_agree(name, a, s_max, bound):
    # two routes to a bound state below kappa_1^2: a negative shifted form
    # of a thin-family trial (variational, the whole layer) and the m = 0
    # inertia count below threshold_mesh (FD, truncated at S = 60)
    from layerspec.varform import certify

    layer = LayerSpec(build_chart(name, {"s_max": s_max}), a=a)
    cert = certify(layer, strategies=("thin",))
    res = solve_spectrum(assemble_partial_wave(layer, 0, build_mesh(60.0, a, n_s=400, n_u=32)), 1)
    assert cert.certified == bound
    if bound:
        assert cert.family == "thin"
        assert res.count >= 1
    else:
        assert res.count == 0
