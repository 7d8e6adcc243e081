import os

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from layerspec.catalog import build_chart
from layerspec.errors import EigenSolveError, InvalidInputError
from layerspec.layer import LayerSpec
from layerspec.numkernel import SparseSymmetricPair, eigensolve, lowest_eigenpairs
from layerspec.spectrum import assemble_partial_wave, build_mesh, mesh_threshold


# Factors the counterexample's 4S strip pencil at its eps1_mesh shift with
# eigensolve.spla wrapped, so that the peak and the resident memory (kB) are
# read as splu returns, before _make_solver reads lu.U (whose CSC copies
# would dominate both readings), and prints the growth of each since the
# call.  The peak is VmHWM, the process's own ru_maxrss: Linux carries the
# launching process's peak into a child's ru_maxrss across exec.
_FACTOR_PROBE = """
import json, math
from layerspec.numkernel import eigensolve
from layerspec.spectrum import assemble_partial_wave, transverse_ground
from test_spectrum import _capped_strip

def peak_and_rss_kb():
    with open("/proc/self/status") as fh:
        kb = {line.split(":")[0]: int(line.split()[1]) for line in fh
              if line.startswith(("VmHWM:", "VmRSS:"))}
    return kb["VmHWM"], kb["VmRSS"]

class ReadingSpla:
    def __getattr__(self, name):
        return getattr(spla, name)

    def splu(self, *args, **kw):
        lu = spla.splu(*args, **kw)
        readings.append(peak_and_rss_kb())
        return lu

layer, mesh = _capped_strip(40.0)
shift = transverse_ground(layer, mesh, math.pi)
pair = assemble_partial_wave(layer, 0, mesh).pair
C = pair.stiffness - shift * pair.mass
del layer, mesh, pair
eigensolve._MALLOC_TRIM(0)
spla, readings = eigensolve.spla, []
eigensolve.spla = ReadingSpla()
peak0, rss0 = peak_and_rss_kb()
eigensolve._make_solver(C)
[(peak, rss)] = readings
print(json.dumps({"peak_growth": peak - rss0, "kept_growth": rss - rss0, "new_peak": peak > peak0}))
"""


def fd_dirichlet_pair(n, h):
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    return SparseSymmetricPair.build(A, sp.identity(n, format="csr"))


def oracle_shift(A, B):
    """lo - 0.05 (hi - lo) from the dense spectrum: a shift just below it."""
    full = sla.eigh(A, B, eigvals_only=True)
    return full[0] - 0.05 * (full[-1] - full[0])


def random_pair(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2
    R = rng.standard_normal((n, n))
    B = R @ R.T + n * np.eye(n)
    return A, B, SparseSymmetricPair.build(sp.csr_matrix(A), sp.csr_matrix(B))


def test_diagonal_case():
    pair = SparseSymmetricPair.build(
        sp.diags([1.0, 2.0, 3.0]).tocsr(), sp.identity(3, format="csr")
    )
    got, count = lowest_eigenpairs(pair, 1, shift=0.0)
    assert got[0].value == pytest.approx(1.0, rel=1e-12)
    assert count == 0


def test_shift_at_an_eigenvalue_raises():
    # A - sigma B = diag(0, 1, 2) is exactly singular: sigma is an
    # eigenvalue, so there is no inertia to count and the solve fails
    pair = SparseSymmetricPair.build(
        sp.diags([1.0, 2.0, 3.0]).tocsr(), sp.identity(3, format="csr")
    )
    with pytest.raises(EigenSolveError, match="singular"):
        lowest_eigenpairs(pair, 1, shift=1.0)


def test_fd_second_difference_closed_form():
    n, h = 400, 1.0 / 401
    pair = fd_dirichlet_pair(n, h)
    lam, _ = lowest_eigenpairs(pair, 3, shift=0.0)
    for j, p in enumerate(lam, start=1):
        closed = (4.0 / h**2) * np.sin(np.pi * j * h / 2.0) ** 2
        assert p.value == pytest.approx(closed, rel=1e-11)


def test_mass_scaling_halves_eigenvalues():
    n, h = 150, 1.0 / 151
    pair = fd_dirichlet_pair(n, h)
    pair2 = SparseSymmetricPair.build(pair.stiffness, 2.0 * pair.mass)
    v1 = [p.value for p in lowest_eigenpairs(pair, 4, shift=0.0)[0]]
    v2 = [p.value for p in lowest_eigenpairs(pair2, 4, shift=0.0)[0]]
    assert np.allclose(np.asarray(v2), 0.5 * np.asarray(v1), rtol=1e-12)


@pytest.mark.parametrize("seed,n,k", [(0, 60, 3), (1, 140, 6), (2, 200, 4)])
def test_random_pairs_match_dense_oracle(seed, n, k):
    A, B, pair = random_pair(n, seed)
    ref = sla.eigh(A, B, eigvals_only=True)[:k]
    got = [p.value for p in lowest_eigenpairs(pair, k, shift=oracle_shift(A, B))[0]]
    assert np.max(np.abs(np.asarray(got) / ref - 1.0)) <= 1e-10


def test_residuals_and_normalization():
    A, B, pair = random_pair(80, 5)
    for p in lowest_eigenpairs(pair, 3, shift=oracle_shift(A, B))[0]:
        assert p.residual <= 1e-9
        assert p.vector @ (pair.mass @ p.vector) == pytest.approx(1.0, abs=1e-12)


def test_deterministic_across_runs():
    A, B, pair = random_pair(90, 11)
    sigma = oracle_shift(A, B)
    a = [p.value for p in lowest_eigenpairs(pair, 4, shift=sigma)[0]]
    b = [p.value for p in lowest_eigenpairs(pair, 4, shift=sigma)[0]]
    assert a == b  # bitwise identical


@pytest.fixture(scope="module")
def plane_strip():
    """Plane partial wave on a coarse strip and its dense spectrum.

    A 2-d FD pattern with a non-uniform diagonal mass.
    """
    layer = LayerSpec(build_chart("plane", {"s_max": 20.0}), a=0.3)
    pair = assemble_partial_wave(layer, 0, build_mesh(6.0, 0.3, n_s=24, n_u=16)).pair
    assert np.unique(pair.mass.diagonal()).size > 1
    full = sla.eigh(pair.stiffness.toarray(), pair.mass.toarray(), eigvals_only=True)
    return pair, full


def in_gap(full, j):
    """A shift midway between the j-th and (j+1)-th eigenvalues: j of them lie below it."""
    return 0.5 * (full[j - 1] + full[j])


@pytest.mark.parametrize("gap", [0, 7])
def test_inertia_counts_a_dense_pencil(gap):
    A, B, pair = random_pair(60, 0)
    full = sla.eigh(A, B, eigvals_only=True)
    sigma = oracle_shift(A, B) if gap == 0 else in_gap(full, gap)
    _, count = eigensolve._make_solver(pair.stiffness - sigma * pair.mass)
    assert count == np.count_nonzero(full < sigma) == gap


def test_shift_inside_spectrum_of_a_2d_pencil(plane_strip, monkeypatch):
    # a shift among the eigenvalues makes A - sigma B indefinite: the
    # diagonal-pivot LU counts the gap eigenvalues below it, and the one
    # Lanczos run has found them all, so the k returned are the k smallest
    pair, full = plane_strip
    runs = []
    lanczos = eigensolve._lanczos_shift_invert

    def counted(*args):
        runs.append(args[2])
        return lanczos(*args)

    monkeypatch.setattr(eigensolve, "_lanczos_shift_invert", counted)
    for gap in (1, 19, 73):
        sigma = in_gap(full, gap)
        for k in (1, 3):
            runs.clear()
            got, count = lowest_eigenpairs(pair, k, shift=sigma)
            assert runs == [sigma]
            assert count == np.count_nonzero(full < sigma) == gap
            assert np.max(np.abs(np.asarray([p.value for p in got]) / full[:k] - 1.0)) <= 1e-10
            again, _ = lowest_eigenpairs(pair, k, shift=sigma)
            assert [p.value for p in got] == [p.value for p in again]  # bitwise identical


def test_zero_pivot_raises():
    # A - 0 B has a zero diagonal where the LU must pivot off it: the
    # inertia is unknown, so the solve fails rather than count
    A = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 3.0]]))
    pair = SparseSymmetricPair.build(A, sp.identity(3, format="csr"))
    with pytest.raises(EigenSolveError):
        lowest_eigenpairs(pair, 1, shift=0.0)


def test_early_stop_on_a_clustered_strip_matches_dense_oracle(lu_solves):
    # plane partial wave on a long strip: the lowest eigenvalues
    # kappa_1^2 + (j pi / S)^2 crowd together, the hardest case for a run
    # that stops once its k wanted Ritz pairs pass the residual bound
    layer = LayerSpec(build_chart("plane", {"s_max": 40.0}), a=0.3)
    mesh = build_mesh(30.0, 0.3, n_s=96, n_u=16)
    pair = assemble_partial_wave(layer, 0, mesh).pair
    ref = sla.eigh(pair.stiffness.toarray(), pair.mass.toarray(), eigvals_only=True,
                   subset_by_index=[0, 3])
    sigma = 0.9 * mesh_threshold(mesh)
    # the four lowest lie within a tenth of their distance to the shift
    assert ref[3] - ref[0] < 0.1 * (ref[0] - sigma)

    got, count = lowest_eigenpairs(pair, 3, shift=sigma)
    assert count == 0
    assert len(lu_solves) == 1 and lu_solves[0] < 48  # one run, stopped before its cap
    assert np.max(np.abs(np.asarray([p.value for p in got]) / ref[:3] - 1.0)) <= 1e-10
    assert all(p.residual <= 1e-9 for p in got)
    again, _ = lowest_eigenpairs(pair, 3, shift=sigma)
    assert [p.value for p in got] == [p.value for p in again]  # bitwise identical
    assert all(np.array_equal(p.vector, q.vector) for p, q in zip(got, again))


def test_invalid_inputs():
    pair = fd_dirichlet_pair(10, 0.1)
    with pytest.raises(InvalidInputError):
        lowest_eigenpairs(pair, 0, shift=0.0)
    with pytest.raises(InvalidInputError):
        lowest_eigenpairs(pair, 10, shift=0.0)
    bad = sp.diags([1.0, -1.0]).tocsr()
    with pytest.raises(InvalidInputError):
        SparseSymmetricPair.build(bad, bad)
    asym = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        SparseSymmetricPair.build(asym, sp.identity(2, format="csr"))


def test_symmetry_check_on_matching_and_differing_patterns():
    eye = sp.identity(3, format="csr")
    # M^T has M's pattern: compared entry by entry against one transposed copy
    same = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0 + 1e-12, 2.0, 0.0], [0.0, 0.0, 2.0]]))
    with pytest.raises(InvalidInputError, match="stiffness is not symmetric"):
        SparseSymmetricPair.build(same, eye)
    # duplicate entries that sum symmetric: the sparse difference decides
    dup = sp.csr_matrix((np.array([0.5, 0.5, 1.0, 2.0, 2.0]), np.array([1, 1, 0, 1, 2]),
                         np.array([0, 2, 4, 5])), shape=(3, 3))
    data = dup.data.copy()
    assert SparseSymmetricPair.build(dup, eye).dimension == 3
    assert np.array_equal(dup.data, data) and dup.nnz == 5  # the caller's matrix is untouched


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.skipif(eigensolve._MALLOC_TRIM is None, reason="needs malloc_trim")
def test_factor_transient_stays_near_the_factor_it_keeps(fresh_probe):
    # SuperLU's panel workspace scales with n times the panel width: at
    # scipy's default width 20 the peak growth during splu was 1.74 times
    # the growth that stays resident after it, at width 1 it is 1.19
    growth = fresh_probe(_FACTOR_PROBE)
    assert growth["new_peak"], growth  # the factorization set the process peak
    assert growth["peak_growth"] <= 1.5 * growth["kept_growth"], growth
