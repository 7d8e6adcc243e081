import numpy as np
import pytest

from layerspec.errors import InvalidInputError
from layerspec.numkernel import eigensolve
from layerspec.spectrum import counterexample as counterexample_module
from layerspec.spectrum import solve as spectrum_solve
from layerspec.spectrum import (
    assemble_partial_wave,
    build_mesh,
    counterexample_full,
    counterexample_radial,
    radial_order_estimate,
    solve_spectrum,
    spherical_shell_ground,
)
from layerspec.spectrum.counterexample import capped_layer

KAP2 = (np.pi / 0.6) ** 2  # threshold for a = 0.3


def test_radial_ground_in_analytic_bracket():
    # constant-potential comparison on the interval (R-a, R+a)
    eps1, _ = counterexample_radial(1.0, 0.3)
    lower = KAP2 - 1.0 / (4.0 * 0.7**2)
    upper = KAP2 - 1.0 / (4.0 * 1.3**2)
    assert lower < eps1 < upper
    assert lower == pytest.approx(26.9054, abs=2e-4)
    assert upper == pytest.approx(27.2676, abs=2e-4)
    assert eps1 < KAP2


def test_radial_ground_flattening_trend():
    # for fixed a and growing R the potential flattens: eps1 approaches
    # kappa1^2 - 1/(4R^2) with an error falling at least like R^{-3}
    devs = []
    for R in (2.0, 4.0, 8.0):
        eps1, _ = counterexample_radial(R, 0.3)
        devs.append(abs(eps1 - (KAP2 - 1.0 / (4.0 * R**2))))
    assert devs[1] <= devs[0] / 4.0
    assert devs[2] <= devs[1] / 4.0


def test_spherical_shell_is_flat_interval():
    val, _ = spherical_shell_ground(1.0, 0.3)
    assert val == pytest.approx(KAP2, rel=1e-4)
    # independent of the shell radius at fixed width
    assert abs(val - spherical_shell_ground(2.0, 0.3)[0]) <= 1e-6 * KAP2


@pytest.mark.parametrize("a", [0.28, 0.29, 0.3, 0.31, 0.32])
def test_shell_ground_within_its_richardson_step_of_the_threshold(a):
    # the error bar is the last extrapolation step, measured, not the
    # distance to the value it is checked against
    val, step = spherical_shell_ground(1.0, a)
    assert 0.0 < step <= 1e-5
    assert abs(val - (np.pi / (2.0 * a)) ** 2) <= step


def test_interval_solves_do_not_restart(monkeypatch):
    # the shift is a lower bound of the weighted pencil, so each of the
    # three refinement levels converges in a single Lanczos run
    runs = []
    lanczos = eigensolve._lanczos_shift_invert

    def counted(A, B, sigma, *args):
        out = lanczos(A, B, sigma, *args)
        runs.append((sigma, out[0][0]))
        return out

    monkeypatch.setattr(eigensolve, "_lanczos_shift_invert", counted)
    spherical_shell_ground(1.0, 0.3)
    assert len(runs) == 3
    for sigma, lam in runs:
        assert sigma < lam


def test_interval_solves_stop_early(lu_solves):
    # a shift under the ground state converges each run well before the
    # step cap of 320
    counterexample_radial(1.0, 0.3)
    spherical_shell_ground(1.0, 0.3)
    assert len(lu_solves) == 6
    assert max(lu_solves) <= 16


def test_full_pipeline_lu_work(lu_solves):
    # 11 eigensolves, one factorization each; fixed 48-step runs made 511
    # solves, early stopping and the strip shifts at eps1_mesh leave 116
    counterexample_full(1.0, 0.29, S=10, n_s_per_R=50, n_u=32)
    assert len(lu_solves) == 11
    assert sum(lu_solves) <= 150


def test_truncations_solved_largest_first_and_listed_ascending(monkeypatch):
    # the solve order leaves every truncation's spectrum as a standalone
    # solve at eps1_mesh gives it
    sizes = []
    assemble = counterexample_module.assemble_partial_wave

    def recorded(layer, m, mesh, **kw):
        sizes.append(mesh.n_unknowns)
        return assemble(layer, m, mesh, **kw)

    monkeypatch.setattr(counterexample_module, "assemble_partial_wave", recorded)
    rep = counterexample_full(1.0, 0.29, S=10, n_s_per_R=50, n_u=32)
    assert sizes[:3] == sorted(sizes, reverse=True)[:3]
    assert [res.S for res in rep.spectra] == pytest.approx([10.0, 20.0, 40.0], rel=0.01)
    for res, S in zip(rep.spectra, (10.0, 20.0, 40.0)):
        mesh = build_mesh(S, 0.29, int(50 * S), 32, align_face=np.pi / 2.0)
        alone = solve_spectrum(assemble(capped_layer(1.0, 0.29, S), 0, mesh), 2,
                               shift=rep.eps1_mesh)
        assert res.S == alone.S
        assert np.array_equal(res.eigenvalues, alone.eigenvalues)
        assert np.array_equal(res.residuals, alone.residuals)
        assert res.count == alone.count


def test_refinement_order_on_shell():
    order = radial_order_estimate(1.0, 0.3, kind="shell")
    assert 1.7 <= order <= 2.3


def test_refinement_order_rejects_unknown_problem():
    with pytest.raises(InvalidInputError):
        radial_order_estimate(1.0, 0.3, kind="sphere")


def test_bad_geometry_rejected():
    with pytest.raises(InvalidInputError):
        counterexample_radial(1.0, 1.5)
    with pytest.raises(InvalidInputError):
        spherical_shell_ground(0.2, 0.3)


@pytest.mark.parametrize("n_u,n_s_per_R", [(-1, 50), (0, 50), (1, 50), (15, 50), (32, 1.5)])
def test_too_few_cells_rejected_before_any_solve(n_u, n_s_per_R, monkeypatch):
    # n_u = 0 divided by zero and n_u = 1 failed in scipy inside the eps1_mesh
    # interval solve; 2-15 made that solve before build_mesh refused the strip
    def no_solve(*args, **kw):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(counterexample_module, "lowest_eigenpairs", no_solve)
    monkeypatch.setattr(spectrum_solve, "lowest_eigenpairs", no_solve)
    with pytest.raises(InvalidInputError, match="at least 16 cells"):
        counterexample_full(1.0, 0.3, S=10.0, n_s_per_R=n_s_per_R, n_u=n_u)


def test_full_pipeline_no_spectrum_below_eps1(monkeypatch):
    shifts = []  # shift of every eigensolve behind solve_spectrum
    lowest = spectrum_solve.lowest_eigenpairs

    def recorded(pair, k, shift, **kw):
        shifts.append(shift)
        return lowest(pair, k, shift=shift, **kw)

    monkeypatch.setattr(spectrum_solve, "lowest_eigenpairs", recorded)
    rep = counterexample_full(1.0, 0.3, S=10.0, n_s_per_R=40, n_u=32)
    assert rep.bracket[0] < rep.eps1 < rep.bracket[1]
    # truncated spectra: monotone in S, and each strip factored at the
    # mesh-consistent eps1, where its inertia counts no eigenvalue below
    lams = [res.eigenvalues[0] for res in rep.spectra]
    assert lams[0] >= lams[1] >= lams[2]
    for res in rep.spectra:
        assert res.shift == rep.eps1_mesh and res.count == 0
        assert res.eigenvalues[0] > rep.eps1_mesh
    # one eigensolve per truncation and one for the cap, which counts no
    # eigenvalue below its own mesh threshold
    assert shifts == [rep.eps1_mesh] * 3 + [rep.cap_neumann.shift]
    assert rep.cap_neumann.count == 0
    # the S-limit approaches the cylinder bottom from above
    assert lams[2] - rep.eps1_mesh <= 0.05 * (rep.kappa1_sq - rep.eps1)

    # hemisphere cap with the Neumann cut reproduces the spherical shell
    # ground state (the threshold) within its own mesh accuracy
    cap = rep.cap_neumann
    assert cap.eigenvalues[0] == pytest.approx(cap.threshold_mesh, rel=1e-3)
    assert rep.shell_ground == pytest.approx(rep.kappa1_sq, rel=1e-6)
    assert abs(rep.shell_ground - rep.kappa1_sq) <= rep.shell_error
    assert rep.eps1_error == counterexample_radial(1.0, 0.3)[1] > 0.0
