import os

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
    solve_spectrum,
    spherical_shell_ground,
)
from layerspec.spectrum.counterexample import (
    _RADIAL_MODES_CAP,
    _interval_ground,
    _radial_modes_ground,
    capped_layer,
)

KAP2 = (np.pi / 0.6) ** 2  # threshold for a = 0.3

# Solves the counterexample's truncations at the S given as arguments, in
# that order, at their eps1_mesh shift, and prints the growth (kB) of the
# peak (VmHWM) over the resident memory before the first.
_TRUNCATIONS_PROBE = """
import json, sys
from layerspec.numkernel import eigensolve
from layerspec.spectrum.counterexample import _interval_ground, _truncation_spectrum

def status_kb(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

shift = _interval_ground(1.0, 0.29, 32)
eigensolve._MALLOC_TRIM(0)
rss0 = status_kb("VmRSS")
for S in sys.argv[1:]:
    _truncation_spectrum(1.0, 0.29, float(S), 50, 32, shift)
print(json.dumps({"peak_growth": status_kb("VmHWM") - rss0}))
"""


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
    assert spherical_shell_ground(1.0, 0.3) == pytest.approx(KAP2, rel=1e-15)


@pytest.mark.parametrize("a", [0.28, 0.29, 0.3, 0.31, 0.32])
def test_shell_ground_is_the_threshold_at_every_radius(a):
    # f = g/rho turns the l = 0 shell problem into the flat interval one
    for R in (0.5, 1.0, 2.0, 8.0):
        assert spherical_shell_ground(R, a) == (np.pi / (2.0 * a)) ** 2


def _fd_richardson(R, a):
    """eps_1 by second-order FD on 3200 and 6400 cells and one Richardson step.

    Returns the value and the step: the FD route that the Legendre modes
    replaced, kept as an independent check of them.
    """
    lam_h, lam_h2 = _interval_ground(R, a, 3200), _interval_ground(R, a, 6400)
    value = lam_h2 + (lam_h2 - lam_h) / 3.0
    return value, abs(value - lam_h2)


@pytest.mark.parametrize("a", [0.28, 0.29, 0.3, 0.31, 0.32])
def test_legendre_eps1_within_the_fd_route_bar(a):
    eps1, bar = counterexample_radial(1.0, a)
    fd, step = _fd_richardson(1.0, a)
    assert abs(eps1 - fd) <= step
    # the Legendre bar is far inside the FD one
    assert bar <= 1e-4 * step


def _modes_used(R, a):
    """(eps_1, its bar, the mode count that gave it)."""
    eps1, bar = counterexample_radial(R, a)
    n = next(n for n in (32, 64, 128) if _radial_modes_ground(R, a, n) == eps1)
    return eps1, bar, n


@pytest.mark.parametrize("R,a", [(1.0, 0.3), (1.0, 0.9)])
def test_eps1_bar_covers_twice_the_modes(R, a):
    # at the default the last change (7e-14) is rounding, smaller than the
    # value's own scatter: the rounding floor makes the bar cover 64 modes
    eps1, bar, n = _modes_used(R, a)
    assert abs(_radial_modes_ground(R, a, 2 * n) - eps1) <= bar


def test_eps1_bar_at_the_default():
    eps1, bar, n = _modes_used(1.0, 0.3)
    assert n == 32
    assert 0.0 < bar <= 1e-10 * eps1


def test_eps1_near_the_axis_stops_at_the_mode_cap():
    # a -> R brings the potential's pole to the inner wall: convergence slows
    # and the doubling stops at the cap, its bar the last change
    eps1, bar, n = _modes_used(1.0, 0.99)
    assert n == _RADIAL_MODES_CAP
    assert abs(_radial_modes_ground(1.0, 0.99, 2 * n) - eps1) <= bar <= 1e-9 * eps1


def test_interval_solves_do_not_restart(monkeypatch):
    # the Gershgorin shift is a lower bound of the interval pencil, so the
    # eps1_mesh solve converges in a single Lanczos run
    runs = []
    lanczos = eigensolve._lanczos_shift_invert

    def counted(A, B, sigma, *args):
        out = lanczos(A, B, sigma, *args)
        runs.append((sigma, out[0][0]))
        return out

    monkeypatch.setattr(eigensolve, "_lanczos_shift_invert", counted)
    _interval_ground(1.0, 0.3, 32)
    assert len(runs) == 1
    for sigma, lam in runs:
        assert sigma < lam


def test_interval_solves_stop_early(lu_solves):
    # eps_1 and the shell ground factor nothing; the eps1_mesh interval
    # solve, shifted under its ground state, converges well before the step
    # cap of 320
    counterexample_radial(1.0, 0.3)
    spherical_shell_ground(1.0, 0.3)
    assert lu_solves == []
    _interval_ground(1.0, 0.3, 32)
    assert len(lu_solves) == 1
    assert max(lu_solves) <= 16


def test_full_pipeline_lu_work(lu_solves):
    # 5 eigensolves, one factorization each: eps1_mesh, three truncations and
    # the cap; early stopping and the strip shifts at eps1_mesh keep them to
    # 55 solves
    counterexample_full(1.0, 0.29, S=10, n_s_per_R=50, n_u=32)
    assert len(lu_solves) == 5
    assert sum(lu_solves) <= 90


def test_truncations_listed_ascending_as_standalone_solves():
    # every truncation's spectrum is what a standalone solve at eps1_mesh gives
    rep = counterexample_full(1.0, 0.29, S=10, n_s_per_R=50, n_u=32)
    assert [res.S for res in rep.spectra] == pytest.approx([10.0, 20.0, 40.0], rel=0.01)
    for res, S in zip(rep.spectra, (10.0, 20.0, 40.0)):
        mesh = build_mesh(S, 0.29, int(50 * S), 32, align_face=np.pi / 2.0)
        alone = solve_spectrum(assemble_partial_wave(capped_layer(1.0, 0.29, S), 0, mesh), 2,
                               shift=rep.eps1_mesh)
        assert res.S == alone.S
        assert np.array_equal(res.eigenvalues, alone.eigenvalues)
        assert np.array_equal(res.residuals, alone.residuals)
        assert res.count == alone.count


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.skipif(eigensolve._MALLOC_TRIM is None, reason="needs malloc_trim")
def test_smaller_truncations_first_leave_the_peak_of_the_largest(fresh_probe):
    # the eigensolver trims the heap after the factorization and after the
    # run, so the order of solves does not set the peak: without the trim
    # after the factorization, S, 2S, 4S in ascending order grew the peak
    # 3.7 MB more than 4S alone, with it 0.6 to 1.1 MB
    ascending = fresh_probe(_TRUNCATIONS_PROBE, 10.0, 20.0, 40.0)["peak_growth"]
    alone = fresh_probe(_TRUNCATIONS_PROBE, 40.0)["peak_growth"]
    assert ascending <= alone + 2048, (ascending, alone)


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
    assert rep.shell_ground == rep.kappa1_sq
    assert (rep.eps1, rep.eps1_error) == counterexample_radial(1.0, 0.3)
