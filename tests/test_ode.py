import numpy as np
import pytest

from layerspec.errors import IntegrationFailureError, InvalidInputError
from layerspec.numkernel import integrate_ode


def test_constant_solution():
    traj = integrate_ode(lambda s, y: np.zeros_like(y), [3.5], (0.0, 10.0), tol=1e-10)
    ss = np.linspace(0, 10, 37)
    assert np.allclose(traj.eval(ss)[0], 3.5, rtol=0, atol=0)


def test_harmonic_oscillator():
    # y'' = -y as first-order system; y(0)=0, y'(0)=1 -> y = sin
    tol = 1e-10
    rhs = lambda s, y: np.array([y[1], -y[0]])
    traj = integrate_ode(rhs, [0.0, 1.0], (0.0, np.pi / 2), tol=tol)
    assert abs(traj.eval(np.pi / 2)[0] - 1.0) <= 10 * tol


def test_exponential_growth():
    tol = 1e-10
    traj = integrate_ode(lambda s, y: y, [1.0], (0.0, 1.0), tol=tol)
    assert abs(traj.eval(1.0)[0] - np.e) <= 10 * tol * np.e


def test_tolerance_controls_error():
    rhs = lambda s, y: np.array([y[1], -y[0]])
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        traj = integrate_ode(rhs, [0.0, 1.0], (0.0, 20 * np.pi), tol=tol)
        errs.append(abs(traj.eval(20 * np.pi)[0] - 0.0))
    assert errs[0] > errs[1] > errs[2]
    for tol, err in zip((1e-6, 1e-9, 1e-12), errs):
        assert err <= 1e3 * tol  # accumulated over ~60 periods


def test_dense_output_matches_nodes_exactly():
    rhs = lambda s, y: np.array([np.cos(s) * y[0]])
    traj = integrate_ode(rhs, [2.0], (0.0, 6.0), tol=1e-9)
    at_nodes = traj.eval(traj.abscissae)
    assert np.array_equal(at_nodes.T, traj.states)


def test_blowup_raises_with_last_s():
    # y' = y^2, y(0)=1 blows up at s=1
    with pytest.raises(IntegrationFailureError) as exc:
        integrate_ode(lambda s, y: y**2, [1.0], (0.0, 2.0), tol=1e-10)
    assert exc.value.last_s <= 1.0 + 1e-6


def test_event_detection():
    ev = lambda s, y: y[0]
    ev.terminal = True
    ev.direction = -1
    traj = integrate_ode(lambda s, y: np.array([-1.0]), [1.0], (0.0, 5.0), tol=1e-10, events=[ev])
    s_hit, y_hit = traj.events[0]
    assert abs(s_hit - 1.0) < 1e-9
    assert traj.s_end == pytest.approx(1.0, abs=1e-9)


def test_bad_arguments():
    with pytest.raises(InvalidInputError):
        integrate_ode(lambda s, y: y, [1.0], (0.0, 1.0), tol=0.0)
    with pytest.raises(InvalidInputError):
        integrate_ode(lambda s, y: y, [1.0], (1.0, 0.0), tol=1e-8)
    traj = integrate_ode(lambda s, y: y, [1.0], (0.0, 1.0), tol=1e-8)
    with pytest.raises(InvalidInputError):
        traj.eval(2.0)


def _linear_trajectory(dim):
    # y' = A y + sin(s): a 2-state oscillator and a coupled 12-state system
    rng = np.random.default_rng(dim)
    a = np.array([[0.0, 1.0], [-1.0, 0.0]]) if dim == 2 else 0.3 * rng.normal(size=(dim, dim))
    return integrate_ode(lambda s, y: a @ y + np.sin(s), rng.normal(size=dim), (0.0, 5.0), tol=1e-9)


@pytest.mark.parametrize("dim", [2, 12])
def test_row_selected_eval_equals_full_eval_rows(dim):
    traj = _linear_trajectory(dim)
    rng = np.random.default_rng(100 + dim)
    # unsorted, with repeats, and with points exactly on the stored abscissae
    s = np.concatenate([rng.uniform(0.0, 5.0, 40), traj.abscissae[::2], traj.abscissae[[1, 1]], [2.5, 2.5]])
    rng.shuffle(s)
    rows = rng.permutation(dim)[: dim // 2 + 1]

    full = traj.eval(s)
    part = traj.eval(s, rows=rows)
    assert full.shape == (dim, s.size) and part.shape == (rows.size, s.size)
    assert np.all(np.abs(part - full[rows]) <= 1e-15 * np.abs(full[rows]))

    on_node = np.isin(s, traj.abscissae)
    stored = traj.states[np.searchsorted(traj.abscissae, s[on_node])]
    assert np.array_equal(full[:, on_node], stored.T)
    assert np.array_equal(part[:, on_node], stored[:, rows].T)
    # off the nodes, the evaluator is scipy's dense output, reordered
    assert np.array_equal(full[:, ~on_node], traj._sol(s)[:, ~on_node])

    one = traj.eval(s[0], rows=rows)
    assert one.shape == (rows.size,)
    assert np.all(np.abs(one - part[:, 0]) <= 1e-15 * np.abs(part[:, 0]))
    with pytest.raises(InvalidInputError):
        traj.eval(np.array([1.0, 5.5]), rows=rows)
    with pytest.raises(InvalidInputError):
        traj.eval(-0.5, rows=rows)
