import numpy as np
import pytest
from scipy.integrate import solve_ivp

import layerspec.surface.graph as graph
from layerspec.catalog import build_chart
from layerspec.errors import IntegrationFailureError, InvalidInputError
from layerspec.numkernel import integrate_ode, ode


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
    stop = lambda s, y: y[0]
    traj = integrate_ode(lambda s, y: np.array([-1.0]), [1.0], (0.0, 5.0), tol=1e-10, stop=stop)
    assert abs(traj.stopped_at - 1.0) < 1e-9
    assert traj.s_end == traj.stopped_at
    assert abs(traj.states[-1, 0]) < 1e-9


def test_bad_arguments():
    with pytest.raises(InvalidInputError):
        integrate_ode(lambda s, y: y, [1.0], (0.0, 1.0), tol=0.0)
    with pytest.raises(InvalidInputError):
        integrate_ode(lambda s, y: y, [1.0], (1.0, 0.0), tol=1e-8)
    traj = integrate_ode(lambda s, y: y, [1.0], (0.0, 1.0), tol=1e-8)
    with pytest.raises(InvalidInputError):
        traj.eval(2.0)


def test_non_finite_tol_is_rejected_by_name():
    for tol in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="tol"):
            integrate_ode(lambda s, y: y, [1.0], (0.0, 1.0), tol=tol)


def test_non_finite_span_end_is_rejected_by_name():
    # an infinite end would take steps without bound
    for span in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(InvalidInputError, match="span"):
            integrate_ode(lambda s, y: -y, [1.0], span, tol=1e-8)


def test_tableau_is_scipys_dop853():
    from scipy.integrate._ivp import dop853_coefficients as dop

    for ours, theirs in ((ode._C, dop.C), (ode._A, dop.A), (ode._B, dop.B), (ode._E3, dop.E3),
                         (ode._E5, dop.E5), (ode._D, dop.D)):
        assert _same_bits(ours, theirs)


def test_eval_of_no_points_is_empty():
    rhs, initial = _linear_problem(2)
    traj = integrate_ode(rhs, initial, (0.0, 5.0), tol=1e-9)
    for rows in (None, [1]):
        full = traj.eval(np.array([1.0, 2.0]), rows=rows)
        out = traj.eval(np.array([]), rows=rows)
        assert out.shape == (full.shape[0], 0) and out.dtype == full.dtype


def _linear_problem(dim):
    # y' = A y + sin(s): a 2-state oscillator and a coupled 12-state system
    rng = np.random.default_rng(dim)
    a = np.array([[0.0, 1.0], [-1.0, 0.0]]) if dim == 2 else 0.3 * rng.normal(size=(dim, dim))
    return (lambda s, y: a @ y + np.sin(s)), rng.normal(size=dim)


def _reference(rhs, initial, span, tol, stop=None):
    # the stop is scipy's terminal event with direction -1
    event = None
    if stop is not None:
        event = lambda s, y: stop(s, y)
        event.terminal = True
        event.direction = -1
    return solve_ivp(rhs, span, initial, method="DOP853", dense_output=True, rtol=tol, atol=tol, events=event)


@pytest.mark.parametrize("dim", [2, 12])
def test_row_selected_eval_equals_full_eval_rows(dim):
    rhs, initial = _linear_problem(dim)
    traj = integrate_ode(rhs, initial, (0.0, 5.0), tol=1e-9)
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
    ref = _reference(rhs, initial, (0.0, 5.0), 1e-9)
    assert np.array_equal(full[:, ~on_node], ref.sol(s)[:, ~on_node])

    one = traj.eval(s[0], rows=rows)
    assert one.shape == (rows.size,)
    assert np.all(np.abs(one - part[:, 0]) <= 1e-15 * np.abs(part[:, 0]))
    with pytest.raises(InvalidInputError):
        traj.eval(np.array([1.0, 5.5]), rows=rows)
    with pytest.raises(InvalidInputError):
        traj.eval(-0.5, rows=rows)


# Bitwise parity with scipy's DOP853: the in-house stepper must take the same
# steps, store the same states and interpolants, and stop where scipy's
# terminal, falling event stops.


def _assert_matches_scipy(rhs, initial, span, tol, stop=None):
    traj = integrate_ode(rhs, initial, span, tol=tol, stop=stop)
    ref = _reference(rhs, np.asarray(initial, dtype=float), span, tol, stop=stop)
    assert np.array_equal(traj.abscissae, ref.t)
    assert np.array_equal(traj.states, ref.y.T)
    s = np.linspace(span[0], traj.s_end, 301)
    off = ~np.isin(s, traj.abscissae)
    assert off.sum() > 250
    assert np.array_equal(traj.eval(s)[:, off], ref.sol(s)[:, off])
    if stop is None or ref.t_events[0].size == 0:
        assert traj.stopped_at is None
    else:
        assert traj.stopped_at == ref.t_events[0][0] == traj.s_end
        assert np.array_equal(traj.states[-1], ref.y_events[0][0])
    return traj


@pytest.mark.parametrize("dim", [2, 12])
def test_matches_scipy_dop853_bitwise(dim):
    rhs, initial = _linear_problem(dim)
    _assert_matches_scipy(rhs, initial, (0.0, 5.0), 1e-9)


def test_terminal_event_with_direction_matches_scipy():
    rhs = lambda s, y: np.array([y[1], -y[0]])
    traj = _assert_matches_scipy(rhs, [0.5, 1.0], (0.0, 10.0), 1e-10, stop=lambda s, y: y[0])
    # y = 0.5 cos s + sin s falls through zero at s = pi - atan(1/2)
    assert traj.stopped_at == pytest.approx(np.pi - np.arctan(0.5), abs=1e-9)


def test_rising_stop_never_fires():
    # s - 2.5 only rises through zero, so the whole span is integrated
    rhs, initial = _linear_problem(12)
    traj = _assert_matches_scipy(rhs, initial, (0.0, 5.0), 1e-9, stop=lambda s, y: s - 2.5)
    assert traj.stopped_at is None and traj.s_end == 5.0


def _captured_fan_problem(monkeypatch, make_chart):
    """The (rhs, initial, span, tol, stop) that a fan chart integrates."""
    calls = []

    def spy(rhs, initial, span, tol, stop=None, keep_interpolants=True):
        calls.append((rhs, initial, span, tol, stop))
        return integrate_ode(rhs, initial, span, tol=tol, stop=stop,
                             keep_interpolants=keep_interpolants)

    monkeypatch.setattr(graph, "integrate_ode", spy)
    chart = make_chart()
    assert len(calls) == 1
    return chart, calls[0]


def test_monkey_saddle_fan_matches_scipy(monkeypatch):
    chart, (rhs, initial, span, tol, stop) = _captured_fan_problem(
        monkeypatch, lambda: build_chart("monkey-saddle", {"theta_samples": 64, "s_max": 40.0})
    )
    assert initial.size == 6 * 64 and not chart.truncated
    _assert_matches_scipy(rhs, initial, span, tol, stop=stop)


def test_dense_output_between_nodes_is_within_3e_10_of_a_tight_run(monkeypatch):
    # the monkey-saddle coarse rays to s_max 340 (768 rays), read between
    # the nodes: each state block (x, y, v, r, r') stays within 3e-10 of its
    # largest value against a run at tol 1e-13.  Measured: at most 1.4e-10
    # (v), and 1.3e-10 for r'; the 5(4) pair's quartic output (scipy's RK45)
    # at tol 1e-10 is 5.9e-10 off in r'
    _, (rhs, initial, span, tol, stop) = _captured_fan_problem(
        monkeypatch, lambda: build_chart("monkey-saddle", {"s_max": 340.0})
    )
    assert initial.size == 6 * 768 and tol == 1e-10
    traj = integrate_ode(rhs, initial, span, tol=tol, stop=stop)
    tight = integrate_ode(rhs, initial, span, tol=1e-13, stop=stop)
    s = np.random.default_rng(340).uniform(*span, 3000)
    assert not np.isin(s, traj.abscissae).any()
    ref = tight.eval(s).reshape(6, -1)
    err = np.abs(traj.eval(s).reshape(6, -1) - ref).max(axis=1)
    assert np.all(err <= 3e-10 * np.abs(ref).max(axis=1))


def _bump():
    # a tall Gaussian bump seen from off its top: rays meet a conjugate point
    bump = lambda x, y: 2.0 * np.exp(-(x**2 + y**2))
    return graph.GraphSurface(
        f=bump,
        fx=lambda x, y: -2.0 * x * bump(x, y),
        fy=lambda x, y: -2.0 * y * bump(x, y),
        fxx=lambda x, y: (4.0 * x**2 - 2.0) * bump(x, y),
        fxy=lambda x, y: 4.0 * x * y * bump(x, y),
        fyy=lambda x, y: (4.0 * y**2 - 2.0) * bump(x, y),
        pole=(0.3, 0.0),
    )


def test_truncating_fan_matches_scipy(monkeypatch):
    with pytest.warns(RuntimeWarning, match="conjugate point"):
        chart, (rhs, initial, span, tol, stop) = _captured_fan_problem(
            monkeypatch, lambda: graph.geodesic_fan(_bump(), theta_samples=16, s_max=8.0)
        )
    assert chart.truncated
    traj = _assert_matches_scipy(rhs, initial, span, tol, stop=stop)
    assert traj.s_end == traj.stopped_at < span[1]


# With keep_interpolants=False a trajectory keeps every step's start state
# and builds a step's interpolant from it on the step's first read, by
# taking the step again.  Every read path, in any order, must give the bits
# of the stored trajectory and of scipy's DOP853.


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _built(traj):
    """The steps that hold their interpolant."""
    return [i for i, p in enumerate(traj._sol.interpolants) if p._Q is not None]


def _assert_built_on_read_matches(rhs, initial, span, tol, stop=None):
    def on_read():
        return integrate_ode(rhs, initial, span, tol=tol, stop=stop, keep_interpolants=False)

    kept = integrate_ode(rhs, initial, span, tol=tol, stop=stop)
    ref = _reference(rhs, np.asarray(initial, dtype=float), span, tol, stop=stop)
    steps = kept._sol.interpolants
    n = len(steps)
    assert n == len(ref.sol.interpolants) == kept.abscissae.size - 1 > 16

    # as integrated: every start, and only the interpolant that the stop read
    traj = on_read()
    assert _same_bits(traj.abscissae, kept.abscissae) and traj.stopped_at == kept.stopped_at
    assert _same_bits(traj.states, kept.states)
    assert len(_built(traj)) <= (stop is not None)

    # dense evaluation off and on the nodes
    s = np.linspace(span[0], kept.s_end, 301)
    nodes = kept.abscissae[::-7]
    for points in (s, np.r_[s, nodes], nodes):
        traj = on_read()
        assert _same_bits(traj.eval(points), kept.eval(points))
        assert _same_bits(traj.eval(points, rows=[0]), kept.eval(points, rows=[0]))
    assert _same_bits(on_read().eval(nodes).T, kept.states[::-7])

    # each step's own call, as the stop reads it
    traj = on_read()
    for built, stored, scipy_step in zip(traj._sol.interpolants, steps, ref.sol.interpolants):
        t = stored.t_old + 0.375 * stored.h
        assert _same_bits(built(t), stored(t)) and _same_bits(stored(t), scipy_step(t))

    # starts and interpolants read one step at a time, in increasing,
    # decreasing and random order; a read builds its own interpolant only
    rng = np.random.default_rng(n)
    for order in (range(n), range(n - 1, -1, -1), rng.permutation(n)[: n // 2]):
        traj = on_read()
        for i in order:
            built, stored, scipy_step = traj._sol.interpolants[i], steps[i], ref.sol.interpolants[i]
            assert _same_bits(built.y_old, stored.y_old)
            assert _same_bits(built.Q, stored.Q) and _same_bits(stored.Q, scipy_step.F)
        assert set(_built(traj)) - set(order) <= {n - 1}
    return kept


@pytest.mark.parametrize("dim", [2, 12])
def test_interpolants_built_on_read_match_stored_and_scipy(dim):
    rhs, initial = _linear_problem(dim)
    _assert_built_on_read_matches(rhs, initial, (0.0, 10.0), 1e-9)


def test_monkey_saddle_fan_interpolants_built_on_read(monkeypatch):
    _, (rhs, initial, span, tol, stop) = _captured_fan_problem(
        monkeypatch, lambda: build_chart("monkey-saddle", {"theta_samples": 64, "s_max": 40.0})
    )
    _assert_built_on_read_matches(rhs, initial, span, tol, stop=stop)


def test_truncating_fan_interpolants_built_on_read(monkeypatch):
    with pytest.warns(RuntimeWarning, match="conjugate point"):
        _, (rhs, initial, span, tol, stop) = _captured_fan_problem(
            monkeypatch, lambda: graph.geodesic_fan(_bump(), theta_samples=16, s_max=8.0)
        )
    # the last step is cut short by the stop root
    traj = _assert_built_on_read_matches(rhs, initial, span, tol, stop=stop)
    last = traj._sol.interpolants[-1]
    assert last.t_old < traj.stopped_at < last.t_old + last.h

    # a stop whose root is exactly the node before the step that brackets
    # it: that step is dropped, as scipy drops it
    node = traj.abscissae[-2]
    on_node = _assert_built_on_read_matches(rhs, initial, span, tol, stop=lambda s, y: -abs(s - node))
    assert on_node.stopped_at == on_node.s_end == node


@pytest.mark.parametrize("keep", [True, False])
def test_trajectory_is_independent_of_the_callers_initial_array(keep):
    rhs = lambda s, y: np.array([y[1], -y[0]])
    initial = np.array([0.0, 1.0])
    traj = integrate_ode(rhs, initial, (0.0, 10.0), tol=1e-9, keep_interpolants=keep)
    s = np.linspace(0.0, 10.0, 41)
    before = traj.eval(s)
    initial += 1.0
    assert _same_bits(traj.eval(s), before)
    fresh = integrate_ode(rhs, [0.0, 1.0], (0.0, 10.0), tol=1e-9, keep_interpolants=keep)
    assert _same_bits(traj.states, fresh.states)


def test_blowup_failure_matches_scipy():
    rhs = lambda s, y: y**2
    ref = _reference(rhs, [1.0], (0.0, 2.0), 1e-10)
    assert ref.status == -1
    with pytest.raises(IntegrationFailureError) as exc:
        integrate_ode(rhs, [1.0], (0.0, 2.0), tol=1e-10)
    assert exc.value.last_s == ref.t[-1]
    assert str(exc.value).startswith(ref.message)
