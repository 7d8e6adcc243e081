"""Two-level fans: the coarse ray level is shot at build, the fine one on
first read.

A fan of n rays shoots theta_nodes[::k] at build, k the power-of-two stride
thinning the ring to about 768 rays, and the other rays as one more batch
the first time a read needs one of them.  Reads combine the two levels in
ring order.
"""

import numpy as np
import pytest

from layerspec.catalog import build_chart
from layerspec.cli import main
from layerspec.errors import TruncationError
from layerspec.numkernel import integrate_ode, ode
from layerspec.surface import graph
from layerspec.surface.totals import radial_gauss_partials, total_gauss

_FIELDS = ("r", "dr_ds", "K", "M", "k1", "k2", "dM_ds", "dM_dtheta", "ii_ss", "ii_st", "ii_tt")
_S = np.array([0.5, 3.0, 11.0, 19.5])


def _spy(monkeypatch, replace_stop=None):
    """Record the state size of every batch a fan shoots through graph.integrate_ode."""
    sizes = []

    def spy(rhs, initial, span, tol, stop=None, keep_interpolants=True):
        sizes.append(initial.size)
        if replace_stop is not None and len(sizes) > 1:
            stop = replace_stop
        return integrate_ode(rhs, initial, span, tol=tol, stop=stop,
                             keep_interpolants=keep_interpolants)

    monkeypatch.setattr(graph, "integrate_ode", spy)
    return sizes


def _monkey(n_rays):
    return build_chart("monkey-saddle", {"s_max": 20.0, "theta_samples": n_rays})


@pytest.fixture(scope="module")
def fans():
    return {n: _monkey(n) for n in (768, 1536)}


def test_coarse_stride_thins_the_ring_to_about_768_rays():
    for n_rays, k in [(64, 1), (1024, 1), (1535, 1), (1536, 2), (3072, 4), (3100, 4)]:
        assert graph._thinning_stride(n_rays, graph._COARSE_RAYS) == k, n_rays


def test_coarse_level_is_the_768_ray_fan(fans):
    coarse, alone = fans[1536]._traj, fans[768]._traj
    assert np.array_equal(coarse.abscissae, alone.abscissae)
    assert np.array_equal(coarse.states, alone.states)
    strided, full = fans[1536].grid(_S, stride=2), fans[768].grid(_S)
    for field in _FIELDS:
        assert np.array_equal(getattr(strided, field), getattr(full, field)), field
    for points, alone_points in zip(fans[1536].embedding(_S, stride=2), fans[768].embedding(_S)):
        assert np.array_equal(points, alone_points)


def test_strided_grid_equals_full_grid_columns(fans):
    fan = fans[1536]
    full, strided = fan.grid(_S), fan.grid(_S, stride=2)
    assert np.array_equal(strided.theta, full.theta[::2])
    for field in _FIELDS:
        assert np.array_equal(getattr(strided, field), getattr(full, field)[:, ::2]), field
    for points, full_points in zip(fan.embedding(_S, stride=2), fan.embedding(_S)):
        assert np.array_equal(points, full_points[:, ::2])


def test_launch_directions_increase_around_the_full_ring(fans):
    # at the pole the ray velocity is the launch direction; a wrong interleave
    # of the two levels would break the monotone angle
    _, dp_ds, _ = fans[1536].embedding(np.array([0.0]))
    angle = np.unwrap(np.arctan2(dp_ds[0, :, 1], dp_ds[0, :, 0]))
    assert np.all(np.diff(angle) > 0.0)
    assert angle[-1] - angle[0] < 2.0 * np.pi


def test_fine_level_is_shot_once_by_the_first_off_coarse_read(monkeypatch):
    sizes = _spy(monkeypatch)
    fan = _monkey(1536)
    assert sizes == [6 * 768]
    fan.grid(_S, stride=2)
    fan.grid(_S, stride=fan.theta_stride_for(256))
    radial_gauss_partials(fan, _S, stride=2)
    assert sizes == [6 * 768]
    fan.grid(_S, stride=3)
    assert sizes == [6 * 768, 6 * 768]
    fan.grid(_S)
    radial_gauss_partials(fan, _S)
    assert sizes == [6 * 768, 6 * 768]


def test_full_ring_read_builds_only_the_fine_steps_it_reads(monkeypatch):
    # the fine level stores no interpolant: a read builds those of the steps
    # its radii fall in, once
    fan = _monkey(1536)
    radii = np.linspace(1.0, 19.0, 8)
    radial_gauss_partials(fan, radii)
    steps = fan._fine_traj._sol.interpolants
    assert 0 < sum(p._Q is not None for p in steps) <= radii.size < len(steps)
    stages = []
    monkeypatch.setattr(ode, "_stages", lambda *args: stages.append(args))
    radial_gauss_partials(fan, radii)
    assert stages == []


def _bump(pole):
    # the tall Gaussian bump of the fan/scipy comparison: rays meet a
    # conjugate point
    bump = lambda x, y: 2.0 * np.exp(-(x**2 + y**2))
    return graph.GraphSurface(
        f=bump,
        fx=lambda x, y: -2.0 * x * bump(x, y),
        fy=lambda x, y: -2.0 * y * bump(x, y),
        fxx=lambda x, y: (4.0 * x**2 - 2.0) * bump(x, y),
        fxy=lambda x, y: 4.0 * x * y * bump(x, y),
        fyy=lambda x, y: (4.0 * y**2 - 2.0) * bump(x, y),
        pole=pole,
    )


@pytest.mark.parametrize("pole, first", [((0.3, 0.0), "coarse"), ((0.3, 0.001), "fine")])
def test_truncating_fan_stops_at_the_earlier_level_hit(monkeypatch, pole, first):
    sizes = _spy(monkeypatch)
    with pytest.warns(RuntimeWarning, match="conjugate point"):
        chart = graph.geodesic_fan(_bump(pole), theta_samples=1536, s_max=8.0)
    # a coarse hit shoots the fine level at build
    assert sizes == [6 * 768, 6 * 768]
    hits = {"coarse": chart._traj.s_end, "fine": chart._fine_traj.s_end}
    assert max(hits.values()) < 8.0
    assert min(hits, key=hits.get) == first
    assert chart.truncated
    assert chart.s_max == hits[first] * (1.0 - 1e-9)
    g = chart.grid(np.array([0.5, chart.s_max]))
    assert np.all(g.r[0] > 0.0)
    assert sizes == [6 * 768, 6 * 768]


def test_deferred_fine_level_hit_raises(monkeypatch):
    # the fine level is made to stop at s = 5 as if a ray met a conjugate
    # point there, after the chart has been built (and read) out to 20
    _spy(monkeypatch, replace_stop=lambda s, y: 5.0 - s)
    fan = _monkey(1536)
    assert not fan.truncated and fan.s_max == 20.0
    fan.grid(_S, stride=2)
    with pytest.raises(TruncationError, match="s = 5,"):
        fan.grid(_S)
    with pytest.raises(TruncationError, match="s = 5,"):
        radial_gauss_partials(fan, _S)
    assert fan.s_max == 20.0
    fan.grid(_S, stride=4)


def test_monkey_saddle_certify_shoots_only_the_coarse_level(monkeypatch, tmp_path):
    # certify reads rings of at most 768 rays, so the 3072-ray catalog fan
    # must integrate one batch of 768 rays
    sizes = _spy(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface.name = monkey-saddle\n")
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert sizes == [6 * 768]


def test_total_gauss_builds_only_the_read_fine_interpolants(monkeypatch):
    # the totals chart at catalog defaults: total_gauss reads the fine level
    # at 8 radii, and each step read builds its interpolant from its start
    # once, for 16 RHS calls
    rhs_calls = []  # per level: [calls while integrating, calls in all]

    def spy(rhs, initial, span, tol, stop=None, keep_interpolants=True):
        level = [0, 0]
        rhs_calls.append(level)

        def counted(s, y):
            level[1] += 1
            return rhs(s, y)

        traj = integrate_ode(counted, initial, span, tol=tol, stop=stop,
                             keep_interpolants=keep_interpolants)
        level[0] = level[1]
        return traj

    monkeypatch.setattr(graph, "integrate_ode", spy)
    chart = build_chart("monkey-saddle", {})
    schedule = chart.s_max * np.geomspace(1.0 / 64.0, 1.0, 8)
    total_gauss(chart, schedule)
    fine = chart._fine_traj
    read = set(np.searchsorted(fine.abscissae, schedule, side="left") - 1)
    assert len(read) == 8
    assert {i for i, p in enumerate(fine._sol.interpolants) if p._Q is not None} == read
    _, (integrating, in_all) = rhs_calls
    assert in_all - integrating == 16 * len(read)


def test_tracer_dense_bytes_expression_on_the_fine_level(monkeypatch):
    # perfbench's integrate_ode after-hook reads every step's .Q and .y_old
    # and then .states; on the fine level that builds every interpolant,
    # value for value those of the level shot with everything stored
    shots = []

    def spy(rhs, initial, span, tol, stop=None, keep_interpolants=True):
        shots.append((rhs, initial, span, tol, stop, keep_interpolants))
        return integrate_ode(rhs, initial, span, tol=tol, stop=stop,
                             keep_interpolants=keep_interpolants)

    monkeypatch.setattr(graph, "integrate_ode", spy)
    fan = _monkey(1536)
    fan.grid(_S)
    rhs, initial, span, tol, stop, keep = shots[1]
    assert not keep
    traj = integrate_ode(rhs, initial, span, tol=tol, stop=stop, keep_interpolants=False)
    stored = integrate_ode(rhs, initial, span, tol=tol, stop=stop)

    def hook(traj):
        return sum(p.Q.nbytes + p.y_old.nbytes for p in traj._sol.interpolants) + traj.states.nbytes

    assert hook(traj) == hook(stored)
    for built, kept in zip(traj._sol.interpolants, stored._sol.interpolants):
        assert np.array_equal(built.Q, kept.Q) and np.array_equal(built.y_old, kept.y_old)
    assert np.array_equal(traj.states, stored.states)
    assert np.array_equal(traj.abscissae, stored.abscissae)
