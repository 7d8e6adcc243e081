"""The sampling protocol every polar chart meets: grid(s, stride),
embedding(s, stride) and theta_stride_for(max_rays); every grid field
broadcasts to its ring."""

from dataclasses import fields

import numpy as np
import pytest

from layerspec.catalog import build_chart
from layerspec.layer import LayerSpec, det_factor, layer_metric
from layerspec.surface import ChartGrid
from layerspec.surface.charts import READ_POINTS, read_rings

_S = np.array([0.3, 1.0, 2.5, 6.0])
_FIELDS = [f.name for f in fields(ChartGrid) if f.name not in ("s", "theta")]


@pytest.fixture(scope="module")
def charts():
    return {
        "plane": build_chart("plane", {"s_max": 10.0}),
        "hyperboloid": build_chart("hyperboloid", {"s_max": 10.0}),
        "fan": build_chart("hyperbolic-paraboloid", {"s_max": 10.0, "theta_samples": 64}),
    }


@pytest.mark.parametrize("name", ["plane", "hyperboloid", "fan"])
@pytest.mark.parametrize("stride", [1, 2, 4])
def test_strided_grid_samples_the_strided_ring(charts, name, stride):
    chart = charts[name]
    g = chart.grid(_S, stride=stride)
    assert np.array_equal(g.theta, chart.theta_nodes[::stride])
    shape = (_S.size, chart.theta_nodes[::stride].size)
    for field in _FIELDS:
        assert np.broadcast_shapes(getattr(g, field).shape[:2], shape) == shape, field
        # a revolution chart's fields are columns
        width = 1 if chart.rotation_invariant else shape[1]
        assert getattr(g, field).shape == (_S.size, width), field
    for points in chart.embedding(_S, stride=stride):
        assert points.shape == shape + (3,)


def test_fan_strided_fields_equal_full_grid_columns(charts):
    chart = charts["fan"]
    stride = chart.theta_stride_for(24)
    assert stride == 2
    full = chart.grid(_S)
    strided = chart.grid(_S, stride=stride)
    for field in _FIELDS:
        assert np.array_equal(getattr(strided, field), getattr(full, field)[:, ::stride]), field
    for points, full_points in zip(chart.embedding(_S, stride=stride), chart.embedding(_S)):
        assert np.array_equal(points, full_points[:, ::stride])


def test_fan_grid_fields_do_not_depend_on_read_order(charts):
    # a fan grid computes its fields on first read and keeps them
    chart = charts["fan"]
    forward, backward = chart.grid(_S, stride=2), chart.grid(_S, stride=2)
    first = {field: getattr(forward, field) for field in _FIELDS}
    last = {field: getattr(backward, field) for field in reversed(_FIELDS)}
    for field in _FIELDS:
        assert np.array_equal(first[field], last[field]), field
        assert getattr(forward, field) is first[field], field


@pytest.mark.parametrize("stride", [1, 3, 4, 64])
def test_fan_grid_evaluates_the_dense_solution_once_on_its_own_rays(charts, stride, monkeypatch):
    chart = charts["fan"]
    traj = chart._traj
    sizes = []

    def counted(s, rows=None, _eval=traj.eval):
        out = _eval(s, rows=rows)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(traj, "eval", counted)
    chart.grid(_S, stride=stride)
    assert sizes == [6 * -(-chart.n_theta // stride) * _S.size]


@pytest.mark.parametrize("name", ["plane", "hyperboloid", "fan"])
def test_grid_of_no_radii_is_empty(charts, name):
    chart = charts[name]
    g = chart.grid(np.array([]))
    assert g.s.shape == (0,)
    for field in _FIELDS:
        assert np.broadcast_shapes(getattr(g, field).shape, (0, g.theta.size)) == (0, g.theta.size), field
    assert all(v.shape == (0, g.theta.size, 3) for v in chart.embedding(np.array([])))


@pytest.mark.parametrize("name", ["plane", "hyperboloid"])
def test_closed_form_rings_are_never_thinned(charts, name):
    for max_rays in (1, 24, 256, 10**6):
        assert charts[name].theta_stride_for(max_rays) == 1


def test_single_column_grid_is_the_theta_zero_column(charts):
    chart = charts["hyperboloid"]
    one = chart.grid(_S, stride=chart.theta_nodes.size)
    full = chart.grid(_S)
    assert np.array_equal(one.theta, [0.0])
    for field in _FIELDS:
        assert np.array_equal(getattr(one, field), getattr(full, field)[:, :1]), field


@pytest.mark.parametrize("name", ["plane", "hyperboloid"])
def test_revolution_sweep_is_one_read_of_its_column(charts, name, chart_reads):
    # a revolution grid is one column wide, so the points budget counts one
    # per radius, not one per ray of the nominal ring (which cut at 512 radii)
    chart = charts[name]
    s = np.linspace(0.0, chart.s_max, 2000)
    assert s.size * chart.theta_nodes.size > READ_POINTS
    whole = chart.grid(s).r[:, 0]
    reads = chart_reads(chart)
    rings = read_rings(chart, s, lambda g: g.r[:, 0])
    assert len(reads) == 1 and np.array_equal(reads[0][0], s)
    assert np.array_equal(rings, whole)


def test_plane_grid_is_exactly_flat(charts):
    chart = charts["plane"]
    s = np.r_[0.0, _S, chart.s_max]
    g = chart.grid(s)
    th = chart.theta_nodes
    flat = np.zeros((s.size, th.size))
    ring = lambda v: np.broadcast_to(v, flat.shape)
    assert np.array_equal(ring(g.r), s[:, None] + flat)
    assert np.array_equal(ring(g.dr_ds), flat + 1.0)
    for field in ("K", "M", "k1", "k2", "dM_ds", "dM_dtheta", "ii_ss", "ii_st", "ii_tt"):
        assert np.array_equal(ring(getattr(g, field)), flat), field
    p = np.stack([s[:, None] * np.cos(th), s[:, None] * np.sin(th), flat], axis=-1)
    assert np.array_equal(chart.embedding(s)[0], p)


def test_point_samples_on_revolution_layer_do_not_depend_on_theta(charts):
    layer = LayerSpec(charts["hyperboloid"], a=0.3)
    for s, u in ((0.5, 0.1), (3.0, -0.2)):
        assert layer_metric(layer, s, 0.0, u) == layer_metric(layer, s, 0.77, u)
        assert det_factor(layer, s, 0.0, u) == det_factor(layer, s, 0.77, u)


@pytest.mark.parametrize("name", ["plane", "hyperboloid", "fan"])
def test_embedding_tangents_are_the_geodesic_polar_frame(charts, name):
    chart = charts[name]
    g = chart.grid(_S)
    p, dp_ds, dp_dt = chart.embedding(_S)
    r = np.broadcast_to(g.r, dp_dt.shape[:2])
    assert np.allclose(np.linalg.norm(dp_ds, axis=-1), 1.0, atol=1e-8)
    assert np.allclose(np.linalg.norm(dp_dt, axis=-1), r, rtol=1e-8)
    assert np.allclose(np.sum(dp_ds * dp_dt, axis=-1), 0.0, atol=1e-8 * r.max())
    # every ray leaves from the one pole point
    p0 = chart.embedding(np.array([0.0]))[0]
    assert np.allclose(p0, p0[:, :1], rtol=0.0, atol=1e-12)
