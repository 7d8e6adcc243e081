import dataclasses
import importlib

import pytest

from layerspec.catalog import build_chart
from layerspec.errors import CapabilityError, IntegrationFailureError
from layerspec.layer import LayerSpec
from layerspec.varform import certify, form, trials

# the package re-exports certify() under the submodule's name
certify_module = importlib.import_module("layerspec.varform.certify")

FAMILIES = ("goldstone_jaffe", "deformed", "thin", "symmetric_log")


def _wrap_form(monkeypatch, wrapper):
    """Route every evaluate_form call, polarizations included, through wrapper."""
    wrapped = wrapper(form.evaluate_form)
    monkeypatch.setattr(form, "evaluate_form", wrapped)
    monkeypatch.setattr(certify_module, "evaluate_form", wrapped)


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kw):
        calls.append(name)
        return real(*args, **kw)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_plane_not_found():
    layer = LayerSpec(build_chart("plane", {"s_max": 400.0}), a=0.1)
    cert = certify(layer)
    assert cert.verdict == "not-found"
    assert cert.q_tilde >= 0.0
    evaluated = [row for row in cert.evaluations if row[2] is not None]
    assert evaluated and all(row[2] >= 0.0 for row in evaluated)
    # every family ends with a row that says why it stopped
    last = {row[0]: row for row in cert.evaluations}
    assert sorted(last) == sorted(FAMILIES)
    assert all(row[2] is None and row[4] for row in last.values())


def test_hyperbolic_paraboloid_goldstone_jaffe():
    layer = LayerSpec(
        build_chart("hyperbolic-paraboloid", {"s_max": 4000.0, "theta_samples": 1024}), a=0.1
    )
    cert = certify(layer)
    assert cert.certified
    assert cert.family == "goldstone_jaffe"
    assert cert.q_tilde + cert.error < 0
    assert cert.margin >= 3.0


def test_monkey_saddle_goldstone_jaffe():
    layer = LayerSpec(
        build_chart("monkey-saddle", {"s_max": 4000.0, "theta_samples": 1024}), a=0.1
    )
    cert = certify(layer)
    assert cert.certified and cert.family == "goldstone_jaffe"
    assert cert.margin >= 3.0


def test_hyperboloid_symmetric_log():
    layer = LayerSpec(build_chart("hyperboloid", {"s_max": 1.5e8}), a=0.3)
    cert = certify(layer, strategies=("symmetric_log",))
    assert cert.certified and cert.family == "symmetric_log"
    assert cert.margin >= 3.0
    assert cert.params["n"] >= 2


def test_elliptic_paraboloid_thin():
    layer = LayerSpec(
        build_chart("elliptic-paraboloid", {"s_max": 4000.0, "theta_samples": 192}), a=0.05
    )
    cert = certify(layer, strategies=("thin",))
    assert cert.certified and cert.family == "thin"
    assert cert.margin >= 3.0


def test_no_applicable_family_raises():
    layer = LayerSpec(
        build_chart("elliptic-paraboloid", {"s_max": 100.0, "theta_samples": 64}), a=0.05
    )
    with pytest.raises(CapabilityError):
        certify(layer, strategies=("symmetric_log",))  # fan chart, not revolution
    with pytest.raises(CapabilityError):
        certify(layer, strategies=("goldstone_jaffe",))  # positive total curvature


def test_budget_limits_evaluations():
    layer = LayerSpec(build_chart("plane", {"s_max": 400.0}), a=0.1)
    cert = certify(layer, strategies=("goldstone_jaffe",), budget=1)
    evaluated = [row for row in cert.evaluations if row[2] is not None]
    assert len(evaluated) == 1


@pytest.fixture(scope="module")
def wide_plane():
    return LayerSpec(build_chart("plane", {"s_max": 4000.0}), a=0.1)


def _deformed_form_calls(monkeypatch, layer, budget):
    calls = []

    def counting(real):
        def evaluate(*args, **kw):
            calls.append(1)
            return real(*args, **kw)
        return evaluate

    _wrap_form(monkeypatch, counting)
    cert = certify(layer, strategies=("deformed",), budget=budget)
    return len(calls), cert


def test_budget_bounds_real_form_evaluations(monkeypatch, wide_plane):
    # a deformed step makes three evaluations (the polarization counts two)
    # and the first also evaluates the sigma-independent deformation
    calls, cert = _deformed_form_calls(monkeypatch, wide_plane, budget=9)
    assert calls == 7
    assert "budget" in cert.evaluations[-1][4]
    calls, cert = _deformed_form_calls(monkeypatch, wide_plane, budget=3)
    assert calls == 0
    assert [row[2] for row in cert.evaluations] == [None]


def test_deformed_sweep_builds_the_deformation_once(monkeypatch, wide_plane):
    bumps = _count_calls(monkeypatch, certify_module, "default_bump")
    bumps += _count_calls(monkeypatch, trials, "default_bump")
    calls, cert = _deformed_form_calls(monkeypatch, wide_plane, budget=40)
    steps = [row for row in cert.evaluations if row[2] is not None]
    assert len(steps) >= 2
    assert calls == 3 * len(steps) + 1
    assert len(bumps) == 1


def test_deformed_stops_on_a_non_positive_deformation_form(monkeypatch):
    deformations = []
    real_deformation = certify_module.deformation_trial

    def recorded(*args, **kw):
        deformations.append(real_deformation(*args, **kw))
        return deformations[-1]

    monkeypatch.setattr(certify_module, "deformation_trial", recorded)

    def negative_theta(real):
        def evaluate(layer, trial, **kw):
            fe = real(layer, trial, **kw)
            if any(trial is theta for theta in deformations):
                fe = dataclasses.replace(fe, q_tilde=-fe.q_tilde)
            return fe
        return evaluate

    _wrap_form(monkeypatch, negative_theta)
    layer = LayerSpec(build_chart("plane", {"s_max": 400.0}), a=0.1)
    cert = certify(layer, strategies=("deformed",))
    [row] = cert.evaluations
    assert row[0] == "deformed" and row[2] is None and "not positive" in row[4]
    assert cert.verdict == "not-found" and cert.family == "none"


@pytest.mark.parametrize("family", FAMILIES)
def test_integration_failure_propagates(monkeypatch, family):
    def failing(real):
        def evaluate(*args, **kw):
            raise IntegrationFailureError("step size underflow", last_s=1.0)
        return evaluate

    _wrap_form(monkeypatch, failing)
    if family == "symmetric_log":  # the plane's mean-curvature pairing vanishes
        layer = LayerSpec(build_chart("hyperboloid", {"s_max": 1000.0}), a=0.3)
    else:
        layer = LayerSpec(build_chart("plane", {"s_max": 400.0}), a=0.1)
    with pytest.raises(IntegrationFailureError):
        certify(layer, strategies=(family,))
