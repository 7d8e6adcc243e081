"""The CLI loads none of scipy's integrate, optimize or special packages.

Each costs start-up time on every run; the ODE layer has its own DOP853
stepper with scipy's tableau copied in, and imports ``scipy.optimize`` only
when its stop condition brackets a root, so a fan that meets no conjugate
point never loads it.
"""

_PROBE = """
import json, sys
heavy = ("scipy.integrate", "scipy.optimize", "scipy.special")
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
from layerspec.cli import main
after_import = loaded()
code = main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps({"after_import": after_import, "code": code, "after_run": loaded()}))
"""


def _heavy_loaded(fresh_probe, tmp_path, command, config):
    """Heavy scipy packages loaded after importing the CLI and after a run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    return fresh_probe(_PROBE, command, cfg, tmp_path / "out")


def test_cli_imports_and_describe_load_no_heavy_scipy_package(fresh_probe, tmp_path):
    seen = _heavy_loaded(fresh_probe, tmp_path, "describe",
                         "surface.name = hyperboloid\nsurface.s_max = 60\n")
    assert seen == {"after_import": [], "code": 0, "after_run": []}


def test_fan_totals_without_conjugate_point_loads_no_heavy_scipy_package(fresh_probe, tmp_path):
    # the fan's stop condition is checked on every step but never brackets
    # a root, so brentq is never imported
    config = "surface.name = monkey-saddle\nsurface.theta_samples = 64\nsurface.s_max = 40\n"
    seen = _heavy_loaded(fresh_probe, tmp_path, "totals", config)
    assert seen == {"after_import": [], "code": 0, "after_run": []}


def test_fan_certify_loads_no_heavy_scipy_package(fresh_probe, tmp_path):
    # the monkey saddle's certify shoots the fan, reads rho_m, the flatness
    # probe and the form: all on the in-house stepper
    seen = _heavy_loaded(fresh_probe, tmp_path, "certify", "surface.name = monkey-saddle\n")
    assert seen == {"after_import": [], "code": 0, "after_run": []}


def test_counterexample_loads_no_heavy_scipy_package(fresh_probe, tmp_path):
    # eps_1 comes from Legendre modes through numpy and scipy.linalg; a
    # Bessel cross-product route would load scipy.special and a root finder
    # scipy.optimize inside every run
    seen = _heavy_loaded(fresh_probe, tmp_path, "counterexample", "counterexample.n_u = 16\n")
    assert seen == {"after_import": [], "code": 0, "after_run": []}
