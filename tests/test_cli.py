import ast
import csv
import json
import os
import warnings

import pytest

from layerspec.cli import main


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load(out_dir, command):
    with open(os.path.join(out_dir, f"{command}.json")) as fh:
        return json.load(fh)


def test_defaults_listing(capsys):
    assert main(["describe", "--defaults"]) == 0
    out = capsys.readouterr().out
    assert "surface.name" in out and "layer.a" in out


def test_describe_and_reproducibility(tmp_path):
    cfg = write_cfg(tmp_path, "surface.name = plane\nsurface.s_max = 50\n")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["describe", "--config", cfg, "--out", out1]) == 0
    assert main(["describe", "--config", cfg, "--out", out2]) == 0
    with open(os.path.join(out1, "describe.json"), "rb") as fh:
        doc1 = fh.read()
    with open(os.path.join(out2, "describe.json"), "rb") as fh:
        doc2 = fh.read()
    assert doc1 == doc2  # timestamps live in the sidecar, not the report
    assert os.path.exists(os.path.join(out1, "describe.meta.json"))
    with open(os.path.join(out1, "describe.csv")) as fh:
        header = fh.readline().strip()
    assert header == "s,r,dr_ds,K,M,k1,k2"


def test_plane_reports_as_a_revolution_chart(tmp_path):
    cfg = write_cfg(tmp_path, "surface.name = plane\nsurface.s_max = 50\n")
    out = str(tmp_path / "out")
    assert main(["describe", "--config", cfg, "--out", out]) == 0
    assert load(out, "describe")["results"]["surface"]["provenance_chart"] == "revolution"
    # strict JSON: rho_m is infinite on a planar chart and is written as null
    with open(os.path.join(out, "describe.json")) as fh:
        doc = json.load(fh, parse_constant=lambda name: pytest.fail(f"non-JSON constant {name}"))
    assert doc["results"]["surface"]["rho_m"]["value"] is None
    assert main(["totals", "--config", cfg, "--out", out]) == 0
    assert load(out, "totals")["results"]["gauss_bonnet_residual"]["value"] == 0.0


def test_describe_computes_rho_m_once(tmp_path, monkeypatch):
    from layerspec import cli, layer

    original = layer.rho_m
    calls = []

    def counted(chart):
        calls.append(chart)
        return original(chart)

    # the layer's own call, and a direct one the command might make
    monkeypatch.setattr(layer, "rho_m", counted)
    monkeypatch.setattr(cli, "rho_m", counted, raising=False)
    cfg = write_cfg(tmp_path, "surface.name = hyperboloid\nsurface.s_max = 60\n")
    assert main(["describe", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    rho = load(str(tmp_path / "out"), "describe")["results"]["surface"]["rho_m"]
    assert rho["value"] == original(calls[0])


def test_check_capped_cylinder_fails_sigma0_exit_zero(tmp_path):
    cfg = write_cfg(tmp_path, "surface.name = capped-cylinder\nlayer.a = 0.3\n")
    out = str(tmp_path / "out")
    assert main(["check", "--config", cfg, "--out", out]) == 0
    doc = load(out, "check")
    assert doc["results"]["hypotheses"]["sigma0"]["verdict"] == "fail"


def test_totals_hyperboloid(tmp_path):
    cfg = write_cfg(tmp_path, "surface.name = hyperboloid\nsurface.s_max = 150\n")
    out = str(tmp_path / "out")
    assert main(["totals", "--config", cfg, "--out", out]) == 0
    doc = load(out, "totals")
    val = doc["results"]["total_gauss"]["value"]
    target = 2 * 3.141592653589793 * (1 - 2**-0.5)
    assert abs(val / target - 1) <= 0.01
    assert "gauss_bonnet_residual" in doc["results"]
    assert doc["results"]["gauss_bonnet_residual"]["value"] <= 1e-3


def test_totals_csv_has_a_row_per_scheduled_radius(tmp_path):
    # at 256 rays the fan resolves the Gauss-Bonnet disks out to the third
    # of the 8 default radii only; the mean-curvature partials go on beyond
    cfg = write_cfg(tmp_path, "surface.name = monkey-saddle\nsurface.theta_samples = 256\n")
    out = str(tmp_path / "out")
    assert main(["totals", "--config", cfg, "--out", out]) == 0
    doc = load(out, "totals")["results"]
    with open(os.path.join(out, "totals.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["radius"]) for row in rows] == doc["total_mean_sq"]["truncations"]
    assert [float(row["partial_mean_sq"]) for row in rows] == doc["total_mean_sq"]["partials"]
    n_gauss = len(doc["total_gauss"]["partials"])
    assert n_gauss == 3 < len(rows) == 8
    assert [float(row["partial_gauss"]) for row in rows[:n_gauss]] == doc["total_gauss"]["partials"]
    assert all(row["partial_gauss"] == "" for row in rows[n_gauss:])


@pytest.mark.parametrize("command, key", [("check", "check.probe_radii"),
                                          ("totals", "totals.schedule")])
@pytest.mark.parametrize("first", ["0", "-1"])
def test_non_positive_first_radius_rejected(tmp_path, capsys, command, key, first):
    cfg = write_cfg(tmp_path, f"surface.name = plane\n{key} = {first}, 1, 2, 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert "radii must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, radii, problem", [
    ("check", "check.probe_radii", "1, 2, 2, 3", "radii must increase strictly"),
    ("totals", "totals.schedule", "1, 3, 2", "radii must increase strictly"),
    ("check", "check.probe_radii", "1, 2, 3", "at least 4 radii"),
    ("totals", "totals.schedule", "1, 2", "at least 3 radii"),
])
def test_malformed_radius_list_exits_four(tmp_path, capsys, command, key, radii, problem):
    cfg = write_cfg(tmp_path, f"surface.name = plane\n{key} = {radii}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and problem in err


@pytest.mark.parametrize("command, key, radii", [("check", "check.probe_radii", "1, 2, 3, 1e9"),
                                                 ("totals", "totals.schedule", "1, 2, 1e9")])
def test_radii_beyond_the_chart_exit_three(tmp_path, capsys, command, key, radii):
    # well-formed radii past the chart's s_max need the chart to be found wrong
    cfg = write_cfg(tmp_path, f"surface.name = hyperboloid\n{key} = {radii}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_certify_plane_not_found(tmp_path):
    cfg = write_cfg(tmp_path, "surface.name = plane\nlayer.a = 0.1\ncertify.budget = 2\n")
    out = str(tmp_path / "out")
    assert main(["certify", "--config", cfg, "--out", out]) == 0
    doc = load(out, "certify")
    assert doc["results"]["certificate"]["verdict"] == "not-found"
    # |Psi|^2 is a quadrature sum: it carries an error, not an exact marker
    assert set(doc["results"]["certificate"]["norm_sq"]) == {"value", "error"}
    # the params column holds plain numbers, not numpy reprs
    with open(os.path.join(out, "certify.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and "np." not in "".join(row["params"] for row in rows)
    assert ast.literal_eval(rows[0]["params"]) == {"sigma": 0.1, "s0": 5.0}


def test_certify_capped_cylinder_exit_two(tmp_path):
    cfg = write_cfg(tmp_path, "surface.name = capped-cylinder\nlayer.a = 0.3\n")
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_spectrum_csv_columns(tmp_path):
    cfg = write_cfg(tmp_path, "\n".join([
        "surface.name = hyperboloid",
        "surface.s_max = 50",
        "layer.a = 0.3",
        "spectrum.S = 20",
        "spectrum.n_s = 100",
        "spectrum.n_u = 16",
        "spectrum.m_list = 0",
        "spectrum.k = 2",
        "spectrum.levels = 1",
    ]) + "\n")
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "spectrum.csv")) as fh:
        header = fh.readline().strip()
    assert header == "m,index,eigenvalue,threshold,below_threshold,mesh_h_s,mesh_h_u,S"
    # the flags agree with the inertia count below threshold_mesh
    with open(os.path.join(out, "spectrum.json")) as fh:
        (wave,) = json.load(fh)["results"]["spectra"]
    assert isinstance(wave["below_threshold_count"], int)
    assert sum(wave["below_threshold"]) == min(wave["below_threshold_count"], 2)


def test_poleless_rejected_exit_three(tmp_path):
    cfg = write_cfg(tmp_path, "surface.name = poleless-plane\n")
    for command in ("describe", "check", "totals", "certify", "spectrum"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 3


def test_unknown_key_exit_four(tmp_path):
    for idx, line in enumerate(["surface.nam = plane", "solver.eigen_tol = 1e-9"]):
        cfg = write_cfg(tmp_path, line + "\n", name=f"run{idx}.cfg")
        assert main(["describe", "--config", cfg, "--out", str(tmp_path / f"o{idx}")]) == 4, line


def test_bad_value_and_duplicate_key(tmp_path):
    cfg = write_cfg(tmp_path, "layer.a = wide\n")
    assert main(["describe", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    cfg = write_cfg(tmp_path, "layer.a = 0.1\nlayer.a = 0.2\n", name="dup.cfg")
    assert main(["describe", "--config", cfg, "--out", str(tmp_path / "o2")]) == 4


def test_non_finite_value_exit_four(tmp_path):
    cfg = write_cfg(tmp_path, "surface.name = hyperboloid\nlayer.a = 0.3\nspectrum.S = nan\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("levels", [0, -1])
def test_no_refinement_level_exit_four(tmp_path, levels):
    cfg = write_cfg(tmp_path, f"surface.name = hyperboloid\nspectrum.levels = {levels}\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("command,line", [
    ("counterexample", "counterexample.n_u = -1"),
    ("counterexample", "counterexample.n_u = 0"),
    ("counterexample", "counterexample.n_u = 1"),
    ("counterexample", "counterexample.n_u = 15"),
    ("spectrum", "spectrum.n_s = 15"),
    ("spectrum", "spectrum.n_u = 1"),
    ("spectrum", "spectrum.k = 0"),
])
def test_too_few_cells_or_eigenvalues_exit_four(tmp_path, command, line):
    cfg = write_cfg(tmp_path, f"surface.name = hyperboloid\n{line}\n")
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 4
    assert not (out / f"{command}.json").exists()


@pytest.mark.parametrize("surface,param", [
    ("capped-cylinder", "R = 0"),
    ("capped-cylinder", "R = -1"),
    ("elliptic-paraboloid", "x0 = 0"),
    ("elliptic-paraboloid", "y0 = 0"),
    ("hyperboloid", "z0 = 0"),
])
def test_degenerate_shape_parameter_exit_three(tmp_path, capsys, surface, param):
    # R = 0, x0 = 0 and y0 = 0 divided by zero; R < 0 and z0 = 0 described
    # a flat chart under the surface's name
    cfg = write_cfg(tmp_path, f"surface.name = {surface}\nsurface.{param}\n")
    out = tmp_path / "o"
    assert main(["describe", "--config", cfg, "--out", str(out)]) == 3
    assert not (out / "describe.json").exists()
    assert capsys.readouterr().err.startswith("numerical failure: ")


def test_layer_force_is_the_only_force_and_is_echoed(tmp_path):
    # a = 1.0 is at least the hyperboloid's minimal normal curvature radius
    lines = ["surface.name = hyperboloid", "layer.a = 1.0", "spectrum.S = 20",
             "spectrum.n_s = 100", "spectrum.n_u = 16", "spectrum.m_list = 0",
             "spectrum.k = 1", "spectrum.levels = 1"]
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    forced = write_cfg(tmp_path, "\n".join(lines + ["layer.force = true"]) + "\n", name="forced.cfg")
    out = str(tmp_path / "forced")
    assert main(["spectrum", "--config", forced, "--out", out]) == 0
    assert load(out, "spectrum")["config"]["layer.force"] is True
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", cfg, "--out", out, "--force"])
    assert exc.value.code == 2  # argparse: unrecognized argument


def test_cap_neumann_error_is_its_eigen_error(tmp_path, monkeypatch):
    from layerspec.cli import _eigen_error
    from layerspec.spectrum import counterexample

    caps = []
    real = counterexample.cap_neumann_ground

    def recorded(R, a):
        caps.append(real(R, a))
        return caps[-1]

    monkeypatch.setattr(counterexample, "cap_neumann_ground", recorded)
    out = str(tmp_path / "out")
    assert main(["counterexample", "--out", out]) == 0
    reported = load(out, "counterexample")["results"]["counterexample"]["cap_neumann_ground"]
    [cap] = caps
    assert reported["value"] == float(cap.eigenvalues[0])
    assert reported["error"] == _eigen_error(cap.eigenvalues[0], cap.residuals[0])


def test_catalog_command(tmp_path):
    out = str(tmp_path / "out")
    assert main(["catalog", "--out", out]) == 0
    doc = load(out, "catalog")
    names = [e["name"] for e in doc["results"]["catalog"]]
    assert len(names) == 7 and "poleless-plane" in names
