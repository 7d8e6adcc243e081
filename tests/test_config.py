import pytest

from layerspec.config import parse_config_text
from layerspec.errors import ConfigError


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(value):
    with pytest.raises(ConfigError, match="surface.s_max"):
        parse_config_text(f"surface.s_max = {value}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_list_item_rejected(value):
    with pytest.raises(ConfigError, match="totals.schedule"):
        parse_config_text(f"totals.schedule = 1, {value}, 3\n")


def test_finite_floats_parse():
    config = parse_config_text("surface.s_max = 1e300\ntotals.schedule = 1, 2.5, 3\n")
    assert config.get("surface.s_max") == 1e300
    assert config.get("totals.schedule") == [1.0, 2.5, 3.0]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_refinement_levels_below_one_rejected(value):
    with pytest.raises(ConfigError, match=rf"spectrum.levels: '{value}' \(at least 1\)"):
        parse_config_text(f"spectrum.levels = {value}\n")
    assert parse_config_text("spectrum.levels = 1\n").get("spectrum.levels") == 1


@pytest.mark.parametrize("name,least", [("counterexample.n_u", 16), ("spectrum.n_s", 16),
                                        ("spectrum.n_u", 16), ("spectrum.k", 1),
                                        ("surface.theta_samples", 4)])
def test_cell_counts_and_eigenvalue_count_below_their_floor_rejected(name, least):
    for value in (least - 1, 0, -1):
        with pytest.raises(ConfigError, match=rf"{name}: '{value}' \(at least {least}\)"):
            parse_config_text(f"{name} = {value}\n")
    assert parse_config_text(f"{name} = {least}\n").get(name) == least
