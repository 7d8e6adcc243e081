"""Run configuration: a flat, typed key-value file with sectioned keys.

Format: one ``section.key = value`` per line; ``#`` starts a comment.
Values are typed per the schema below (floats, ints, booleans, strings, or
comma-separated lists); unknown keys and malformed values, non-finite
floats, ints below a key's minimum and radius lists too short, not strictly
increasing or not starting above 0 among them, are rejected before any
computation starts.
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigError

_UNSET = object()


@dataclass(frozen=True)
class _Key:
    name: str
    kind: str  # "float" | "int" | "bool" | "str" | "float_list" | "int_list" | "str_list"
    default: object
    help: str
    minimum: int = None  # least value of an "int" key
    radii: int = None  # least length of a "float_list" key of radii


SCHEMA = [
    _Key("surface.name", "str", "plane", "catalog surface name, or 'plane'"),
    _Key("surface.z0", "float", _UNSET, "hyperboloid steepness parameter"),
    _Key("surface.x0", "float", _UNSET, "elliptic paraboloid x half-axis"),
    _Key("surface.y0", "float", _UNSET, "elliptic paraboloid y half-axis"),
    _Key("surface.R", "float", _UNSET, "capped-cylinder radius"),
    _Key("surface.s_max", "float", _UNSET, "chart truncation radius (default per surface)"),
    _Key("surface.theta_samples", "int", _UNSET, "fan ray count for graph surfaces"),
    _Key("layer.a", "float", 0.1, "layer half-width"),
    _Key("layer.force", "bool", False, "keep going when a >= rho_m (records the violation)"),
    _Key("solver.ode_tol", "float", 1e-10, "ODE local tolerance of fan shooting and height profiles"),
    _Key("totals.schedule", "float_list", _UNSET, "truncation radii (default: geometric to s_max)",
         radii=3),
    _Key("check.probe_radii", "float_list", _UNSET, "annulus radii for the hypothesis checks",
         radii=4),
    _Key("certify.strategies", "str_list",
         ["goldstone_jaffe", "deformed", "thin", "symmetric_log"],
         "trial families to try, in order"),
    _Key("certify.budget", "int", 40, "max form evaluations per family"),
    _Key("certify.s0", "float", _UNSET, "plateau radius for the mollified families"),
    _Key("spectrum.S", "float", _UNSET, "truncation radius of the eigensolve strip"),
    _Key("spectrum.n_s", "int", 400, "radial cell count", minimum=16),
    _Key("spectrum.n_u", "int", 32, "transverse cell count", minimum=16),
    _Key("spectrum.m_list", "int_list", [0, 1, 2], "angular momentum indices"),
    _Key("spectrum.k", "int", 3, "eigenvalues per partial wave", minimum=1),
    _Key("spectrum.levels", "int", 2,
         "mesh refinement levels for the table; order_estimate needs 3 and is null below",
         minimum=1),
    _Key("counterexample.R", "float", 1.0, "cap radius"),
    _Key("counterexample.a", "float", 0.3, "layer half-width for the capped run"),
    _Key("counterexample.S", "float", 10.0, "base truncation (runs at S, 2S, 4S)"),
    _Key("counterexample.n_s_per_R", "int", 50, "radial cells per cap radius"),
    _Key("counterexample.n_u", "int", 32, "transverse cells", minimum=16),
]

_BY_NAME = {k.name: k for k in SCHEMA}
# surface.* keys that are construction parameters, by parameter name
_SURFACE_PARAMS = {k.name.split(".", 1)[1]: k.name for k in SCHEMA
                   if k.name.startswith("surface.") and k.name != "surface.name"}


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw} is not finite")
    return value


def _check_radii(key, raw, values):
    """At least ``key.radii`` strictly increasing radii, the first above 0."""
    if len(values) < key.radii:
        problem = f"at least {key.radii} radii"
    elif any(b <= a for a, b in zip(values, values[1:])):
        problem = "radii must increase strictly"
    elif values[0] <= 0:
        problem = "radii must be positive"
    else:
        return
    raise ConfigError(f"bad value for {key.name}: {raw!r} ({problem})")


def _parse_value(key, raw):
    raw = raw.strip()
    try:
        if key.kind == "float":
            return _finite(raw)
        if key.kind == "int":
            value = int(raw)
            if key.minimum is not None and value < key.minimum:
                raise ConfigError(f"bad value for {key.name}: {raw!r} (at least {key.minimum})")
            return value
        if key.kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if key.kind == "str":
            return raw
        items = [x.strip() for x in raw.split(",") if x.strip()]
        if key.kind == "float_list":
            values = [_finite(x) for x in items]
            if key.radii is not None:
                _check_radii(key, raw, values)
            return values
        if key.kind == "int_list":
            return [int(x) for x in items]
        if key.kind == "str_list":
            return items
    except ValueError as exc:
        raise ConfigError(f"bad value for {key.name}: {raw!r}") from exc
    raise ConfigError(f"unknown kind for {key.name}")


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def get(self, name):
        if name in self.values:
            return self.values[name]
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError(f"unknown config key {name!r}")
        return None if key.default is _UNSET else key.default

    def surface_params(self):
        """The explicitly set surface.* construction parameters."""
        return {short: self.values[full] for short, full in _SURFACE_PARAMS.items() if full in self.values}

    def echo(self):
        """Full effective configuration (defaults merged), for the report."""
        out = {}
        for key in SCHEMA:
            val = self.get(key.name)
            out[key.name] = val
        return out


def parse_config_text(text):
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        name, raw = (part.strip() for part in stripped.split("=", 1))
        key = _BY_NAME.get(name)
        if key is None:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {name!r}")
        values[name] = _parse_value(key, raw)
    return RunConfig(values=values)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def defaults_text():
    lines = ["# layerspec configuration keys (defaults shown; _unset_ = per-surface default)"]
    for key in SCHEMA:
        default = "_unset_" if key.default is _UNSET else key.default
        if isinstance(default, list):
            default = ", ".join(str(x) for x in default)
        lines.append(f"{key.name} = {default}  # {key.help}")
    return "\n".join(lines)
