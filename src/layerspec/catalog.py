"""Built-in surface catalog.

Each entry records how the surface is constructed (graph of a height
function, meridian-curvature generator, or analytic revolution profile),
its defining equation, and default parameters under which the chart is
valid.  One entry, the compactly perturbed plane without poles, is
documentation only: it has no usable polar chart, so every compute path
rejects it.

The flat plane is available to every subcommand under the name "plane" as
the trivial reference surface, built as the revolution profile with
k_s = 0; it is deliberately not a catalog entry.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, InvalidInputError
from .surface import (
    GraphSurface,
    MeridianSpec,
    RevolutionChart,
    RevolutionProfile,
    geodesic_fan,
    profile_from_height,
    revolution_from_meridian,
)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    construction: str  # "graph" | "meridian" | "profile" | "none"
    definition: str
    defaults: dict = field(default_factory=dict)
    description: str = ""


_ENTRIES = [
    CatalogEntry(
        name="hyperbolic-paraboloid",
        construction="graph",
        definition="z = x^2 - y^2",
        defaults={"s_max": 340.0, "theta_samples": 1024},
        description="Saddle quadric; total Gauss curvature -2*pi; negative K everywhere.",
    ),
    CatalogEntry(
        name="monkey-saddle",
        construction="graph",
        definition="z = x^3 - 3*x*y^2",
        defaults={"s_max": 340.0, "theta_samples": 3072},
        description="Cubic saddle; total Gauss curvature -4*pi.",
    ),
    CatalogEntry(
        name="elliptic-paraboloid",
        construction="graph",
        definition="z = (x/x0)^2 + (y/y0)^2",
        defaults={"x0": 1.0, "y0": 1.0, "s_max": 340.0, "theta_samples": 192},
        description="Bowl quadric; total Gauss curvature +2*pi; pole at the umbilic.",
    ),
    CatalogEntry(
        name="hyperboloid",
        construction="profile",
        definition="x^2 + y^2 - (z/z0)^2 = -1, upper sheet (z = z0*sqrt(1 + x^2 + y^2))",
        defaults={"z0": 1.0, "s_max": 400.0},
        description="Revolution surface; total Gauss curvature 2*pi*(1 - 1/sqrt(1+z0^2)) in (0, 2*pi).",
    ),
    CatalogEntry(
        name="sine-meridian",
        construction="meridian",
        definition="k_s(s) = sin(s^2)/s^2",
        defaults={"s_max": 60.0},
        description="Oscillating meridian curvature: K integrable but |grad M|^2 is not.",
    ),
    CatalogEntry(
        name="capped-cylinder",
        construction="meridian",
        definition="semi-cylinder of radius R closed by a hemisphere (k_s = 1/R for s <= pi*R/2, else 0)",
        defaults={"R": 1.0, "s_max": 30.0},
        description="Not asymptotically planar: M = 1/(2R) on the cylindrical end; no bound states.",
    ),
    CatalogEntry(
        name="poleless-plane",
        construction="none",
        definition="plane with a circular hole joined by a smooth cylindrical tube to a pierced ellipsoid",
        defaults={},
        description=(
            "Compactly perturbed plane whose only pole disappears once the sphere is "
            "deformed to an ellipsoid; documented for completeness, no polar chart exists."
        ),
    ),
]


# the plane's parameters, for build_chart: it is not a catalog entry
_PLANE = CatalogEntry(name="plane", construction="profile", definition="z = 0",
                      defaults={"s_max": 100.0})


def catalog():
    """The fixed list of built-in surfaces."""
    return list(_ENTRIES)


def catalog_entry(name):
    for entry in _ENTRIES:
        if entry.name == name:
            return entry
    raise InvalidInputError(f"unknown catalog surface {name!r}")


def _merge_defaults(entry, params):
    merged = dict(entry.defaults)
    for key, val in params.items():
        if key not in merged:
            raise InvalidInputError(f"surface {entry.name!r} has no parameter {key!r}")
        merged[key] = val
    return merged


def graph_surface(name, params=None):
    """The GraphSurface object for a graph-constructed catalog entry."""
    entry = catalog_entry(name)
    if entry.construction != "graph":
        raise InvalidInputError(f"{name!r} is not a graph surface")
    p = _merge_defaults(entry, params or {})
    if name == "hyperbolic-paraboloid":
        return GraphSurface(
            f=lambda x, y: x**2 - y**2,
            fx=lambda x, y: 2.0 * x,
            fy=lambda x, y: -2.0 * y,
            fxx=lambda x, y: 2.0 + 0.0 * x,
            fxy=lambda x, y: 0.0 * x,
            fyy=lambda x, y: -2.0 + 0.0 * x,
            name=name,
        )
    if name == "monkey-saddle":
        return GraphSurface(
            f=lambda x, y: x**3 - 3.0 * x * y**2,
            fx=lambda x, y: 3.0 * x**2 - 3.0 * y**2,
            fy=lambda x, y: -6.0 * x * y,
            fxx=lambda x, y: 6.0 * x,
            fxy=lambda x, y: -6.0 * y,
            fyy=lambda x, y: -6.0 * x,
            name=name,
        )
    if name == "elliptic-paraboloid":
        if p["x0"] == 0 or p["y0"] == 0:
            raise InvalidInputError("x0 and y0 must be nonzero")
        ax, ay = 1.0 / p["x0"] ** 2, 1.0 / p["y0"] ** 2
        if abs(ax - ay) > 1e-14:
            raise CapabilityError(
                "elliptic paraboloid with x0 != y0 has its poles at off-axis umbilics; "
                "only the revolution case x0 == y0 is constructible here"
            )
        return GraphSurface(
            f=lambda x, y: ax * x**2 + ay * y**2,
            fx=lambda x, y: 2.0 * ax * x,
            fy=lambda x, y: 2.0 * ay * y,
            fxx=lambda x, y: 2.0 * ax + 0.0 * x,
            fxy=lambda x, y: 0.0 * x,
            fyy=lambda x, y: 2.0 * ay + 0.0 * x,
            name=name,
        )
    raise InvalidInputError(f"no graph construction for {name!r}")


def _sine_meridian_spec(s_max):
    def k_s(s):
        s = np.asarray(s, dtype=float)
        small = np.abs(s) < 1e-3
        s_safe = np.where(small, 1.0, s)
        return np.where(small, 1.0 - s**4 / 6.0, np.sin(s_safe**2) / s_safe**2)

    return MeridianSpec(k_s=k_s, s_max=s_max)


def _capped_cylinder_spec(R, s_max):
    junction = np.pi * R / 2.0

    def k_s(s):
        return np.where(np.asarray(s, dtype=float) <= junction, 1.0 / R, 0.0)

    return MeridianSpec(k_s=k_s, s_max=s_max, breakpoints=(junction,))


def _flat_fields(s):
    """The plane's profile in closed form: r = s, r' = 1, z = z' = k_s = dk_s = 0."""
    zero = np.zeros_like(s)
    return s, np.ones_like(s), zero, zero, zero, zero


def build_chart(name, params=None, ode_tol=1e-10):
    """Construct the geodesic polar chart for a named surface.

    Accepts every catalog name plus "plane".  The documentation-only entry
    raises CapabilityError from every compute path.
    """
    entry = _PLANE if name == "plane" else catalog_entry(name)
    if entry.construction == "none":
        raise CapabilityError(
            f"surface {name!r} has no pole and therefore no geodesic polar chart; "
            "it is a documentation-only catalog entry"
        )
    p = _merge_defaults(entry, params or {})
    s_max = float(p["s_max"])
    if not s_max > 0:
        raise InvalidInputError(f"s_max must be positive, got s_max = {s_max:g}")
    if name == "plane":
        return RevolutionChart(RevolutionProfile(s_max, (), _flat_fields))
    if entry.construction == "graph":
        surf = graph_surface(name, params)
        return geodesic_fan(surf, theta_samples=int(p["theta_samples"]), s_max=s_max, tol=ode_tol)
    if name == "hyperboloid":
        z0 = float(p["z0"])
        if z0 == 0:
            raise InvalidInputError("z0 must be nonzero: at z0 = 0 the hyperboloid is the plane")
        profile = profile_from_height(
            z_fn=lambda rho: z0 * np.sqrt(1.0 + rho**2),
            dz_fn=lambda rho: z0 * rho / np.sqrt(1.0 + rho**2),
            d2z_fn=lambda rho: z0 * (1.0 + rho**2) ** -1.5,
            d3z_fn=lambda rho: -3.0 * z0 * rho * (1.0 + rho**2) ** -2.5,
            s_max=s_max,
            tol=ode_tol,
        )
        return RevolutionChart(profile)
    if name == "sine-meridian":
        spec = _sine_meridian_spec(s_max)
        return RevolutionChart(revolution_from_meridian(spec))
    if name == "capped-cylinder":
        if float(p["R"]) <= 0:
            raise InvalidInputError("R must be positive")
        spec = _capped_cylinder_spec(float(p["R"]), s_max)
        return RevolutionChart(revolution_from_meridian(spec))
    raise InvalidInputError(f"no construction for {name!r}")
