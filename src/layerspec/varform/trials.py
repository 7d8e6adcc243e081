"""Variational trial functions for the shifted quadratic form.

Every family is a short sum of separable terms A(s, theta) * B(u) with
closed-form derivatives (the Macdonald-function derivative uses K0' = -K1),
so the derivative-quadratic form never sees numerical differentiation of
the trial itself.  Where A depends on s alone, A, dA/ds and dA/dtheta are
(Ns, 1) columns that broadcast over the ring.  Radial kinks (the matching
radii of the mollifier and of the logarithmic ramps) are recorded as
breakpoints so quadrature panels can land on them exactly.

Families:

* ``goldstone_jaffe``: phi_sigma(s) = min(1, K0(sigma s)/K0(sigma s0))
  times the first transverse mode.
* ``deformed``: the same plus eps * j(s) u chi1(u) with a smooth radial
  bump j compactly supported inside the plateau s < s0.
* ``thin``: (1 + M(s, theta) u) phi_sigma(s) chi1(u).
* ``symmetric_log``: (phi_n(s) + eps phi_n(s)/s * u) chi1(u) with phi_n
  ramping logarithmically up on [b1, b2] and down on [b2, b3],
  b = (n, n^2, n^3); revolution charts only.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import (
    CapabilityError,
    DegeneratePairingError,
    InvalidInputError,
    TruncationError,
)
from ..numkernel import bessel_k, gauss_legendre, geometric_panels, panelize
from ..surface import ring_integral

# default_bump's overlapping annuli [k, k + 2] s0 / (_BUMP_SCAN + 2), k >= 1
_BUMP_SCAN = 8


@dataclass(frozen=True)
class RadialFactor:
    """Radial profile phi(s) with analytic derivative and exact support."""

    value: callable
    derivative: callable
    support: tuple
    breakpoints: tuple = ()


@dataclass(frozen=True)
class SeparableTerm:
    """One product A(s, theta) * B(u); ``surface_eval(grid) -> (A, As, At)``.

    A, dA/ds and dA/dtheta broadcast to the grid's ring; they are (Ns, 1)
    columns where A does not depend on theta.
    """

    surface_eval: callable
    u_profile: str  # "chi1" or "u_chi1"


@dataclass(frozen=True)
class TrialFunction:
    """A sum of separable terms with its radial support and kinks.

    ``radial`` is the s-profile of the leading chi1 term where there is one.
    The trial depends on theta exactly when some term's fields span the ring.
    """

    terms: tuple
    support: tuple
    s_breakpoints: tuple
    radial: RadialFactor = None


def _scaled(term, c):
    return SeparableTerm(surface_eval=lambda grid: tuple(c * a for a in term.surface_eval(grid)),
                         u_profile=term.u_profile)


def combine(t1, t2, c1=1.0, c2=1.0):
    """c1*t1 + c2*t2 as a single trial (supports and breakpoints merge)."""
    return TrialFunction(
        terms=tuple(_scaled(t, c1) for t in t1.terms) + tuple(_scaled(t, c2) for t in t2.terms),
        support=(min(t1.support[0], t2.support[0]), max(t1.support[1], t2.support[1])),
        s_breakpoints=tuple(sorted(set(t1.s_breakpoints) | set(t2.s_breakpoints))),
        radial=t1.radial,
    )


def _radial_values(value, derivative, grid):
    """(A, dA/ds, dA/dtheta) of A = value(s) as (Ns, 1) columns."""
    A = value(grid.s)[:, None]
    return A, derivative(grid.s)[:, None], np.zeros_like(A)


def _radial_term(radial):
    return SeparableTerm(surface_eval=lambda grid: _radial_values(radial.value, radial.derivative, grid),
                         u_profile="chi1")


def _k0_decay_radius(sigma, s0):
    """Smallest s with K0(sigma s)/K0(sigma s0) <= 1e-10 (via the asymptotics)."""
    x0 = sigma * s0
    target = 1e-10 * bessel_k(0, x0)
    x = max(2.0, x0)
    for _ in range(60):  # fixed-point on K0(x) ~ sqrt(pi/2x) e^{-x}
        x_new = np.log(np.sqrt(np.pi / (2.0 * max(x, 1e-3))) / target)
        if abs(x_new - x) < 1e-9 * max(1.0, x):
            x = x_new
            break
        x = x_new
    return float(max(x, x0) / sigma)


def gj_trial(layer, s0, sigma):
    """Mollified ground-transverse trial: plateau up to s0, Macdonald tail.

    phi(s) = 1 for s <= s0, K0(sigma s)/K0(sigma s0) beyond: continuous,
    strictly decreasing past the matching radius, kinked exactly at s0.
    """
    if not (0.0 < sigma <= 1.0):
        raise InvalidInputError("sigma must lie in (0, 1]")
    if s0 <= 0:
        raise InvalidInputError("s0 must be positive")
    x0 = sigma * s0
    if x0 < 1e-8:
        raise InvalidInputError("sigma*s0 below the Bessel evaluation range")
    k0_at_s0 = bessel_k(0, x0)
    s_hi = min(_k0_decay_radius(sigma, s0), layer.chart.s_max)

    def value(s):
        s = np.asarray(s, dtype=float)
        out = np.ones_like(s)
        tail = s > s0
        if tail.any():
            out[tail] = bessel_k(0, sigma * s[tail]) / k0_at_s0
        return out

    def derivative(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        tail = s > s0
        if tail.any():
            out[tail] = -sigma * bessel_k(1, sigma * s[tail]) / k0_at_s0
        return out

    radial = RadialFactor(value=value, derivative=derivative,
                          support=(0.0, s_hi), breakpoints=(s0,))
    return TrialFunction(terms=(_radial_term(radial),), support=radial.support,
                         s_breakpoints=(s0,), radial=radial)


def derphi_integral(s0, sigma):
    """Weighted tail-derivative integral: int |phi'(s)|^2 s ds.

    Evaluated in the scaled variable x = sigma s, where it becomes
    (1/K0(sigma s0)^2) int_{sigma s0} K1(x)^2 x dx and is a function of the
    product sigma*s0 alone.
    """
    x0 = sigma * s0
    if x0 < 1e-9:
        raise InvalidInputError("sigma*s0 below the Bessel evaluation range")
    panels = geometric_panels(x0, max(40.0, 2 * x0), first=max(x0 / 2, 1e-9), ratio=1.8)
    quad = gauss_legendre(24, panels)
    vals = bessel_k(1, quad.nodes) ** 2 * quad.nodes
    return float(quad.integrate_samples(vals) / bessel_k(0, x0) ** 2)


def _bump_profile(t):
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def _bump_profile_derivative(t):
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - ti**2)) * (-2.0 * ti / (1.0 - ti**2) ** 2)
    return out


@dataclass(frozen=True)
class RadialBump:
    """Smooth compactly supported bump exp(-1/(1-t^2)) on the annulus (lo, hi)."""

    lo: float
    hi: float

    def _t(self, s):
        mid = 0.5 * (self.lo + self.hi)
        half = 0.5 * (self.hi - self.lo)
        return (np.asarray(s, dtype=float) - mid) / half, half

    def __call__(self, s):
        return _bump_profile(self._t(s)[0])

    def derivative(self, s):
        t, half = self._t(s)
        return _bump_profile_derivative(t) / half

    def values(self, grid):
        return _radial_values(self, self.derivative, grid)


@dataclass(frozen=True)
class SectorBump:
    """Product bump: radial annulus times a smooth angular window.

    Used when the mean curvature changes sign around every annulus (e.g.
    saddles, where M is odd under a quarter turn): the angular window pins
    the support to one sign sector.
    """

    lo: float
    hi: float
    center: float
    width: float

    def _radial(self):
        return RadialBump(self.lo, self.hi)

    def angular(self, theta):
        t = (np.asarray(theta, dtype=float) - self.center + np.pi) % (2 * np.pi) - np.pi
        return _bump_profile(t / (0.5 * self.width))

    def angular_derivative(self, theta):
        t = (np.asarray(theta, dtype=float) - self.center + np.pi) % (2 * np.pi) - np.pi
        return _bump_profile_derivative(t / (0.5 * self.width)) / (0.5 * self.width)

    def __call__(self, s):
        return self._radial()(s)

    def values(self, grid):
        rb = self._radial()
        ang = self.angular(grid.theta)[None, :]
        dang = self.angular_derivative(grid.theta)[None, :]
        jr = rb(grid.s)[:, None]
        return jr * ang, rb.derivative(grid.s)[:, None] * ang, jr * dang


def default_bump(layer, s0):
    """A bump inside (0, s0) on which the sampled M keeps one sign.

    Prefers plain annuli (starting from [s0/2, 3 s0/4]); when M changes
    sign around every candidate annulus, falls back to angular sectors.
    """
    candidates = [(0.5 * s0, 0.75 * s0)]
    candidates += [(s0 * k / (_BUMP_SCAN + 2), s0 * (k + 2) / (_BUMP_SCAN + 2))
                   for k in range(1, _BUMP_SCAN)]
    stride = layer.chart.theta_stride_for(256)
    grids = {}
    for lo, hi in candidates:
        g = layer.chart.grid(np.linspace(lo, hi, 40), stride=stride)
        grids[(lo, hi)] = g
        if g.M.max() < -1e-12 or g.M.min() > 1e-12:
            return RadialBump(lo=lo, hi=hi)
    width = np.pi / 4.0
    for (lo, hi), g in grids.items():
        for center in np.arange(8) * (np.pi / 4.0):
            wrapped = (g.theta - center + np.pi) % (2 * np.pi) - np.pi
            sector = np.abs(wrapped) <= 0.5 * width
            if not sector.any():
                continue
            Msec = np.broadcast_to(g.M, (g.s.size, g.theta.size))[:, sector]
            if Msec.max() < -1e-12 or Msec.min() > 1e-12:
                return SectorBump(lo=lo, hi=hi, center=float(center), width=width)
    return RadialBump(lo=candidates[0][0], hi=candidates[0][1])


def deformation_trial(layer, s0, bump=None):
    """The bare deformation Theta = j(q) u chi1(u) (vanishes at u = +-a)."""
    bump = bump or default_bump(layer, s0)
    if not (0.0 < bump.lo and bump.hi < s0):
        raise InvalidInputError("bump support must lie strictly inside (0, s0)")
    return TrialFunction(terms=(SeparableTerm(surface_eval=bump.values, u_profile="u_chi1"),),
                         support=(bump.lo, bump.hi), s_breakpoints=(bump.lo, bump.hi))


def deformed_trial(layer, sigma, s0, eps, bump=None):
    """psi_sigma + eps * Theta; requires the bump inside the plateau s < s0,
    which is what makes the mixed form sigma-independent."""
    return combine(gj_trial(layer, s0, sigma), deformation_trial(layer, s0, bump=bump), 1.0, eps)


def thin_trial(layer, sigma, s0):
    """(1 + M u) psi_sigma: the thin-layer trial; reads dM from the chart grid."""
    base = gj_trial(layer, s0, sigma)
    radial = base.radial

    def surface_eval(grid):
        phi = radial.value(grid.s)[:, None]
        dphi = radial.derivative(grid.s)[:, None]
        A = grid.M * phi
        As = grid.dM_ds * phi + grid.M * dphi
        At = grid.dM_dtheta * phi
        return A, As, At

    term_m = SeparableTerm(surface_eval=surface_eval, u_profile="u_chi1")
    return TrialFunction(terms=(base.terms[0], term_m), support=base.support,
                         s_breakpoints=base.s_breakpoints, radial=radial)


def _log_ramp(n):
    b1, b2, b3 = float(n), float(n) ** 2, float(n) ** 3
    l12, l32 = np.log(b2 / b1), np.log(b2 / b3)

    def value(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        up = (s > b1) & (s <= b2)
        down = (s > b2) & (s < b3)
        out[up] = np.log(s[up] / b1) / l12
        out[down] = np.log(s[down] / b3) / l32
        return out

    def derivative(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        up = (s > b1) & (s <= b2)
        down = (s > b2) & (s < b3)
        out[up] = 1.0 / (s[up] * l12)
        out[down] = 1.0 / (s[down] * l32)
        return out

    return (b1, b2, b3), value, derivative


def symmetric_log_trial(layer, n, eps):
    """(phi_n + eps phi_n/s * u) chi1 with the log ramps on [n, n^2, n^3]."""
    if n < 2:
        raise InvalidInputError("symmetric-log trials need n >= 2")
    if not layer.chart.rotation_invariant:
        raise CapabilityError("symmetric-log trials require a revolution chart")
    (b1, b2, b3), value, derivative = _log_ramp(n)
    if b3 > layer.chart.s_max * (1 + 1e-12):
        raise TruncationError(
            f"trial support [{b1:g}, {b3:g}] exceeds chart validity s_max = {layer.chart.s_max:g}"
        )
    radial = RadialFactor(value=value, derivative=derivative,
                          support=(b1, b3), breakpoints=(b1, b2, b3))

    def phi_over_s(s):
        s = np.asarray(s, dtype=float)
        return value(s) / np.where(s > 0, s, 1.0)

    def phi_over_s_prime(s):
        s = np.asarray(s, dtype=float)
        safe = np.where(s > 0, s, 1.0)
        return derivative(s) / safe - value(s) / safe**2

    def surface_eval(grid):
        A, As, At = _radial_values(phi_over_s, phi_over_s_prime, grid)
        return eps * A, eps * As, At

    term_u = SeparableTerm(surface_eval=surface_eval, u_profile="u_chi1")
    return TrialFunction(terms=(_radial_term(radial), term_u), support=(b1, b3),
                         s_breakpoints=(b1, b2, b3), radial=radial)


def log_pairing(layer, n):
    """(phi_n, M phi_n/s)_g by surface quadrature over the ramp support."""
    (b1, b2, b3), value, _ = _log_ramp(n)
    if b3 > layer.chart.s_max * (1 + 1e-12):
        raise TruncationError("pairing support exceeds chart validity")
    panels = panelize(b1, b3, breakpoints=(b2,), first=(b2 - b1) / 6)
    pairing = ring_integral(layer.chart, lambda g: g.M * (value(g.s) ** 2 / g.s)[:, None], panels)
    return float(pairing.value[0])


def epsilon_choice(layer, n):
    """eps_n = 1/(phi_n, M phi_n/s)_g; raises when the pairing degenerates."""
    pairing = log_pairing(layer, n)
    if abs(pairing) < 1e-12:
        raise DegeneratePairingError(
            f"mean-curvature pairing {pairing:.3e} too small to normalize (n = {n})"
        )
    return 1.0 / pairing
