"""Exception hierarchy shared by all layerspec modules."""


class LayerSpecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LayerSpecError):
    """Arguments violate a documented precondition."""


class ConfigError(LayerSpecError):
    """Run configuration is malformed (unknown key, bad type, missing value)."""


class IntegrationFailureError(LayerSpecError):
    """Adaptive ODE integration stalled (step underflow).

    Carries ``last_s``, the last abscissa that was integrated successfully.
    """

    def __init__(self, message, last_s):
        super().__init__(f"{message} (last good s = {last_s:.6g})")
        self.last_s = float(last_s)


class InvalidSurfaceError(LayerSpecError):
    """A constructed revolution profile crossed r <= 0 away from the pole."""

    def __init__(self, s_cross):
        super().__init__(f"profile radius vanishes at s = {s_cross:.6g}; not a valid surface")
        self.s_cross = float(s_cross)


class HypothesisViolationError(LayerSpecError):
    """A geometric hypothesis required by the operation fails (e.g. a >= rho_m)."""


class DegeneratePairingError(LayerSpecError):
    """The mean-curvature pairing underlying an epsilon choice is numerically zero."""


class CapabilityError(LayerSpecError):
    """The requested operation is not available for this surface or chart."""


class TruncationError(LayerSpecError):
    """A trial function's support exceeds the validity range of the chart."""


class EigenSolveError(LayerSpecError):
    """Sparse eigensolver failed to factorize or converge."""


class NoLimitError(LayerSpecError):
    """A monitored sequence oscillates without settling to a limit."""
