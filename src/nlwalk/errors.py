"""Exception hierarchy shared by all modules.

Each class carries the CLI exit code of its failures: 2 for invalid input
(the default), 3 for a violated model condition, 4 for a numerical
failure.
"""


class NlwalkError(Exception):
    """Base class for package errors."""

    exit_code = 2


class ConfigError(NlwalkError):
    """Invalid run configuration."""


class ModelConditionError(NlwalkError):
    """A requested model condition does not hold."""

    exit_code = 3


class NoFixedPoint(ModelConditionError):
    """C_lambda != C_mu: the system has no fixed points."""


class NumericalError(NlwalkError):
    """A computation left the representable or stable range."""

    exit_code = 4


class InvalidProfile(NlwalkError):
    """A beta profile stores or produces a non-positive value."""


class RateOverflow(NumericalError):
    """Jump-rate exponent outside the representable range; the window is
    too wide for the current (L, M)."""


class WindowTooNarrow(NlwalkError):
    """The window cannot hold the requested measure at tolerance."""


class StepSizeUnderflow(NumericalError):
    """The integrator could not proceed at a stable/accurate step size."""


class PositivityLost(NumericalError):
    """The integrated measure developed negative mass beyond tolerance."""


class UniformizationOverflow(NumericalError):
    """Dominating rate times span too large for the jump-count series."""


class NonConstantPath(NlwalkError):
    """Dyson evaluation needs a constant (L, M) path on the interval."""


class DominatingRateOverflow(NumericalError):
    """Thinning bound too large to sample against."""


class StepTooLarge(NlwalkError):
    """Particle step violates dt * max_rate < 0.1."""
