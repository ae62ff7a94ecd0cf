"""Exception types shared across the package.

Several of these signal physics regimes rather than bugs: ``ZeroTemperatureBEC``
means condensation only happens at T = 0 for the given (d, sigma), and
``CondensedRegion`` means the constant-pressure state below T_c(P) was
requested, which this library deliberately does not model.
"""


class BoseEosError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BoseEosError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DivergentValue(BoseEosError, ArithmeticError):
    """The requested quantity is mathematically infinite at this argument."""


class PoleError(BoseEosError, ArithmeticError):
    """Evaluation exactly at a pole (Gamma at 0, -1, -2, ... or zeta at 1)."""


class ZeroTemperatureBEC(BoseEosError):
    """d <= sigma: the gas condenses only at absolute zero.

    This is a regime statement, not a failure; callers that can report a
    regime (the CLI, sweep drivers) catch it and say so.
    """


class ConvergenceError(BoseEosError, RuntimeError):
    """An iterative computation failed to reach its accuracy target."""


class CondensedRegion(BoseEosError):
    """Constant-pressure state requested below T_c(P).

    The equation of state in that region is not modelled here; only the
    normal branch and the coexistence boundary are exposed. ``T_c`` holds the
    T_c(P) the temperature was refused against.
    """

    def __init__(self, message: str, T_c: float = float("nan")):
        super().__init__(message)
        self.T_c = T_c


class BranchError(BoseEosError, ValueError):
    """Order-parameter bracket psi^2 + (d/sigma) t < 0.

    Outside the real branch of the effective free energy; corresponds to the
    thermodynamically forbidden mu > 0 domain.
    """


class UnsupportedRegime(BoseEosError):
    """(d, sigma) outside the window sigma < d < 2 sigma.

    The effective free-energy expansion is only derived inside that window.
    """


class FitError(BoseEosError, ValueError):
    """Degenerate or out-of-window data passed to an exponent fit."""


class ConfigError(BoseEosError, ValueError):
    """Malformed configuration: config file or command-line flags."""
