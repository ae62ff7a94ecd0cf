"""Equilibrium thermodynamics of the ideal Bose gas with dispersion
eps(k) = hbar^2 k^sigma / 2m in d spatial dimensions.

Closed-form critical temperatures at constant density and constant
pressure, gap/condensate solvers for both constraints, the effective
free energy and critical exponents of the constant-density transition,
and independent numerical oracles (discrete box sums, an Euler-Maclaurin
series) that cross-check all of it.
"""

from .criticality import (
    FIT_POINTS,
    FIT_WINDOW,
    CorrelationQuantities,
    ExponentSet,
    FitResult,
    LandauModel,
    chemical_potential_asymptotic,
    correlation_quantities,
    equation_of_state,
    extract_exponents,
    fit_exponent,
    landau_free_energy,
    landau_model,
    landau_taylor_coefficients,
    loglog_slope,
)
from .errors import (
    BoseEosError,
    BranchError,
    CondensedRegion,
    ConfigError,
    ConvergenceError,
    DivergentValue,
    DomainError,
    FitError,
    PoleError,
    UnsupportedRegime,
    ZeroTemperatureBEC,
)
from .gas import (
    GasSpec,
    dispersion,
    dispersion_coefficient,
    lambda0,
    prefactor_A,
    thermal_wavelength,
)
from .isobar import (
    IsobarPoint,
    coexistence_consistency,
    critical_temperature_pressure,
    solve_gap_isobar,
)
from .isochore import (
    CRITICAL_WINDOW,
    ThermoPoint,
    condensate_fraction,
    critical_temperature_density,
    density_at,
    grand_potential,
    pressure_at,
    solve_gap_isochore,
    susceptibility,
)
from .oracle import (
    BoxSpec,
    DerivativeEstimate,
    finite_density,
    finite_difference,
    series_sum_highprec,
    zeta_dirichlet,
)
from .special import (
    EvalResult,
    bose_g,
    bose_g_derivative,
    gamma,
    zeta,
)
from .sweep import (
    COLUMNS,
    SCHEMA_VERSION,
    SweepRequest,
    SweepTable,
    run_sweep,
    temperature_grid,
)
from .verify import CheckResult, all_passed, run_checks

__version__ = "0.1.0"

__all__ = [
    "BoseEosError",
    "BoxSpec",
    "BranchError",
    "CheckResult",
    "COLUMNS",
    "CondensedRegion",
    "ConfigError",
    "ConvergenceError",
    "CorrelationQuantities",
    "CRITICAL_WINDOW",
    "DerivativeEstimate",
    "DivergentValue",
    "DomainError",
    "EvalResult",
    "ExponentSet",
    "FIT_POINTS",
    "FIT_WINDOW",
    "FitError",
    "FitResult",
    "GasSpec",
    "IsobarPoint",
    "LandauModel",
    "PoleError",
    "SCHEMA_VERSION",
    "SweepRequest",
    "SweepTable",
    "ThermoPoint",
    "UnsupportedRegime",
    "ZeroTemperatureBEC",
    "all_passed",
    "bose_g",
    "bose_g_derivative",
    "chemical_potential_asymptotic",
    "coexistence_consistency",
    "condensate_fraction",
    "correlation_quantities",
    "critical_temperature_density",
    "critical_temperature_pressure",
    "density_at",
    "dispersion",
    "dispersion_coefficient",
    "equation_of_state",
    "extract_exponents",
    "finite_density",
    "finite_difference",
    "fit_exponent",
    "gamma",
    "grand_potential",
    "lambda0",
    "landau_free_energy",
    "landau_model",
    "landau_taylor_coefficients",
    "loglog_slope",
    "prefactor_A",
    "pressure_at",
    "run_checks",
    "run_sweep",
    "series_sum_highprec",
    "solve_gap_isobar",
    "solve_gap_isochore",
    "susceptibility",
    "temperature_grid",
    "thermal_wavelength",
    "zeta",
    "zeta_dirichlet",
]
