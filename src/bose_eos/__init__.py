"""Equilibrium thermodynamics of the ideal Bose gas with dispersion
eps(k) = hbar^2 k^sigma / 2m in d spatial dimensions.

Closed-form critical temperatures at constant density and constant
pressure, gap/condensate solvers for both constraints, the effective
free energy and critical exponents of the constant-density transition,
and independent numerical oracles (discrete box sums, an Euler-Maclaurin
series) that cross-check all of it.

Every public name is read from its defining module on first access
(PEP 562), so a process imports only the modules it uses: `bose-eos tc`
loads neither the verification suite nor the oracles.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining module, the one table the namespace and __all__ read.
_MODULE_OF = {
    name: module
    for module, names in (
        ("criticality", "CorrelationQuantities ExponentSet FitResult LandauModel "
         "chemical_potential_asymptotic correlation_quantities equation_of_state "
         "extract_exponents landau_free_energy landau_model landau_taylor_coefficients"),
        ("errors", "BoseEosError BranchError CondensedRegion ConfigError ConvergenceError "
         "DivergentValue DomainError PoleError UnsupportedRegime ZeroTemperatureBEC"),
        ("gas", "GasSpec dispersion dispersion_coefficient lambda0 prefactor_A "
         "thermal_wavelength"),
        ("isobar", "IsobarPoint coexistence_consistency critical_temperature_pressure "
         "solve_gap_isobar"),
        ("isochore", "CRITICAL_WINDOW ThermoPoint condensate_fraction "
         "critical_temperature_density density_at grand_potential pressure_at "
         "solve_gap_isochore susceptibility"),
        ("oracle", "BoxSpec DerivativeEstimate finite_density finite_difference "
         "series_sum_highprec zeta_dirichlet"),
        ("special", "EvalResult bose_g bose_g_derivative gamma zeta"),
        ("sweep", "COLUMNS SCHEMA_VERSION SweepRequest SweepTable run_sweep temperature_grid"),
        ("verify", "CheckResult all_passed run_checks"),
    )
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
