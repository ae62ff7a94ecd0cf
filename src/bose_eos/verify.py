"""One registry of named checks, run by `bose-eos verify` and the acceptance suite.

`REGISTRY` lists every check in the order `bose-eos verify` prints them. Each
entry states its level, its bound and, where it has one, the wall-time budget
the acceptance suite holds it to; its measuring function states its inputs.
The quick level exercises every closed-form identity and solver round trip in
a few seconds; the full level adds the slower statistical checks
(critical-exponent fits, finite-size convergence of the discrete momentum sum,
tricritical coefficient scaling). Work that several checks read is done once
per run, by a `SharedWork`. Every check reports the measured worst-case value
next to the bound it is held to; `verdict` writes the one-line PASS/FAIL form.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple

from .criticality import (
    chemical_potential_asymptotic,
    correlation_quantities,
    extract_exponents,
    landau_free_energy,
    landau_model,
    landau_taylor_coefficients,
    loglog_slope,
)
from .errors import DomainError
from .gas import GasSpec, prefactor_A
from .isobar import coexistence_consistency
from .isochore import critical_temperature_density, density_at, solve_gap_isochore
from .oracle import (
    BoxSpec,
    finite_density,
    finite_difference,
    series_sum_highprec,
    zeta_dirichlet,
)
from .special import bose_g, zeta
from .sweep import geomspace, linspace

LEVELS = ("quick", "full")

# Every check runs at density rho = 1, so relative density errors need no
# division. SPECS, both inside sigma < d < 2 sigma, serve most checks.
SPEC32 = GasSpec(d=3.0, sigma=2.0)
SPECS = (SPEC32, GasSpec(d=3.0, sigma=1.8))
MU_LADDER = (1e-3, 1e-4, 1e-5)
BOX_EDGES = (2.0, 4.0, 8.0, 16.0, 32.0)
# Box edge at which the d=3, sigma=2, beta*r=0.5 discrete sum is documented
# to be within BOX_RTOL of the thermodynamic limit.
L_STAR = 16.0
BOX_RTOL = 1e-3


class CheckResult(NamedTuple):
    """One verification outcome: passed iff measured <= tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    @property
    def summary(self) -> str:
        """`measured=… tol=… (detail)`, the text of this result's verdict."""
        text = f"measured={self.measured:.3e} tol={self.tolerance:.3e}"
        return f"{text} ({self.detail})" if self.detail else text


def verdict(name: str, passed: bool, text: str) -> str:
    """The one-line verdict `PASS|FAIL <name>: <text>`."""
    return f"{'PASS' if passed else 'FAIL'} {name}: {text}"


class SharedWork:
    """Computations that several checks read, each done at most once per run."""

    @cached_property
    def exponents(self) -> dict:
        return {spec: extract_exponents(spec, rho=1.0) for spec in SPECS}

    @cached_property
    def mu_errors(self) -> list[float]:
        """|asymptotic/exact - 1| for the chemical potential along MU_LADDER."""
        tc = critical_temperature_density(SPEC32, 1.0)
        errors = []
        for t in MU_LADDER:
            exact = -solve_gap_isochore(SPEC32, tc * (1.0 + t), 1.0).r
            asym = chemical_potential_asymptotic(landau_model(SPEC32, 1.0, t), 0.0)
            errors.append(abs(asym / exact - 1.0))
        return errors

    @cached_property
    def box_errors(self) -> list[float]:
        """Relative box-density error at T = 1, r = 0.5 for each of BOX_EDGES."""
        limit = density_at(SPEC32, 1.0, 0.5)
        return [
            abs(finite_density(SPEC32, BoxSpec(L=L, d=3), 1.0, -0.5) / limit - 1.0)
            for L in BOX_EDGES
        ]

    @cached_property
    def tricritical_powers(self) -> list[tuple[float, float]]:
        """(fitted, predicted) powers of t in the Psi^2 and Psi^4 coefficients."""
        ts = geomspace(1e-5, 1e-2, 16)
        coeffs = [landau_taylor_coefficients(landau_model(SPEC32, rho=1.0, t=t)) for t in ts]
        d, sigma = SPEC32.d, SPEC32.sigma
        targets = (sigma / (d - sigma), (2.0 * sigma - d) / (d - sigma))
        return [
            (loglog_slope(ts, [c[i] for c in coeffs])[0], targets[i])
            for i in (0, 1)
        ]


class Check(NamedTuple):
    """A named check: `measure` gives the worst case (and a detail), held to `tolerance`.

    A callable tolerance is computed from the run's shared work. `budget_s`
    is the wall time the acceptance suite allows; `verify` never times.
    """

    name: str
    level: str
    tolerance: float | Callable[[SharedWork], float]
    measure: Callable[[SharedWork], float | tuple[float, str]]
    budget_s: float | None = None

    def run(self, shared: SharedWork) -> CheckResult:
        value = self.measure(shared)
        measured, detail = value if isinstance(value, tuple) else (value, "")
        tol = self.tolerance(shared) if callable(self.tolerance) else self.tolerance
        return CheckResult(self.name, measured <= tol, measured, tol, detail)


def _bose_vs_series(_: SharedWork) -> float:
    return max(
        abs(bose_g(nu, y).value - series_sum_highprec(nu, y))
        for nu in (1.2, 1.5, 2.5, 2.8)
        for y in (1e-4, 1e-2, 0.1, 1.0, 5.0)
    )


def _bose_at_zero(_: SharedWork) -> float:
    return max(
        abs(bose_g(nu, 0.0).value - ref(nu))
        for nu in (1.2, 1.5, 2.5, 2.8)
        for ref in (zeta, zeta_dirichlet)
    )


def _prefactor(_: SharedWork) -> float:
    return max(abs(prefactor_A(d, 2.0) - 1.0) for d in (1.0, 1.7, 2.0, 3.0, 4.0))


def _isochore_roundtrip(_: SharedWork) -> float:
    worst = 0.0
    for sigma in (2.0, 1.8, 1.5):
        spec = GasSpec(d=3.0, sigma=sigma)
        tc = critical_temperature_density(spec, 1.0)
        for T in linspace(1.001 * tc, 3.0 * tc, 20):
            pt = solve_gap_isochore(spec, T, 1.0)
            worst = max(worst, abs(density_at(spec, T, pt.r) - 1.0))
    return worst


def _condensate(_: SharedWork) -> float:
    """Density residual and the law psi2 = 1 - (T/T_c)^(d/sigma), from 1e-6 T_c to T_c."""
    worst = 0.0
    for spec in SPECS:
        tc = critical_temperature_density(spec, 1.0)
        # Two grids whose starts differ by an ulp, plus the T -> 0 end.
        grid = [1e-6 * tc, *linspace(tc / 20.0, tc, 20), *linspace(0.05 * tc, tc, 20)]
        for T in grid:
            psi2 = solve_gap_isochore(spec, T, 1.0).psi2
            residual = density_at(spec, T, 0.0) + psi2 - 1.0
            law = psi2 - (1.0 - (T / tc) ** spec.d_over_sigma)
            worst = max(worst, abs(residual), abs(law))
    return worst


def _coexistence(_: SharedWork) -> float:
    return max(
        coexistence_consistency(GasSpec(d=d, sigma=sigma), 1.0)
        for d in (2.5, 3.0, 3.5)
        for sigma in (1.2, 1.6, 2.0)
    )


def _stationarity(_: SharedWork) -> float:
    worst = 0.0
    for spec in SPECS:
        for t in (-0.2, -0.1, -0.01):
            model = landau_model(spec, rho=1.0, t=t)
            psi_root = math.sqrt(-model.d_over_sigma * t)
            # The ordered root sits on the edge of the real branch, so the
            # derivative is probed from the interior side only.
            deriv = finite_difference(
                lambda p: landau_free_energy(model, p), psi_root, 1e-6, side="forward"
            )
            worst = max(worst, abs(deriv.value) / (2.0 * model.C_f * model.free_energy_exponent))
    return worst


def _eta_slope(_: SharedWork) -> float:
    worst = 0.0
    ks = geomspace(1e-2, 1.0, 12)
    for d, sigma in ((3.0, 2.0), (3.0, 1.8), (2.0, 1.5)):
        chi = correlation_quantities(GasSpec(d=d, sigma=sigma), 0.0).chi
        slope, _ = loglog_slope(ks, [chi(k) for k in ks])
        worst = max(worst, abs(slope + sigma))
    return worst


def _not_falling(errors: list[float]) -> float:
    """Steps along a ladder where the error does not strictly fall."""
    return float(sum(later >= earlier for earlier, later in zip(errors, errors[1:])))


def _box_at_l_star(shared: SharedWork) -> tuple[float, str]:
    errors = shared.box_errors
    first_ok = next((L for L, e in zip(BOX_EDGES, errors) if e <= BOX_RTOL), None)
    return errors[BOX_EDGES.index(L_STAR)], f"first L with error <= tol: {first_ok}"


def _fit_error(fitted: float, exact: float) -> tuple[float, str]:
    return abs(fitted / exact - 1.0), f"fit {fitted:.4f} vs {exact:.4f}"


def _exponent_checks(spec: GasSpec) -> tuple[Check, ...]:
    """Fitted gamma and nu, gamma = sigma nu within the fits' combined standard
    error, and Fisher's eta; the budget covers the fits of every spec."""
    tag = f"d{spec.d:g}-sigma{spec.sigma:g}"

    def es(shared: SharedWork):
        return shared.exponents[spec]

    def combined_std_error(shared: SharedWork) -> float:
        fits = es(shared)
        return max(fits.fitted_gamma.std_error + spec.sigma * fits.fitted_nu.std_error, 1e-12)

    def gamma_minus_sigma_nu(shared: SharedWork) -> float:
        fits = es(shared)
        return abs(fits.fitted_gamma.exponent - spec.sigma * fits.fitted_nu.exponent)

    budget = 30.0
    return (
        Check(f"fitted-gamma-{tag}", "full", 0.02,
              lambda s: _fit_error(es(s).fitted_gamma.exponent, es(s).gamma_), budget),
        Check(f"fitted-nu-{tag}", "full", 0.02,
              lambda s: _fit_error(es(s).fitted_nu.exponent, es(s).nu), budget),
        Check(f"scaling-relation-gamma-sigma-nu-{tag}", "full", combined_std_error,
              gamma_minus_sigma_nu, budget),
        Check(f"fisher-eta-{tag}", "full", 1e-3,
              lambda s: abs(es(s).fitted_eta - es(s).eta), budget),
    )


def _tricritical_check(name: str, i: int) -> Check:
    return Check(name, "full", 0.02, lambda s: _fit_error(*s.tricritical_powers[i]))


REGISTRY: tuple[Check, ...] = (
    Check("bose-function-vs-brute-force-series", "quick", 1e-12, _bose_vs_series, 1.0),
    Check("bose-function-boundary-zeta", "quick", 1e-12, _bose_at_zero, 1.0),
    Check("prefactor-A-at-sigma-2", "quick", 1e-14, _prefactor),
    Check("isochore-density-roundtrip", "quick", 1e-10, _isochore_roundtrip, 5.0),
    Check("condensate-fraction-residual", "quick", 1e-12, _condensate),
    Check("coexistence-closure", "quick", 1e-8, _coexistence, 1.0),
    Check("equation-of-state-stationarity", "quick", 1e-8, _stationarity),
    Check("asymptotic-mu-at-t-1e-3", "quick", 0.05, lambda s: s.mu_errors[0]),
    Check("asymptotic-mu-at-t-1e-5", "quick", 0.005, lambda s: s.mu_errors[2]),
    Check("asymptotic-mu-error-decreasing", "quick", 0.0, lambda s: _not_falling(s.mu_errors)),
    Check("susceptibility-critical-slope", "quick", 1e-10, _eta_slope),
    *(check for spec in SPECS for check in _exponent_checks(spec)),
    Check("finite-size-error-monotone", "full", 0.0,
          lambda s: _not_falling(s.box_errors), 120.0),
    Check("finite-size-converged-at-L-star", "full", BOX_RTOL, _box_at_l_star, 120.0),
    _tricritical_check("tricritical-psi2-coefficient-power", 0),
    _tricritical_check("tricritical-psi4-coefficient-power", 1),
)


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the registry's checks for `level`; full adds the slow statistical checks."""
    if level not in LEVELS:
        raise DomainError(f"level must be one of {LEVELS}, got {level!r}")
    shared = SharedWork()
    return [c.run(shared) for c in REGISTRY if level == "full" or c.level == "quick"]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)
