"""Critical-regime analytics for the constant-density transition.

For dimensions sigma < d < 2 sigma the free-energy density near the
transition collapses to the closed form

    f(Psi) = C_f (Psi^2 + (d/sigma) t)^(d/(d - sigma)),

whose stationary points reproduce the equation of state: Psi = 0 above the
transition, Psi^2 = -(d/sigma) t below it, with the chemical potential
vanishing on the condensed branch. The same bracket raised to
sigma/(d - sigma) gives the asymptotic chemical potential, which must match
the exact gap solver as t -> 0+. That ratio, falling towards 1 along a ladder
of t, is what validates the analytics here; gamma = sigma nu and
eta = 2 - sigma hold by construction, since xi = (c/r)^(1/sigma) and
chi(k) = 1/(c k^sigma) at r = 0.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple, Sequence

from .errors import BranchError, DomainError, FitError, UnsupportedRegime
from .gas import GasSpec, _natural_constraint, _scales, _spec_constraint, dispersion_coefficient
from .isochore import critical_temperature_density, solve_gap_isochore
from .special import gamma, zeta
from .sweep import geomspace

_EPS = sys.float_info.epsilon


class LandauModel(NamedTuple):
    """Effective free-energy data at one reduced temperature.

    C_f and thermal_energy (k_B T at this t) are in the unit system of the
    spec the model was built from; mu_coeff is the dimensionless
    [zeta(d/sigma) / |Gamma(1 - d/sigma)|]^(sigma/(d-sigma)) factor shared by
    C_f and the chemical potential.
    """

    C_f: float
    d_over_sigma: float
    t: float
    T_c: float
    rho: float
    thermal_energy: float
    mu_coeff: float

    @property
    def bracket_exponent(self) -> float:
        """sigma / (d - sigma) = 1 / (d/sigma - 1)."""
        return 1.0 / (self.d_over_sigma - 1.0)

    @property
    def free_energy_exponent(self) -> float:
        """d / (d - sigma)."""
        return self.d_over_sigma / (self.d_over_sigma - 1.0)


class CorrelationQuantities(NamedTuple):
    """Correlation length and the static susceptibility chi(k)."""

    xi: float
    chi: Callable[[float], float]


class FitResult(NamedTuple):
    """A fitted power-law exponent with its least-squares standard error."""

    exponent: float
    std_error: float
    n_points: int


class ExponentSet(NamedTuple):
    """Analytic critical exponents next to their numerically fitted values."""

    eta: float
    gamma_: float
    nu: float
    fitted_gamma: FitResult
    fitted_nu: FitResult
    fitted_eta: float
    fit_window: tuple[float, float]


def landau_model(spec: GasSpec, rho: float, t: float) -> LandauModel:
    """Build the effective free-energy model at reduced temperature t.

    Only the window sigma < d < 2 sigma is supported; outside it the
    closed form does not hold and UnsupportedRegime is raised. The
    coefficient is

        C_f = (d/sigma - 1) [zeta(d/sigma) / |Gamma(1 - d/sigma)|]^(sigma/(d-sigma))
              * k_B T_c * rho.

    t must be finite and above -1, where T = T_c (1 + t) > 0; otherwise
    DomainError.
    """
    if not (spec.sigma < spec.d < 2.0 * spec.sigma):
        raise UnsupportedRegime(
            f"the effective free energy needs sigma < d < 2 sigma, "
            f"got d={spec.d:g}, sigma={spec.sigma:g}"
        )
    nu = spec.d_over_sigma
    tc = critical_temperature_density(spec, rho)
    if not -1.0 < t < math.inf:
        raise DomainError(f"reduced temperature must be finite and > -1 (T > 0), got t={t!r}")
    energy, _ = _scales(spec)
    mu_coeff = (zeta(nu) / abs(gamma(1.0 - nu))) ** (1.0 / (nu - 1.0))
    cf_nat = (nu - 1.0) * mu_coeff * tc * _natural_constraint(spec, rho, 0)
    return LandauModel(
        C_f=_spec_constraint(spec, cf_nat, 1),
        d_over_sigma=nu,
        t=t,
        T_c=tc,
        rho=rho,
        thermal_energy=tc * (1.0 + t) * energy,
        mu_coeff=mu_coeff,
    )


def _bracket(model: LandauModel, psi: float) -> float:
    """Psi^2 + (d/sigma) t, clamped to 0 within rounding of the ordered root."""
    psi2 = psi * psi
    shift = model.d_over_sigma * model.t
    b = psi2 + shift
    if b < 0.0:
        if -b <= 8.0 * _EPS * max(psi2, abs(shift)):
            return 0.0
        raise BranchError(
            f"Psi^2 + (d/sigma) t = {b:.3e} < 0: outside the real branch "
            "(forbidden mu > 0 region)"
        )
    return b


def landau_free_energy(model: LandauModel, psi: float) -> float:
    """f(Psi) = C_f (Psi^2 + (d/sigma) t)^(d/(d-sigma)), energy density."""
    b = _bracket(model, psi)
    return model.C_f * b**model.free_energy_exponent


def equation_of_state(model: LandauModel, psi: float) -> float:
    """Left side of the stationarity condition, Psi (Psi^2 + (d/sigma) t)^(sigma/(d-sigma)).

    This is d f / d Psi with the positive constant 2 C_f d/(d - sigma)
    stripped, so the roots (Psi = 0, and Psi^2 = -(d/sigma) t when t < 0)
    are unchanged.
    """
    b = _bracket(model, psi)
    return psi * b**model.bracket_exponent


def chemical_potential_asymptotic(model: LandauModel, psi: float) -> float:
    """mu = -k_B T [zeta/|Gamma|]^(sigma/(d-sigma)) (Psi^2 + (d/sigma) t)^(sigma/(d-sigma)).

    Zero exactly on the condensed root, negative elsewhere; for Psi = 0 and
    t -> 0+ it converges to the exact -r of the gap solver.
    """
    b = _bracket(model, psi)
    return -model.thermal_energy * model.mu_coeff * b**model.bracket_exponent


def landau_taylor_coefficients(model: LandauModel) -> tuple[float, float]:
    """Taylor coefficients of f at Psi = 0, in front of Psi^2 and Psi^4.

    With p = d/(d - sigma) and b = (d/sigma) t they are exactly
    C_f p b^(p-1) and C_f p (p-1)/2 b^(p-2). Needs t > 0 (the expansion point
    must sit inside the real branch).
    """
    if model.t <= 0.0:
        raise DomainError("Taylor coefficients at Psi = 0 need t > 0")
    p, b = model.free_energy_exponent, model.d_over_sigma * model.t
    return model.C_f * p * b ** (p - 1.0), model.C_f * p * (p - 1.0) / 2.0 * b ** (p - 2.0)


def correlation_quantities(spec: GasSpec, r: float) -> CorrelationQuantities:
    """Correlation length xi = (c/r)^(1/sigma) and chi(k) = 1/(c k^sigma + r).

    c is the dispersion stiffness hbar^2/2m. At r = 0 (criticality) xi is
    reported as infinity and chi(k) becomes the pure power law whose
    log-log slope is -(2 - eta) with eta = 2 - sigma.
    """
    if not r >= 0.0:
        raise DomainError(f"gap must be >= 0, got r={r!r}")
    c = dispersion_coefficient(spec)
    sigma = spec.sigma
    try:
        if r == 0.0:
            xi = math.inf
        elif c / r < math.inf:
            xi = (c / r) ** (1.0 / sigma)
        else:  # a gap near the smallest doubles: xi may still be one
            xi = math.exp((math.log(c) - math.log(r)) / sigma)
    except OverflowError:
        raise DomainError(
            f"xi = (c/r)^(1/sigma) is outside the double range "
            f"(d={spec.d:g}, sigma={sigma:g}, r={r!r})"
        ) from None

    def chi(k: float) -> float:
        if k < 0.0:
            raise DomainError(f"wavenumber must be >= 0, got k={k!r}")
        denom = c * k**sigma + r
        if denom == 0.0:
            raise DomainError("chi(k) diverges at k = 0 on the critical line")
        return 1.0 / denom

    return CorrelationQuantities(xi=xi, chi=chi)


def loglog_slope(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log y against log x with its standard error.

    The error is sqrt(SSR / ((n - 2) Sxx)), the scaling numpy.polyfit uses
    for ``cov=True``; the sums are centred and exact-rounded.
    """
    lx = [math.log(v) for v in x]
    ly = [math.log(v) for v in y]
    n = len(lx)
    if n < 3:
        raise FitError(f"a slope with a standard error needs at least 3 points, got {n}")
    mx, my = math.fsum(lx) / n, math.fsum(ly) / n
    dx = [v - mx for v in lx]
    dy = [v - my for v in ly]
    sxx = math.fsum(u * u for u in dx)
    slope = math.fsum(u * v for u, v in zip(dx, dy)) / sxx
    ssr = math.fsum((v - slope * u) ** 2 for u, v in zip(dx, dy))
    return slope, math.sqrt(ssr / ((n - 2) * sxx))


FIT_KINDS = ("gamma_from_r", "nu_from_xi")

# Default fitting window: inside asymptotic validity, above solver noise.
FIT_WINDOW = (1e-5, 1e-2)
FIT_POINTS = 16


def fit_exponent(curve: Sequence[tuple[float, float]], kind: str) -> FitResult:
    """Fit a critical exponent from (t, value) pairs by log-log regression.

    kind "gamma_from_r" fits r ~ t^gamma (positive slope); "nu_from_xi" fits
    xi ~ t^-nu (negative slope, returned as +nu). Requires at least 8 points
    with t > 0 spanning two decades inside (0, 1e-2] and positive values.
    """
    if kind not in FIT_KINDS:
        raise DomainError(f"unknown fit kind {kind!r}; expected one of {FIT_KINDS}")
    pts = [(float(t), float(v)) for t, v in curve]
    if len(pts) < 8:
        raise FitError(f"need at least 8 points, got {len(pts)}")
    ts = [t for t, _ in pts]
    vals = [v for _, v in pts]
    if min(ts) <= 0.0 or min(vals) <= 0.0:
        raise FitError("reduced temperatures and values must all be positive")
    if max(ts) > FIT_WINDOW[1] * (1.0 + 1e-9):
        raise FitError(f"fit window is (0, {FIT_WINDOW[1]:g}]; got t up to {max(ts):g}")
    if max(ts) / min(ts) < 100.0:
        raise FitError("reduced temperatures must span at least two decades")
    slope, err = loglog_slope(ts, vals)
    exponent = slope if kind == "gamma_from_r" else -slope
    return FitResult(exponent=exponent, std_error=err, n_points=len(pts))


def extract_exponents(
    spec: GasSpec,
    rho: float,
    t_window: tuple[float, float] = FIT_WINDOW,
    points: int = FIT_POINTS,
) -> ExponentSet:
    """Measure gamma, nu and eta from the exact solver and compare to theory.

    Sweeps r(t) along the isochore on a log-uniform grid of reduced
    temperatures, converts to xi(t), fits both exponents, and measures the
    Fisher exponent from the critical chi(k) power law. Analytic targets
    (valid in the window sigma < d < 2 sigma) are gamma = sigma/(d - sigma),
    nu = 1/(d - sigma), eta = 2 - sigma.
    """
    if not (spec.sigma < spec.d < 2.0 * spec.sigma):
        raise UnsupportedRegime(
            f"analytic exponent targets need sigma < d < 2 sigma, "
            f"got d={spec.d:g}, sigma={spec.sigma:g}"
        )
    tc = critical_temperature_density(spec, rho)
    ts = geomspace(t_window[0], t_window[1], points)
    rs = [solve_gap_isochore(spec, tc * (1.0 + t), rho).r for t in ts]
    xis = [correlation_quantities(spec, r).xi for r in rs]

    fitted_gamma = fit_exponent(list(zip(ts, rs)), "gamma_from_r")
    fitted_nu = fit_exponent(list(zip(ts, xis)), "nu_from_xi")

    chi = correlation_quantities(spec, 0.0).chi
    ks = geomspace(1e-2, 1.0, 16)
    chi_slope, _ = loglog_slope(ks, [chi(k) for k in ks])
    fitted_eta = 2.0 + chi_slope

    d, sigma = spec.d, spec.sigma
    return ExponentSet(
        eta=2.0 - sigma,
        gamma_=sigma / (d - sigma),
        nu=1.0 / (d - sigma),
        fitted_gamma=fitted_gamma,
        fitted_nu=fitted_nu,
        fitted_eta=fitted_eta,
        fit_window=(float(t_window[0]), float(t_window[1])),
    )
