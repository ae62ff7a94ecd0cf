"""Constant-density thermodynamics.

The density constraint

    rho = lambda_T^-d A(d, sigma) g_(d/sigma)(r / k_B T) + rho Psi^2

is inverted for the gap r = -mu in the normal phase, or solved for the
condensate fraction Psi^2 with r = 0 below the transition. The critical
temperature follows from the r = 0, Psi = 0 boundary and exists only for
d > sigma; otherwise condensation happens at absolute zero and the solvers
raise :class:`ZeroTemperatureBEC`. The states of this solver and the isobar's
come from the core ``_normal_state``, whose evaluator ``_constraint_at`` also
gives ``pressure_at`` and ``density_at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, PoleError, ZeroTemperatureBEC
from .gas import GasSpec, _all_normal, _constraint_constants, _critical_temperature_in_logs
from .gas import _density_prefactor, _log_prefactor, _natural_constraint, _scales, _spec_constraint
from .gas import prefactor_A
from .rootfind import solve_bose_equation
from .special import CLASSICAL_Y, bose_g, zeta

REGIME_NORMAL = "normal"
REGIME_CONDENSED = "condensed"
REGIME_CRITICAL = "critical"

# Reduced temperatures below solver resolution are reported as critical
# instead of chasing a root smaller than float noise allows.
CRITICAL_WINDOW = 1e-8


@dataclass(frozen=True)
class ThermoPoint:
    """One solved equilibrium state along an isochore.

    r is the gap -mu >= 0; psi2 the condensate fraction, positive only where
    r = 0 (condensation requires mu = 0).
    """

    T: float
    t: float
    r: float
    psi2: float
    rho: float
    P: float
    regime: str

    @property
    def mu(self) -> float:
        return -self.r


def critical_temperature_density(spec: GasSpec, rho: float) -> float:
    """T_c(rho) = (2 pi hbar^2 / m k_B) [rho / (A zeta(d/sigma))]^(sigma/d).

    Raises ZeroTemperatureBEC for d <= sigma, where the boundary value
    g_(d/sigma)(0) diverges and condensation exists only at T = 0.
    """
    if not rho > 0.0:
        raise DomainError(f"density must be positive, got rho={rho!r}")
    if spec.d <= spec.sigma:
        raise ZeroTemperatureBEC(
            f"d = {spec.d:g} <= sigma = {spec.sigma:g}: condensation only at T = 0"
        )
    try:
        bracket = _natural_constraint(spec, rho, 0) / (
            prefactor_A(spec.d, spec.sigma) * zeta(spec.d_over_sigma)
        )
        tc = (2.0 * math.pi / spec.mass) * bracket ** (spec.sigma / spec.d)
    except DomainError:  # A(3000, 1) = e^15346, or a subnormal rho L0^d
        bracket = tc = math.nan
    if _all_normal(bracket, tc):
        return tc
    return _critical_temperature_in_logs(spec, rho, 0)


def pressure_at(spec: GasSpec, T: float, r: float) -> float:
    """P = k_B T lambda_T^-d A(d, sigma) g_(d/sigma + 1)(r / k_B T).

    The grand-potential pressure at gap r; monotone decreasing in r, with
    the r = 0 value giving the coexistence pressure at temperature T.
    """
    return _constraint_at(spec, T, _natural_gap(spec, T, r), 1)


def density_at(spec: GasSpec, T: float, r: float) -> float:
    """Normal-branch density lambda_T^-d A(d, sigma) g_(d/sigma)(r / k_B T).

    The thermal part of the density constraint at gap r; feeding a solved
    gap back in must reproduce the constrained density.
    """
    return _constraint_at(spec, T, _natural_gap(spec, T, r), 0)


def _natural_gap(spec: GasSpec, T: float, r: float) -> float:
    """r in natural units, after the T > 0 and r >= 0 checks (NaN fails them)."""
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    if not r >= 0.0:
        raise DomainError(f"gap must be >= 0, got r={r!r}")
    return r / _scales(spec)[0]


def _constraint_at(
    spec: GasSpec, T: float, r_nat: float, k: int, pref: float | None = None
) -> float:
    """The density (k = 0) or pressure (k = 1) T^k lambda_T^-d A g_(d/sigma + k)(r_nat / T).

    In spec units, at the natural gap r_nat; pref is lambda_T^-d A if the
    caller holds it. Without pref, as for the public evaluators, a value
    past the doubles is a DomainError; the state solvers name their state.
    """
    y = r_nat / T
    public = pref is None
    if public and y >= CLASSICAL_Y:  # g = e^-y in doubles: the product in logs
        natural = math.exp(_log_prefactor(spec, T, k) - y)
    else:
        g = bose_g(spec.d_over_sigma + k, y).value
        natural = T**k * (_density_prefactor(spec, T) if public else pref) * g
    value = _spec_constraint(spec, natural, k)
    if value < math.inf or not public:
        return value
    raise DomainError(
        f"{('rho', 'P')[k]} = {value!r} is outside the double range "
        f"(d={spec.d:g}, sigma={spec.sigma:g}, T={T!r})"
    )


def solve_gap_isochore(spec: GasSpec, T: float, rho: float) -> ThermoPoint:
    """Equilibrium state at temperature T and fixed density rho.

    Above T_c the gap solves the normal-phase density equation (residual
    below 1e-12 relative); at and below T_c the gap is zero and the
    condensate fraction is 1 - (T/T_c)^(d/sigma).
    """
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    tc = critical_temperature_density(spec, rho)  # validates rho, d > sigma
    return _isochore_state(spec, T, rho, tc, *_constraint_constants(spec, rho, 0))


def _isochore_state(
    spec: GasSpec, T: float, rho: float, tc: float, target: float | None, a: float | None
) -> ThermoPoint:
    """solve_gap_isochore at T > 0 from tc = T_c(rho) and the constants of _normal_state."""
    t = (T - tc) / tc
    psi2 = 0.0
    if abs(t) <= CRITICAL_WINDOW:
        regime = REGIME_CRITICAL
    elif t < 0.0:
        regime = REGIME_CONDENSED
        psi2 = _condensed_fraction(spec.d_over_sigma, T / tc)
    else:
        regime = REGIME_NORMAL
    r, P = _normal_state(spec, T, rho, 0, regime == REGIME_NORMAL, target, a)
    return ThermoPoint(T=T, t=t, r=r, psi2=psi2, rho=rho, P=P, regime=regime)


def _normal_state(
    spec: GasSpec, T: float, value: float, k: int, solve: bool,
    target: float | None, a: float | None,
) -> tuple[float, float]:
    """(r, conjugate) in spec units at T and a held density (k = 0) or pressure (k = 1).

    r solves value = T^k lambda_T^-d A g_(d/sigma + k)(r / T) if solve, else
    r = 0; the conjugate is the pressure or the density. target (value in
    natural units) and a (A(d, sigma)) come from gas._constraint_constants,
    which sweeps call once for all rows. Errors name d, sigma, T and value.
    """
    nu = spec.d_over_sigma
    r_nat, g_lower = 0.0, None
    try:
        if solve:
            if target is None:  # raises value's DomainError, which gets the state below
                target = _natural_constraint(spec, value, k)
            r_nat, g_lower = solve_bose_equation(nu + k, _log_prefactor(spec, T, k, a), target, T)
        classical = r_nat / T >= CLASSICAL_Y
        pref = None if classical else _density_prefactor(spec, T, a)
    except (ConvergenceError, DomainError) as exc:
        raise type(exc)(
            f"{('isochore', 'isobar')[k]} gap solve failed at d={spec.d!r}, "
            f"sigma={spec.sigma!r}, T={T!r}, {('rho', 'P')[k]}={value!r}: {exc}"
        ) from exc

    energy, _ = _scales(spec)
    if classical:  # g_(nu+1) = g_nu to double precision: P = rho k_B T
        conjugate = T * value * energy if k == 0 else value / (T * energy)
    elif k and not solve and spec.d <= spec.sigma:  # the r = 0 density diverges
        return 0.0, math.inf
    elif k and g_lower is not None and nu + 1.0 - 1.0 == nu:
        # The isobar's density g_nu(r / T): the solve's last pass summed order
        # (nu + 1) - 1, which is bit for bit bose_g's g_nu where it rounds to nu.
        conjugate = _spec_constraint(spec, pref * g_lower, 0)
    else:
        conjugate = _constraint_at(spec, T, r_nat, 1 - k, pref)
    if conjugate == math.inf:
        raise DomainError(
            f"{('isochore', 'isobar')[k]} state at d={spec.d!r}, sigma={spec.sigma!r}, "
            f"T={T!r}, {('rho', 'P')[k]}={value!r} has a {('pressure', 'density')[k]} "
            "outside the double range"
        )
    return r_nat * energy, conjugate


def grand_potential(
    spec: GasSpec,
    T: float,
    r: float,
    h: float = 0.0,
    n_particles: float = 1.0,
    volume: float = 1.0,
) -> float:
    """Grand potential Omega(T, r, h) with a real source field h.

    Omega = -k_B T V lambda_T^-d A g_(d/sigma + 1)(r / k_B T) - h^2 / (N r).

    The field term carries an explicit 1/r pole, so h != 0 requires r > 0.
    Satisfies dOmega = -S dT + N dr - 2 Psi dh with Psi = h / (N r), which
    is what fixes the susceptibility 1 / (N r).
    """
    r_nat = _natural_gap(spec, T, r)
    if not volume > 0.0:
        raise DomainError(f"volume must be positive, got {volume!r}")
    if not n_particles > 0.0:
        raise DomainError(f"particle count must be positive, got {n_particles!r}")
    if h != 0.0 and r == 0.0:
        raise PoleError("the source-field term has a 1/r pole; need r > 0 when h != 0")
    energy, _ = _scales(spec)
    h_nat = h / energy
    # -V P in spec units: 1/V in natural units may leave the normal doubles
    omega = -volume * _constraint_at(spec, T, r_nat, 1)
    if h_nat != 0.0:
        omega -= h_nat * h_nat / (n_particles * r_nat) * energy
    return omega


def condensate_fraction(spec: GasSpec, T: float, rho: float) -> float:
    """Psi^2(T) = 1 - (T/T_c)^(d/sigma) below T_c, clamped to 0 above."""
    tc = critical_temperature_density(spec, rho)
    if T >= tc:
        return 0.0
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    return _condensed_fraction(spec.d_over_sigma, T / tc)


def _condensed_fraction(nu: float, ratio: float) -> float:
    """1 - ratio^nu for 0 <= ratio < 1, ratio = T / T_c; 1 where the ratio underflows."""
    return -math.expm1(nu * math.log(ratio)) if ratio else 1.0


def susceptibility(r: float, n_particles: float = 1.0) -> float:
    """Order-parameter susceptibility chi_T = 1 / (N r), divergent at r = 0."""
    if not r >= 0.0:
        raise DomainError(f"gap must be >= 0, got r={r!r}")
    if r == 0.0:
        return math.inf
    return 1.0 / (n_particles * r)
