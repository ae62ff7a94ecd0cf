"""Constant-density thermodynamics.

The density constraint

    rho = lambda_T^-d A(d, sigma) g_(d/sigma)(r / k_B T) + rho Psi^2

is inverted for the gap r = -mu in the normal phase, or solved for the
condensate fraction Psi^2 with r = 0 below the transition. The critical
temperature follows from the r = 0, Psi = 0 boundary and exists only for
d > sigma; otherwise condensation happens at absolute zero and the solvers
raise :class:`ZeroTemperatureBEC`. T_c comes from ``gas._transition``. The
states of this solver, of the isobar's and of every sweep row come from one
core, ``_states``, which takes what a held density or pressure fixes once
per request and solves each temperature from it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, PoleError
from .gas import _LN_MAX, GasSpec, _convert, _natural_constraint, _prefactor, _scales
from .gas import _spec_constraint, _transition, _unit_map
from .rootfind import solve_bose_equation
from .special import CLASSICAL_Y, bose_g, zeta

REGIME_NORMAL = "normal"
REGIME_CONDENSED = "condensed"
REGIME_CRITICAL = "critical"
REGIME_BOUNDARY = "condensed_boundary"  # an isobar's r = 0 state, at T_c(P)

# States with |t| <= CRITICAL_WINDOW are given r = 0, regime critical on an
# isochore and condensed_boundary on an isobar, although the solver resolves
# many of them. The cost, against mpmath at t = 9e-9 and P = 1: the isobar
# density is off by 1.5e-4 relative at d = 3, sigma = 2, where the true
# r / T = 1.2e-8 is easy to resolve; by 9.7e-3 at d = 2.5, sigma = 2; and by
# 5.2e-8 at d = 5, sigma = 2.
CRITICAL_WINDOW = 1e-8


class ThermoPoint(NamedTuple):
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
    return _transition(spec, rho, 0)[0]


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


def _constraint_at(spec: GasSpec, T: float, r_nat: float, k: int) -> float:
    """The density (k = 0) or pressure (k = 1) T^k lambda_T^-d A g_(d/sigma + k)(r_nat / T).

    In spec units, at the natural gap r_nat; a value past the doubles is a
    DomainError naming d, sigma and T.
    """
    y = r_nat / T
    pref, log_pref = _prefactor(spec, T, k)
    if y >= CLASSICAL_Y:  # g = e^-y in doubles: the product in logs
        log_natural = log_pref - y
        natural = math.exp(log_natural) if log_natural <= _LN_MAX else math.inf
    else:
        natural = T**k * pref * bose_g(spec.d_over_sigma + k, y).value
    try:
        value = _spec_constraint(spec, natural, k)
        if not value < math.inf:
            raise DomainError(f"{('rho', 'P')[k]} = {value!r} is outside the double range")
    except DomainError as exc:  # or no length factor converts it: SI past d = 27.29
        raise DomainError(f"{exc} (d={spec.d:g}, sigma={spec.sigma:g}, T={T!r})") from None
    return value


def solve_gap_isochore(spec: GasSpec, T: float, rho: float) -> ThermoPoint:
    """Equilibrium state at temperature T and fixed density rho.

    Above T_c the gap solves the normal-phase density equation (residual
    below 1e-12 relative); at and below T_c the gap is zero and the
    condensate fraction is 1 - (T/T_c)^(d/sigma).
    """
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    T, t, r, psi2, P, regime = _states(spec, rho, 0, (T,))[1][0]  # validates rho, d > sigma
    return ThermoPoint(T=T, t=t, r=r, psi2=psi2, rho=rho, P=P, regime=regime)


def _states(spec: GasSpec, value: float, k: int, temperatures) -> tuple[float, list]:
    """(T_c, states) at a held density (k = 0) or pressure (k = 1), one state per T > 0.

    A state is the tuple (T, t, r, psi2, conjugate, regime) in spec units, the
    conjugate being the pressure for a held density and the density for a held
    pressure; None at an isobar T below T_c(P), where none is modelled. Below
    T_c(rho), and at T_c, r = 0; elsewhere r solves
    value = T^k lambda_T^-d A g_(d/sigma + k)(r / T). What depends only on the
    request is taken once: gas._transition's (T_c, natural value, A), ln of
    that value, the unit factors and the conjugate's g at r = 0. The
    conjugate's g_(d/sigma + 1 - k) comes from the solve, which is given its
    order and returns it where the pass that verified r summed exactly that
    order. Errors name d, sigma, T and value.
    """
    tc, target, a = _transition(spec, value, k)
    nu, energy = spec.d_over_sigma, _scales(spec)[0]
    at_tc = (REGIME_CRITICAL, REGIME_BOUNDARY)[k]
    log_target = None if target is None else math.log(target)
    units = _unit_map(spec, 1 - k)  # the conjugate's
    order = nu + (1 - k)  # of the conjugate's g, which at r = 0 is zeta where that converges
    g_zero = zeta(order) if order > 1.0 else None  # None: an isobar's r = 0 density diverges
    states = []
    for T in temperatures:
        t = (T - tc) / tc
        psi2, solve = 0.0, abs(t) > CRITICAL_WINDOW
        if not solve:
            regime = at_tc
        elif t > 0.0:
            regime = REGIME_NORMAL
        elif k:
            states.append(None)
            continue
        else:
            regime, solve = REGIME_CONDENSED, False
            psi2 = _condensed_fraction(nu, T / tc)
        pref, log_pref = _prefactor(spec, T, k, a)  # lambda_T^-d A, ln(T^k lambda_T^-d A)
        r_nat, g, failed = 0.0, None, "state"
        try:
            if solve:
                if log_target is None:  # raises value's DomainError, which gets the state below
                    _natural_constraint(spec, value, k)
                failed = "gap solve failed"
                r_nat, g = solve_bose_equation(nu + k, log_pref - log_target, T, order)
                failed = "state"  # what fails from here on is the converged state's conjugate
            y = r_nat / T
            if y >= CLASSICAL_Y:  # g_(nu+1) = g_nu to double precision: P = rho k_B T
                conjugate = value / (T * energy) if k else T * value * energy
            elif pref == math.inf:  # the conjugate below needs it
                raise DomainError(f"lambda_T^-d A = {pref!r} is outside the double range")
            elif g_zero is None and not solve:
                states.append((T, t, 0.0, psi2, math.inf, regime))
                continue
            else:
                if g is None:
                    g = bose_g(order, y).value if y or g_zero is None else g_zero
                conjugate = _convert(units, (pref if k else T * pref) * g, False)
        except (ConvergenceError, DomainError) as exc:
            raise type(exc)(
                f"{('isochore', 'isobar')[k]} {failed} at "
                f"d={spec.d!r}, sigma={spec.sigma!r}, T={T!r}, {('rho', 'P')[k]}={value!r}: {exc}"
            ) from exc
        if conjugate == math.inf:
            raise DomainError(
                f"{('isochore', 'isobar')[k]} state at d={spec.d!r}, sigma={spec.sigma!r}, "
                f"T={T!r}, {('rho', 'P')[k]}={value!r} has a {('pressure', 'density')[k]} "
                "outside the double range"
            )
        states.append((T, t, r_nat * energy, psi2, conjugate, regime))
    return tc, states


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
    if not n_particles > 0.0:
        raise DomainError(f"particle count must be positive, got {n_particles!r}")
    if r == 0.0:
        return math.inf
    return 1.0 / (n_particles * r)
