"""Constant-pressure thermodynamics.

At fixed pressure the gap solves

    P = k_B T lambda_T^-d A(d, sigma) g_(d/sigma + 1)(r / k_B T),

which has a solution with r >= 0 exactly for T >= T_c(P). Unlike the
constant-density case, the transition temperature is finite for every d > 0.
The state below T_c(P) is deliberately not modelled: the solvers raise
:class:`CondensedRegion` instead of extrapolating, and only the coexistence
boundary itself is exposed. States come from isochore's normal-state core.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CondensedRegion, DomainError
from .gas import GasSpec, _all_normal, _constraint_constants, _critical_temperature_in_logs
from .gas import _natural_constraint, prefactor_A
from .isochore import (
    CRITICAL_WINDOW,
    REGIME_NORMAL,
    _normal_state,
    critical_temperature_density,
    pressure_at,
)
from .special import zeta

REGIME_BOUNDARY = "condensed_boundary"


class IsobarPoint(NamedTuple):
    """One solved state along an isobar (fixed P, T >= T_c(P)).

    v is the specific volume 1/rho; t_P the reduced distance from the
    constant-pressure transition. At the boundary r = 0 the density equals
    the coexistence value, which is finite only for d > sigma.
    """

    T: float
    P: float
    r: float
    rho: float
    v: float
    t_P: float
    regime: str

    @property
    def mu(self) -> float:
        return -self.r


def critical_temperature_pressure(spec: GasSpec, P: float) -> float:
    """T_c(P) = [lambda_0^d P / (zeta(1 + d/sigma) A(d, sigma) k_B)]^(sigma/(d+sigma)).

    Valid for every d > 0; lambda_0 = lambda_T T^(1/sigma) is temperature
    independent, which is what makes the inversion closed-form.
    """
    if not P > 0.0:
        raise DomainError(f"pressure must be positive, got P={P!r}")
    try:
        lam0_d = (2.0 * math.pi / spec.mass) ** (spec.d / spec.sigma)
        bracket = lam0_d * _natural_constraint(spec, P, 1) / (
            zeta(1.0 + spec.d_over_sigma) * prefactor_A(spec.d, spec.sigma)
        )
        tc = bracket ** (spec.sigma / (spec.d + spec.sigma))
    except (OverflowError, DomainError):  # (2 pi)^750 at d = 1500, sigma = 2; A; or P L0^d
        lam0_d = bracket = tc = math.nan
    if _all_normal(lam0_d, bracket, tc):
        return tc
    return _critical_temperature_in_logs(spec, P, 1)


def solve_gap_isobar(spec: GasSpec, T: float, P: float) -> IsobarPoint:
    """Normal-phase state at temperature T and fixed pressure P.

    Requires T >= T_c(P); temperatures inside the critical window return the
    boundary point (r = 0), lower ones raise CondensedRegion. The density
    follows from the normal branch of the density equation at the solved gap.
    """
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    tc = critical_temperature_pressure(spec, P)  # validates P
    point = _isobar_state(spec, T, P, tc, *_constraint_constants(spec, P, 1))
    if point is None:
        raise CondensedRegion(
            f"T = {T:g} is below T_c(P) = {tc:g}; the condensed constant-pressure "
            "state is not modelled",
            T_c=tc,
        )
    return point


def _isobar_state(
    spec: GasSpec, T: float, P: float, tc: float, target: float | None, a: float | None
) -> IsobarPoint | None:
    """solve_gap_isobar at T > 0 from tc = T_c(P) and _normal_state's constants; None below."""
    t_P = (T - tc) / tc
    if t_P < -CRITICAL_WINDOW:
        return None
    boundary = abs(t_P) <= CRITICAL_WINDOW
    r, rho = _normal_state(spec, T, P, 1, not boundary, target, a)
    return IsobarPoint(
        T=T,
        P=P,
        r=r,
        rho=rho,
        v=1.0 / rho if rho else math.inf,  # 0 where rho diverges, inf where it underflows
        t_P=t_P,
        regime=REGIME_BOUNDARY if boundary else REGIME_NORMAL,
    )


def coexistence_consistency(spec: GasSpec, rho: float) -> float:
    """|T_c(P_c(rho)) / T_c(rho) - 1| along the shared coexistence curve.

    The two critical-temperature formulas are exact inverses through the
    r = 0 pressure, so this must vanish to rounding. Propagates
    ZeroTemperatureBEC for d <= sigma.
    """
    t1 = critical_temperature_density(spec, rho)
    p_c = pressure_at(spec, t1, 0.0)
    t2 = critical_temperature_pressure(spec, p_c)
    return abs(t2 / t1 - 1.0)
