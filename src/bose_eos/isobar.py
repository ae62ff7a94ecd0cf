"""Constant-pressure thermodynamics.

At fixed pressure the gap solves

    P = k_B T lambda_T^-d A(d, sigma) g_(d/sigma + 1)(r / k_B T),

which has a solution with r >= 0 exactly for T >= T_c(P). Unlike the
constant-density case, the transition temperature is finite for every d > 0.
The state below T_c(P) is deliberately not modelled: the solvers raise
:class:`CondensedRegion` instead of extrapolating, and only the coexistence
boundary itself is exposed. States come from isochore's state core, ``_states``,
which the isochore's solves and every sweep share.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CondensedRegion, DomainError
from .gas import GasSpec, _transition
from .isochore import _states, critical_temperature_density, pressure_at


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
    return _transition(spec, P, 1)[0]


def solve_gap_isobar(spec: GasSpec, T: float, P: float) -> IsobarPoint:
    """Normal-phase state at temperature T and fixed pressure P.

    Requires T >= T_c(P); temperatures inside the critical window,
    |t_P| <= CRITICAL_WINDOW = 1e-8, return the boundary point (r = 0), lower
    ones raise CondensedRegion. The density follows from the normal branch of
    the density equation at the solved gap. Inside the window the density is
    the r = 0 one: at t_P = 9e-9 and P = 1 it is off by 1.5e-4 relative at
    d = 3, sigma = 2, by 9.7e-3 at d = 2.5, sigma = 2, and by 5.2e-8 at d = 5,
    sigma = 2 (against mpmath).
    """
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    tc, (state,) = _states(spec, P, 1, (T,))  # validates P
    if state is None:
        raise CondensedRegion(
            f"T = {T:g} is below T_c(P) = {tc:g}; the condensed constant-pressure "
            "state is not modelled",
            T_c=tc,
        )
    T, t_P, r, _, rho, regime = state
    v = 1.0 / rho if rho else math.inf  # 0 where rho diverges, inf where it underflows
    return IsobarPoint(T=T, P=P, r=r, rho=rho, v=v, t_P=t_P, regime=regime)


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
