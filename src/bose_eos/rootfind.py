"""Bracketed Newton solve of the monotone gap equation.

Both constraint solvers reduce to one problem, which
``solve_bose_equation`` solves in one loop over the gap r: find r >= 0 with
``prefactor * g_order(r / T) = target``, the left side strictly decreasing
in r. It is solved in logs, as phi(y) = ln g_order(y) + L = 0 with
y = r / T and L = ln(prefactor / target), so a prefactor past the doubles
still has a root. As 0 < e^(-n y) n^(-order) <= e^(-n y) for order >= 0,
the bounds e^(-y) <= g_order(y) <= 1 / (e^y - 1) put y* in the closed-form
bracket [max(0, L), ln(1 + e^L)]; from L = CLASSICAL_Y on it is narrower
than a double resolves and y* = L. For L > 0 Newton starts at the two-term
Boltzmann (virial) inversion of g_order = z + z^2 / 2^order, z = e^-y, and
otherwise at the middle of the bracket. Newton steps take the slope
phi' = -g_(order-1) / g_order, with g_order from the same iterate, and fall
back to bisection whenever a step leaves the bracket or the derivative order
makes g_(order-1) blow up near r = 0. On the series route (y >= 0.5) one
Horner pass gives an iterate both g_order and g_(order-1); below it the
expansion stops each order at its own term, so g_(order-1) is a second call,
made only when a Newton step is taken.
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, DomainError
from .special import CLASSICAL_Y, SMALL_Y_SWITCH, _bose_any_order, _bose_expansion, _bose_pair

# Bisection-only region: for derivative orders <= 1 the Newton slope
# diverges as r -> 0, so below this beta*r the plain bracket halving is used.
_NEWTON_FLOOR_Y = 1e-6

# Stop at |ln(prefactor g / target)| <= this. 1e-12 would hold the relative
# residual to 1e-12 but left r off by 1.6e-11 at T = 2.7488 in the README log
# sweep: at small y, dr / r is the residual over y g_(order-1) / g_order.
_LOG_TOL = 1e-13

# Or stop once the bracket is this narrow, relative to its upper end.
_XTOL_REL = 4.0 * sys.float_info.epsilon

_MAX_ITER = 400
_FLOAT_MIN = sys.float_info.min


def solve_bose_equation(
    order: float, log_prefactor: float, target: float, T: float
) -> tuple[float, float | None]:
    """Solve ``ln g_order(r / T) = ln(target) - log_prefactor`` for the gap r > 0.

    Returns (r, g_(order-1)(r / T)) where r is an iterate whose Horner pass
    on the series route also summed g_(order-1), else (r, None).

    log_prefactor is ln(prefactor), finite also where the prefactor itself
    leaves the doubles. Assumes the caller has already established that a
    positive root exists, i.e. prefactor * zeta(order) > target (the normal
    side of the transition). target must be a normal double and
    log_prefactor finite (``DomainError`` otherwise). The solve stops at
    |ln(prefactor g_order / target)| <= _LOG_TOL, which holds the relative
    residual of the linear equation to about _LOG_TOL too, or once the
    bracket collapses; after _MAX_ITER iterates it raises
    ``ConvergenceError``. From L = ln(prefactor / target) = CLASSICAL_Y on,
    the root is L itself and no Bose function is evaluated, also where
    g_order(y*) underflows.
    """
    if not (math.isfinite(log_prefactor) and _FLOAT_MIN <= target < math.inf):
        raise DomainError(
            f"gap equation sides ln(prefactor) = {log_prefactor!r}, target = {target!r}: "
            "need a finite log and a target in the normal doubles"
        )
    log_ratio = log_prefactor - math.log(target)  # L
    if log_ratio >= CLASSICAL_Y:  # the bracket below is [L, L] in doubles
        return log_ratio * T, None
    y_lo = max(log_ratio, 0.0)
    y_hi = y_lo + math.log1p(math.exp(-abs(log_ratio)))  # ln(1 + e^L)
    lo, hi = y_lo * T, y_hi * T
    r = 0.5 * (lo + hi)
    if log_ratio > 0.0:
        # z + z^2 / 2^order = e^-L, the first two terms of g_order, for z = e^-y
        w = math.exp(-log_ratio)
        y0 = -math.log(2.0 * w / (1.0 + math.sqrt(1.0 + 4.0 * 2.0**-order * w)))
        if y_lo < y0 < y_hi:
            r = y0 * T
    # Divergent Newton slope at r -> 0 when the derivative order is <= 1.
    floor = _NEWTON_FLOOR_Y * T if order - 1.0 <= 1.0 else 0.0
    for _ in range(_MAX_ITER):
        y = r / T
        if 0.0 < y < SMALL_Y_SWITCH:
            g_order, g_lower = _bose_expansion(order, y).value, None
        else:  # the series route's pair, or bose_g's value where r / T underflows to 0
            g_order, g_lower = _bose_pair(order, y)
        phi = math.log(g_order) + log_ratio
        if abs(phi) <= _LOG_TOL:
            return r, g_lower
        if phi > 0.0:
            lo = r
        else:
            hi = r
        if hi - lo <= _XTOL_REL * hi:
            return 0.5 * (lo + hi), None
        newton = None
        if r > floor:
            if g_lower is None:
                g_lower = _bose_any_order(order - 1.0, y).value
            # d phi / dr = -g_(order-1)(r/T) / (T g_order(r/T))
            slope = -g_lower / (T * g_order)
            if slope != 0.0:
                newton = r - phi / slope
        r = newton if newton is not None and lo < newton < hi else 0.5 * (lo + hi)
    raise ConvergenceError(
        f"root finder did not converge in {_MAX_ITER} iterations "
        f"(bracket [{lo:.3e}, {hi:.3e}])"
    )
