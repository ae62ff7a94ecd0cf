"""Bracketed Newton root finding for the monotone gap equations.

Both constraint solvers reduce to one problem: find r >= 0 with
``prefactor * g_order(r / T) = target``, the left side strictly decreasing
in r. As 0 < e^(-n y) n^(-order) <= e^(-n y) for order >= 0, the bounds
e^(-y) <= g_order(y) <= 1 / (e^y - 1) put y* = r / T in the closed-form
bracket [max(0, L), ln(1 + e^L)] with L = ln(prefactor / target). Newton
steps use the exact derivative g_order' = -g_(order-1) and fall back to
bisection whenever a step leaves the bracket or the derivative order makes
g_(order-1) blow up near r = 0.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import ConvergenceError, DomainError
from .special import _bose_any_order, bose_g

# Bisection-only region: for derivative orders <= 1 the Newton slope
# diverges as r -> 0, so below this beta*r the plain bracket halving is used.
_NEWTON_FLOOR_Y = 1e-6

_MAX_ITER = 400
_FLOAT_MIN = sys.float_info.min


def find_root_decreasing(
    f: Callable[[float], float],
    df: Callable[[float], float] | None,
    lo: float,
    hi: float,
    *,
    ftol: float,
    xtol_rel: float = 4.0 * 2.220446049250313e-16,
    newton_floor: float = 0.0,
    max_iter: int = _MAX_ITER,
) -> float:
    """Root of strictly decreasing ``f`` on [lo, hi] with f(lo) > 0 > f(hi).

    Newton iterates are confined to the current bracket; any step that
    escapes it, lands below ``newton_floor``, or lacks a usable derivative
    is replaced by bisection. Terminates on |f| <= ftol or bracket collapse.
    """
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fx = f(x)
        if abs(fx) <= ftol:
            return x
        if fx > 0.0:
            lo = x
        else:
            hi = x
        if hi - lo <= xtol_rel * hi:
            return 0.5 * (lo + hi)
        x_new = None
        if df is not None and x > newton_floor:
            slope = df(x)
            if slope != 0.0:
                candidate = x - fx / slope
                if lo < candidate < hi:
                    x_new = candidate
        x = 0.5 * (lo + hi) if x_new is None else x_new
    raise ConvergenceError(
        f"root finder did not converge in {max_iter} iterations "
        f"(bracket [{lo:.3e}, {hi:.3e}])"
    )


def solve_bose_equation(
    order: float,
    prefactor: float,
    target: float,
    T: float,
    *,
    residual_rtol: float = 1e-12,
) -> float:
    """Solve ``prefactor * g_order(r / T) = target`` for the gap r > 0.

    Assumes the caller has already established that a positive root exists,
    i.e. prefactor * zeta(order) > target (the normal side of the
    transition), and takes the bracket from the logarithms of prefactor and
    target, which must be normal doubles (``DomainError`` otherwise). Past
    y* ~ 37 the bracket is narrower than a double resolves and its lower end
    is the root, also where g_order(y*) underflows.
    """
    if not (_FLOAT_MIN <= prefactor < math.inf and _FLOAT_MIN <= target < math.inf):
        raise DomainError(f"gap equation sides {prefactor!r}, {target!r} are not normal doubles")
    ftol = residual_rtol * target

    def residual(r: float) -> float:
        return prefactor * bose_g(order, r / T).value - target

    def residual_slope(r: float) -> float:
        # d/dr [g_order(r/T)] = -g_(order-1)(r/T) / T
        return -prefactor * _bose_any_order(order - 1.0, r / T).value / T

    log_ratio = math.log(prefactor) - math.log(target)  # L, in logs: the ratio may overflow
    y_lo = max(log_ratio, 0.0)
    y_hi = y_lo + math.log1p(math.exp(-abs(log_ratio)))  # ln(1 + e^L)
    # Divergent Newton slope at r -> 0 when the derivative order is <= 1.
    floor = _NEWTON_FLOOR_Y * T if order - 1.0 <= 1.0 else 0.0
    return find_root_decreasing(
        residual, residual_slope, y_lo * T, y_hi * T, ftol=ftol, newton_floor=floor
    )
