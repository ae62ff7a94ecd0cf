"""Bracketed Newton solve of the monotone gap equation.

Both constraint solvers reduce to one problem, which
``solve_bose_equation`` solves in one loop over the gap r: find r >= 0 with
``prefactor * g_order(r / T) = target``, the left side strictly decreasing
in r. It is solved in logs, as phi(y) = ln g_order(y) + L = 0 with
y = r / T and L = ln(prefactor / target), so a prefactor past the doubles
still has a root. As 0 < e^(-n y) n^(-order) <= e^(-n y) for order >= 0,
the bounds e^(-y) <= g_order(y) <= 1 / (e^y - 1) put y* in the closed-form
bracket [max(0, L), ln(1 + e^L)]; from L = CLASSICAL_Y on it is narrower
than a double resolves and y* = L. y* depends only on (order, L), so Newton
starts at a cubic Hermite interpolant of y as a function of L, from a
per-order table of L and dy/dL = g_order / g_(order-1) at 129 nodes uniform
in ln y over [1e-3, CLASSICAL_Y], built once per process from the loop's own
evaluators: the start never depends on what the cache held before. Where
that start leaves the bracket (y* < 1e-3, say) Newton starts at its middle.
Newton steps take the slope phi' = -g_(order-1) / g_order, with g_order from
the same iterate, and fall back to bisection whenever a step leaves the
bracket or the derivative order makes g_(order-1) blow up near r = 0. The
start is never returned as it is: one that already meets the stop takes a
Newton step first. On the series route (y >= 0.5) one Horner pass gives an
iterate both g_order and g_(order-1); below it each order's expansion sums
its own cached coefficients, to the term count its reach table gives, so
g_(order-1) is a second call, made only when a Newton step is taken. The
caller names the order of the conjugate g its state needs, and the solve
returns that g where the pass that verified r summed exactly that order: an
isobar's g_(order-1) from that pair, and an isochore's g_(order+1) from the
pair of order + 1 that its series-route passes after the start take instead
where (order + 1) - 1 rounds to order, so that their second sum is g_order.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_right

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

# The start table's nodes, uniform in ln y over [_START_Y_MIN, CLASSICAL_Y]:
# about 35 kB and 0.34 ms of Bose passes per order (2-vCPU host, Python 3.11).
_START_NODES, _START_Y_MIN = 129, 1e-3


@functools.lru_cache(maxsize=128)
def _start_table(order: float) -> tuple:
    """The solve's start data for one order: (L_i, cubics), L_i increasing.

    L_i = -ln g_order(y_i) at the nodes y_i. On [L_i, L_(i+1)], cubics[i] is
    (L_i, 1 / h, c_0, c_1, c_2, c_3) with h = L_(i+1) - L_i: the cubic Hermite
    interpolant y = c_0 + t (c_1 + t (c_2 + t c_3)), t = (L - L_i) / h, through
    y_i and y_(i+1) with the slopes dy/dL = g_order / g_(order-1) there.
    """
    step = math.log(CLASSICAL_Y / _START_Y_MIN) / (_START_NODES - 1)
    nodes = []
    for i in range(_START_NODES):
        y = _START_Y_MIN * math.exp(i * step)
        g_order, g_lower = _bose_pair(order, y)  # the expansion's value below SMALL_Y_SWITCH
        if g_lower is None:
            g_lower = _bose_any_order(order - 1.0, y).value
        nodes.append((-math.log(g_order), y, g_order / g_lower))
    cubics = []
    for (l_a, y_a, m_a), (l_b, y_b, m_b) in zip(nodes, nodes[1:]):
        h = l_b - l_a
        d_a, d_b, rise = h * m_a, h * m_b, y_b - y_a
        cubics.append((l_a, 1.0 / h, y_a, d_a, 3.0 * rise - 2.0 * d_a - d_b, d_a + d_b - 2.0 * rise))
    return tuple(node[0] for node in nodes), tuple(cubics)


def solve_bose_equation(
    order: float, log_ratio: float, T: float, conjugate: float | None = None
) -> tuple[float, float | None]:
    """Solve ``ln g_order(r / T) + log_ratio = 0`` for the gap r > 0.

    Returns (r, g): g is g_conjugate(r / T) where the series-route pass that
    verified r summed exactly the order ``conjugate``, else None. An isobar
    passes order - 1 for its density, an isochore order + 1 for its pressure;
    where conjugate - 1 == order in doubles, a series-route pass after the
    start is the pair of order conjugate, whose second sum is g_order.

    log_ratio is L = ln(prefactor / target), taken by the caller as a
    difference of logs, so it is finite also where the prefactor or the
    ratio leaves the doubles; a non-finite L is a ``DomainError``. Assumes
    the caller has already established that a positive root exists, i.e.
    prefactor * zeta(order) > target (the normal side of the transition).
    The solve stops, never at the start itself, at
    |ln(prefactor g_order / target)| <= _LOG_TOL, which
    holds the relative residual of the linear equation to about _LOG_TOL
    too, or once the bracket collapses; after _MAX_ITER iterates it raises
    ``ConvergenceError``. From L = CLASSICAL_Y on, the root is L itself and
    no Bose function is evaluated, also where g_order(y*) underflows.
    """
    if not math.isfinite(log_ratio):
        raise DomainError(
            f"gap equation log ratio L = ln(prefactor / target) = {log_ratio!r} is not finite"
        )
    if log_ratio >= CLASSICAL_Y:  # the bracket below is [L, L] in doubles
        return log_ratio * T, None
    y_lo = max(log_ratio, 0.0)
    y_hi = y_lo + math.log1p(math.exp(-abs(log_ratio)))  # ln(1 + e^L)
    lo, hi = y_lo * T, y_hi * T
    r = 0.5 * (lo + hi)
    nodes, cubics = _start_table(order)
    i = bisect_right(nodes, log_ratio)
    if 0 < i < _START_NODES:
        l_a, inv_h, c0, c1, c2, c3 = cubics[i - 1]
        t = (log_ratio - l_a) * inv_h
        y0 = c0 + t * (c1 + t * (c2 + t * c3))
        if y_lo < y0 < y_hi:
            r = y0 * T
    # Divergent Newton slope at r -> 0 when the derivative order is <= 1.
    floor = _NEWTON_FLOOR_Y * T if order - 1.0 <= 1.0 else 0.0
    # which sum of a pass is the conjugate's g: the first of the pair of order
    # conjugate, or the second of the pair of order `order`
    upper = conjugate is not None and conjugate - 1.0 == order
    lower = order - 1.0 == conjugate
    for i in range(_MAX_ITER):
        y = r / T
        g_upper = None
        if 0.0 < y < SMALL_Y_SWITCH:
            g_order, g_lower = _bose_expansion(order, y).value, None
        elif upper and i and y >= SMALL_Y_SWITCH:  # after the start: likely the last pass
            (g_upper, g_order), g_lower = _bose_pair(conjugate, y), None
        else:  # the series route's pair, or bose_g's value where r / T underflows to 0
            g_order, g_lower = _bose_pair(order, y)
        phi = math.log(g_order) + log_ratio
        if abs(phi) <= _LOG_TOL and i:  # a start that meets the stop takes a Newton step first
            return r, g_upper if upper else g_lower if lower else None
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
        # a Newton value on the bracket's end is kept: at large y the bracket is a
        # few ulps wide, the root next to its lower end
        if newton is not None and lo <= newton <= hi:
            r = newton
        else:
            r = 0.5 * (lo + hi)
    raise ConvergenceError(
        f"root finder did not converge in {_MAX_ITER} iterations "
        f"(bracket [{lo:.3e}, {hi:.3e}])"
    )
