"""Bose function g_nu(y) and the zeta/Gamma helpers it needs.

The Bose function is the series

    g_nu(y) = sum_{n >= 1} exp(-n y) / n^nu ,      y = r / (k_B T) >= 0,

which reduces to zeta(nu) at y = 0 for nu > 1 and diverges there for
nu <= 1 (the signal for zero-temperature condensation).

Two routes cover every real order:

* y >= SMALL_Y_SWITCH (= 0.5): the series itself, by Horner's rule in
  z = e^-y (one exp per call), with a rigorous geometric tail bound and a
  proven round-off bound. The powers n^-nu are cached per order as reversed
  Horner tables, one per term count N up to the count at the switch (72
  for nu >= 0, at most 81 for nu in (-1, 0)), so a pass of N terms takes
  table N whole. For every order >= 0 the count depends on y alone and is
  read from one cached table of the y at which it drops (_series_reach).
  So the gap solver takes g_nu and its Newton slope g_(nu-1) from one
  Horner pass with two accumulators (_bose_pair), over cached tables of
  (n^-nu, n^-(nu-1)) pairs, and an isochore's last pass takes g_(nu+1) for
  its pressure beside g_nu the same way;
* y < SMALL_Y_SWITCH: the small-argument (Robinson) expansion

      g_nu(y) = Gamma(1 - nu) y^(nu - 1) + sum_{k >= 0} (-y)^k zeta(nu - k) / k!

  by Horner in -y over zeta coefficients cached per order, its term count
  fixed before the sum by the order's reach table (at most 16 for nu in
  (-1, 8]), so g_nu and g_(nu-1) stay two calls here. For nu within
  _MERGE_TOL of an integer n >= 1 its two pole terms (the Gamma lead and
  k = n - 1) are merged analytically. At nu = n this is the logarithmic form
  (J. E. Robinson, Phys. Rev. 83, 678 (1951); D. C. Wood, Univ. of Kent
  TR 15-92 (1992))

      g_n(y) = (-y)^(n-1) / (n-1)! [H_(n-1) - ln y] + sum_{k != n-1} (-y)^k zeta(n - k) / k! .

zeta and Gamma need only the standard library: zeta is Borwein's
accelerated alternating series (P. Borwein, "An efficient algorithm for the
Riemann zeta function", CMS Conf. Proc. 27, 2000) from just below s = 0
up and the functional equation further down; Gamma is ``math.gamma``.

Every evaluation returns an :class:`EvalResult`, a named tuple (value,
est_error, terms_used) whose absolute-error estimate covers the omitted
terms plus a float round-off allowance, so callers can assert accuracy
instead of hoping for it. An argument at which g_nu leaves the doubles
(nu < 1 and y near the smallest doubles) raises :class:`DomainError`.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .errors import DivergentValue, DomainError, PoleError

_EPS = sys.float_info.epsilon
_CUT = _EPS / 8.0  # the small-y expansion's absolute truncation bound
_tuple_new = tuple.__new__  # builds an EvalResult without its Python-level __new__

# Below this argument the small-argument expansion replaces the direct
# series. At the switch the expansion sums 14 to 16 terms and the series
# 72 to 81 (nu in (-1, 8]). Warm calls, nu uniform in (-1, 8], best of 20
# rounds per y band of width 0.05 or 0.1: on y in [0.3, 0.5) the expansion
# takes 1.2-1.3 us and the series (over a table built for its count)
# 3.4-4.2 us, on [0.5, 1) the series 2.4-3.1 us (2-vCPU host, Python 3.11).
# Moving the switch changes bits.
SMALL_Y_SWITCH = 0.5

# From this argument on g_nu(y) = e^-y to double precision for every order
# nu >= 0: the n >= 2 terms add at most e^-y / (1 - e^-y) < eps / 2 of it.
# There the gas is classical (P = rho k_B T) and g_nu itself may underflow.
CLASSICAL_Y = 37.0

# Orders closer than this to an integer n >= 1 take the merged form: the
# expansion's Gamma(1 - nu) and zeta(nu - k) poles cancel to about
# 3e-16 / |nu - n| of y^(n-1) / (n-1)!, which stays below 3e-13 outside it.
_MERGE_TOL = 1e-3

# Stieltjes constants gamma_0 .. gamma_5, zeta(1 + eps) - 1/eps =
# sum_j (-1)^j gamma_j eps^j / j!; mpmath.stieltjes(j) at 40 digits, rounded.
_STIELTJES = (
    0.5772156649015329,
    -0.07281584548367673,
    -0.00969036319287232,
    0.002053834420303346,
    0.0023253700654673,
    0.0007933238173010627,
)

_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
# pi - float(pi), relative to pi: corrects (2 pi)^s for the rounding of pi.
_PI_REL_LO = 1.2246467991473532e-16 / math.pi


def _borwein_pairs(n: int) -> tuple:
    """Weights of Borwein's eta(s) = sum_(k < n) (-1)^k e_k (k + 1)^-s, in pairs.

    e_k = 1 - d_k / d_n with the integers
    d_k = n sum_(i <= k) (n + i - 1)! 4^i / ((n - i)! (2i)!); the error is
    about (3 + sqrt 8)^-n. Pair (k, k + 1), k even, is summed as
    e_k (a_k - a_(k+1)) + (e_k - e_(k+1)) a_(k+1) with a_k = (k + 1)^-s:
    two nonnegative terms for s >= 0, so no cancellation is left to fsum.
    Entries are (k + 1, ln(1 + 1/(k + 1)), e_k, e_k - e_(k+1)).
    """
    d, partial = 0, []
    for i in range(n + 1):
        d += n * math.factorial(n + i - 1) * 4**i // (math.factorial(n - i) * math.factorial(2 * i))
        partial.append(d)
    return tuple(
        (k + 1, math.log1p(1.0 / (k + 1)), (d - partial[k]) / d, (partial[k + 1] - partial[k]) / d)
        for k in range(0, n, 2)
    )


_BORWEIN = _borwein_pairs(24)


class EvalResult(NamedTuple):
    """A value, an absolute-error estimate, and the number of terms used.

    A named tuple: it unpacks as (value, est_error, terms_used) and equals
    the plain tuple of those.
    """

    value: float
    est_error: float
    terms_used: int

    def __float__(self) -> float:
        return self.value


def zeta(s: float) -> float:
    """Riemann zeta function at real ``s`` != 1.

    Arguments below 1 are supported (analytic continuation); the pole at
    s = 1 raises :class:`PoleError`. Accurate to a few ulp relative, also
    next to the trivial zeros at s = -2, -4, ....
    """
    s = float(s)
    if s == 1.0:
        raise PoleError("zeta(s) has a pole at s = 1")
    return _zeta(s)


def _eta(s: float) -> float:
    """Dirichlet eta(s) = (1 - 2^(1-s)) zeta(s) for s > -1e-3."""
    terms = []
    for j, log_step, e, de in _BORWEIN:
        a = j**-s
        terms += (e * a * -math.expm1(-s * log_step), de * (j + 1) ** -s)
    return math.fsum(terms)


@functools.lru_cache(maxsize=4096)
def _zeta(s: float) -> float:
    if s > -1e-3:
        # the paired series stays accurate a little below 0, where the
        # functional equation would meet the pole of zeta(1 - s)
        return _eta(s) / -math.expm1((1.0 - s) * _LN2)
    # zeta(s) = 2 sin(pi s / 2) (2 pi)^(s - 1) Gamma(1 - s) zeta(1 - s), with
    # each factor taken at the exact s or -s: 1 - s may round, and Gamma and
    # the pole of zeta(1 - s) would amplify that rounding.
    j = round(0.5 * s)
    r = 0.5 * s - j  # exact; sin(pi s / 2) = (-1)^j sin(pi r)
    if r == 0.0:
        return 0.0  # trivial zeros
    reflected = _eta(1.0 - s) / -math.expm1(s * _LN2)
    if s > -170.0:
        scale = _gamma_one_plus(-s) * _TWO_PI**s / _TWO_PI * (1.0 + (s - 1.0) * _PI_REL_LO)
    else:
        # Gamma(1 - s) overflows before zeta(s) does
        log_scale = math.lgamma(1.0 - s) + (s - 1.0) * math.log(_TWO_PI)
        scale = math.exp(log_scale) if log_scale < math.log(sys.float_info.max) else math.inf
    return 2.0 * (-1.0) ** j * math.sin(math.pi * r) * scale * reflected


# (zeta(k) - 1) / k for k = 2 .. 29: the series of ln Gamma(1 + z) below.
_LGAMMA_SERIES = tuple((_zeta(float(k)) - 1.0) / k for k in range(2, 30))


def _gamma_one_plus(x: float) -> float:
    """Gamma(1 + x) for 0 < x < 170 to about one ulp (math.gamma errs by up to ~4).

    Gamma(1 + x) = x (x - 1) ... (z + 1) Gamma(1 + z) with z = x - round(x):
    the product is exact in integers, and for |z| <= 1/2

        ln Gamma(1 + z) = (1 - gamma_0) z - ln(1 + z) + sum_(k >= 2) (zeta(k) - 1) (-z)^k / k

    has terms below 4^-k / k.
    """
    m = round(x)
    z = x - m
    p, q = x.as_integer_ratio()
    shifts = math.prod(p - i * q for i in range(m))  # q^m x (x - 1) ... (z + 1)
    series = math.fsum(c * (-z) ** k for k, c in enumerate(_LGAMMA_SERIES, start=2))
    log_gamma = (1.0 - _STIELTJES[0]) * z - math.log1p(z) + series
    return math.exp(log_gamma) * (shifts / q**m)


def gamma(x: float) -> float:
    """Gamma function at real ``x``, rejecting the poles at 0, -1, -2, ....

    Past x ~ 171.6 the value exceeds the doubles and is returned as inf.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"Gamma(x) has a pole at x = {x:g}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _series_terms_needed(nu: float, y: float, one_minus: float) -> int:
    """Smallest N with tail bound exp(-N y) max(1, N^-nu) / (1 - exp(-y)) < 1e-15.

    one_minus is 1 - exp(-y), taken by the caller as -expm1(-y).
    """
    log_tol = -math.log(1e-15 * one_minus)
    n = max(1.0, log_tol / y)
    if nu < 0.0:
        # n^|nu| growth inflates the tail; a couple of fixed-point rounds settle it
        for _ in range(4):
            n = max(1.0, (log_tol - nu * math.log(n)) / y)
    return int(math.ceil(n)) + 1


def _horner_table(nu: float, n_terms: int, pair: bool) -> tuple:
    """The series route's coefficients n^-nu, or (n^-nu, n^-(nu-1)) if pair, for n = n_terms .. 1.

    Reversed already, in the order Horner's rule takes them. Where n^-nu
    leaves the doubles (orders below about -97, reached only through
    bose_g_derivative) this is a DomainError.
    """
    down = range(n_terms, 0, -1)
    try:
        return tuple((n**-nu, n ** -(nu - 1.0)) for n in down) if pair else tuple(n**-nu for n in down)
    except OverflowError:
        raise DomainError(
            f"the Bose series of order nu={nu!r} leaves the doubles: n^-nu overflows at n = {n_terms}"
        ) from None


@functools.cache
def _series_reach() -> tuple:
    """(top, reach): for orders >= 0 a series pass at y takes top - bisect_right(reach, y) terms.

    There _series_terms_needed is ceil(max(1, l(y) / y)) + 1 with
    l(y) = -ln(1e-15 (1 - e^-y)), a count that depends on y alone: top at
    y = SMALL_Y_SWITCH, falling by one where l(y) / y reaches each integer
    m = top - 2 .. 1. reach holds those y, ascending, each the fixed point of
    y = l(y) / m moved by ulps to the least double at which the count is at
    most m + 1, so the table gives _series_terms_needed's count bit for bit.
    Built on first use (70 entries, about 0.3 ms), never at import.
    """

    def count(y: float) -> int:
        return _series_terms_needed(0.0, y, -math.expm1(-y))

    top, reach = count(SMALL_Y_SWITCH), []
    for m in range(top - 2, 0, -1):
        y = SMALL_Y_SWITCH
        for _ in range(64):  # contracts by 1 / (m (e^y - 1)) < 0.03 a round: 11 rounds at most
            y, last = -math.log(1e-15 * -math.expm1(-y)) / m, y
            if y == last:
                break
        while count(y) <= m + 1:
            y = math.nextafter(y, 0.0)
        while count(y) > m + 1:
            y = math.nextafter(y, math.inf)
        reach.append(y)
    return top, tuple(reach)


@functools.lru_cache(maxsize=512)
def _series_powers(nu: float, pair: bool = False) -> tuple:
    """The order's Horner tables per term count: entry n is _horner_table(nu, n, pair).

    For n up to the count at y = SMALL_Y_SWITCH, which no larger y exceeds:
    each step of _series_terms_needed is monotone in y, so the count falls as
    y grows, in doubles too. Each entry is the last n of the longest, the
    same coefficients in the same order, cut once so a pass need not slice.
    """
    n_terms = _series_terms_needed(nu, SMALL_Y_SWITCH, -math.expm1(-SMALL_Y_SWITCH))
    table = _horner_table(nu, n_terms, pair)
    return tuple(table[n_terms - n :] for n in range(n_terms + 1))


def _bose_series(nu: float, y: float) -> EvalResult:
    """z (a_1 + z (a_2 + ... + z a_N)) by Horner, z = e^-y, a_n = n^-nu, y >= SMALL_Y_SWITCH.

    All a_n and z are positive, so Horner rounds term n by at most gamma_2n
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1),
    and z and a_n, each within an ulp, add (n + 1) eps. The error is below
    (2 m + 2) eps of the value, m the term-weighted mean of n: at most N, and
    at most 1 / (1 - z) for nu >= 0, where a_n falls with n. Past y ~ 708, z
    and the last product are subnormal and round by half an ulp each.
    """
    z = math.exp(-y)
    one_minus = -math.expm1(-y)
    if nu >= 0.0:
        top, reach = _series_reach()
        n_terms = top - bisect_right(reach, y)
    else:  # the n^|nu| growth makes the count depend on the order too
        n_terms = _series_terms_needed(nu, y, one_minus)
    value = 0.0
    for a in _series_powers(nu)[n_terms]:
        value = value * z + a
    value *= z
    n1 = n_terms + 1
    tail = math.exp(-n1 * y) / one_minus * max(1.0, n1 ** (-nu))
    mean_n = 1.0 / one_minus if nu >= 0.0 else n_terms
    return _tuple_new(EvalResult, (value, tail + (2.0 * mean_n + 2.0) * _EPS * value + 1e-323, n_terms))


def _tail_bound(nu: float, n: int) -> float:
    """A bound on sum_(k >= n) |zeta(nu - k)| / k!, or inf: the expansion's tail.

    For k >= k0 = max(n, floor(nu) + 2), s = nu - k <= -1 and the functional
    equation gives |zeta(s)| / k! <= b_k = 2 zeta(2) (2 pi)^(s - 1)
    Gamma(1 - s) / k!, where b_(k+1) / b_k = (k + 1 - nu) / (2 pi (k + 1)) is
    at most its value at k0, or 1 / 2 pi. The k in [n, k0) have s > -1 and
    |zeta(s)| < 2000 off the merged pole, so they add less than 4000 / n!.
    """
    k0 = max(n, math.floor(nu) + 2)
    ratio = max(1.0, (k0 + 1.0 - nu) / (k0 + 1.0)) / _TWO_PI
    log_b = (nu - k0 - 1.0) * math.log(_TWO_PI) + math.lgamma(k0 + 1.0 - nu) - math.lgamma(k0 + 1.0)
    if ratio >= 1.0 or log_b > 700.0:
        return math.inf
    return 3.3 * math.exp(log_b) / (1.0 - ratio) + (4000.0 / math.factorial(n) if k0 > n else 0.0)


@functools.lru_cache(maxsize=512)
def _expansion_constants(nu: float) -> tuple:
    """Per-order constants of the small-y expansion: (tables, reach, weight, lead, pair).

    tables[K - 1] holds c_(K-1) .. c_0, c_k = zeta(nu - k) / k!, in Horner's
    order, for K up to N, the fewest terms whose tail bound (_tail_bound) has
    T_N SMALL_Y_SWITCH^N <= _CUT / 2. For y < 1 the terms from K on add at
    most y^K S_K, S_K = T_N + sum_(K <= k < N) |c_k|, so K terms serve y up to
    reach[K - 1] = (_CUT / S_K)^(1/K), raised to the largest before it
    (reach[N - 1] > 1/2). weight = sum_k (k + 1) |c_k| 2^-k.
    lead = Gamma(1 - nu), unless nu = n + eps with n >= 1 and
    |eps| < _MERGE_TOL. Then lead and coefficient k = m = n - 1 both have a
    pole at eps = 0; writing the lead as -(-y)^m / m! exp(x) / eps with

        x = eps (ln y - psi(n)) + sum_(p >= 2) (zeta(p) + (-1)^p H_m^(p)) eps^p / p,

    the series of ln(pi eps / sin(pi eps)) - ln(Gamma(n + eps) / Gamma(n))
    with H_m^(p) = sum_(j <= m) j^-p, their sum is
    (-y)^m / m! [(zeta(1 + eps) - 1/eps) - expm1(x) / eps], free of the pole.
    c_m is then 0, lead is None, and pair holds
    (m, eps, (-1)^m / m!, zeta(1 + eps) - 1/eps, c) with x = eps (ln y + c).
    x runs through eps^6 and the Stieltjes series through gamma_5; the
    omitted terms are below 1e-18 at |eps| = 1e-3.
    """
    n = round(nu)
    lead, pair, m = None, None, -1
    if n >= 1 and abs(nu - n) < _MERGE_TOL:
        m, eps = n - 1, nu - n
        scale = (-1.0) ** m / math.factorial(m) if m <= 170 else 0.0  # 1/m! underflows past 170
        js = range(1, n) if scale else ()
        tail = 0.0  # c + psi(n), by Horner in eps
        for p in range(6, 1, -1):
            tail = (zeta(p) + (-1) ** p * math.fsum(j**-p for j in js)) / p + eps * tail
        psi = math.fsum(1.0 / j for j in js) - _STIELTJES[0]
        zeta_regular = 0.0
        for j in range(len(_STIELTJES) - 1, -1, -1):
            zeta_regular = (-1) ** j * _STIELTJES[j] / math.factorial(j) + eps * zeta_regular
        pair = (m, eps, scale, zeta_regular, eps * tail - psi)
    else:
        lead = gamma(1.0 - nu)
    fits = (k for k in range(1, 101) if _tail_bound(nu, k) * SMALL_Y_SWITCH**k <= _CUT / 2.0)
    n_terms = next(fits, None)
    if n_terms is None:  # orders below about -70, where g_nu nears the top of the doubles
        raise DomainError(f"the small-y expansion of order nu={nu!r} needs over 100 terms")
    coeffs = [0.0 if k == m else zeta(nu - k) / math.factorial(k) for k in range(n_terms)]
    size, reach, weight = _tail_bound(nu, n_terms), [], 0.0
    for k in range(n_terms - 1, -1, -1):  # size is S_(k+1)
        reach.append((_CUT / size) ** (1.0 / (k + 1)))
        size += abs(coeffs[k])
        weight += (k + 1) * abs(coeffs[k]) * SMALL_Y_SWITCH**k
    tables = tuple(tuple(coeffs[k::-1]) for k in range(n_terms))
    return tables, tuple(itertools.accumulate(reversed(reach), max)), weight, lead, pair


def _bose_expansion(nu: float, y: float) -> EvalResult:
    """Small-argument expansion around y = 0, 0 < y < SMALL_Y_SWITCH.

    The reach table fixes the term count K, and the omitted terms add at
    most _CUT. Step k of Horner's rule in -y rounds a product and a sum, and
    y^k scales both, so to first order the sum rounds by at most
    eps sum_k (k + 1) |c_k| y^k <= eps weight. The allowance
    4 eps max(lead magnitude, weight) also covers the final sum, the lead
    (which cancels against the zeta sum when nu sits near an integer) and
    the coefficients' few ulp.
    """
    tables, reach, weight, lead, pair = _expansion_constants(nu)
    if pair is None:
        try:
            total = lead * y ** (nu - 1.0)
        except OverflowError:
            raise DomainError(
                f"g_nu(y) leaves the doubles at nu={nu!r}, y={y!r}: y^(nu - 1) overflows"
            ) from None
        # y^(nu-1) carries the rounding of its exponent, amplified by ln y
        magnitude = abs(total) * (1.0 + abs((nu - 1.0) * math.log(y)))
    else:
        m, eps, scale, zeta_regular, c = pair
        log_term = math.log(y) + c
        # expm1(x) / eps, which tends to ln y - psi(n) as eps -> 0
        lead = math.expm1(eps * log_term) / eps if eps else log_term
        scale *= y**m
        total = scale * (zeta_regular - lead)
        magnitude = abs(scale) * (abs(zeta_regular) + abs(lead))
    k = bisect_left(reach, y)
    x = -y
    value = 0.0
    for coeff in tables[k]:
        value = value * x + coeff
    if weight > magnitude:
        magnitude = weight
    return _tuple_new(EvalResult, (total + value, _CUT + 4.0 * _EPS * magnitude, k + 1))


def _bose_any_order(nu: float, y: float) -> EvalResult:
    """g_nu(y) for y > 0 and any real order (negative orders allowed).

    Internal: used directly by the derivative recurrence, which needs orders
    below the public nu > 0 domain.
    """
    if y < SMALL_Y_SWITCH:
        return _bose_expansion(nu, y)
    return _bose_series(nu, y)


def bose_g(nu: float, y: float) -> EvalResult:
    """Bose function g_nu(y) for nu > 0, y >= 0.

    Parameters
    ----------
    nu : order; must be positive. At y = 0 additionally nu > 1, otherwise
        the series diverges (``DivergentValue``).
    y : nonnegative argument r / (k_B T). Negative y would mean mu > 0,
        which is thermodynamically forbidden (``DomainError``).

    Returns
    -------
    EvalResult whose ``est_error`` bounds the absolute error, which is
    below 1e-12 of max(1, g_nu(y)) for every order.
    """
    nu = float(nu)
    y = float(y)
    if nu <= 0.0:
        raise DomainError(f"Bose function order must be positive, got nu={nu:g}")
    if y < 0.0:
        raise DomainError(f"Bose function argument must be >= 0, got y={y:g}")
    if y == 0.0:
        if nu <= 1.0:
            raise DivergentValue(
                f"g_nu(0) diverges for nu <= 1 (nu={nu:g}); this is the "
                "zero-temperature-condensation signal"
            )
        value = zeta(nu)
        return EvalResult(value, 4.0 * _EPS * abs(value), 0)
    return _bose_any_order(nu, y)


def _bose_pair(nu: float, y: float) -> tuple:
    """(g_nu(y), g_(nu-1)(y)) on the series route, (g_nu(y), None) elsewhere.

    On the series route (y >= SMALL_Y_SWITCH) with nu >= 1 both sums come
    from one Horner pass with two accumulators over a cached table of
    (n^-nu, n^-(nu-1)) pairs, cut to the count _series_reach gives: for
    orders >= 0 that count does not depend on the order, so each sum is bit
    for bit _bose_series'. Elsewhere a caller
    that needs g_(nu-1) takes it from _bose_any_order: each order's
    expansion has its own coefficients and reach table.
    """
    if y < SMALL_Y_SWITCH or nu < 1.0:
        return bose_g(nu, y).value, None
    z = math.exp(-y)
    top, reach = _series_reach()
    value = value_lower = 0.0
    for a, b in _series_powers(nu, True)[top - bisect_right(reach, y)]:
        value = value * z + a
        value_lower = value_lower * z + b
    return value * z, value_lower * z


def bose_g_derivative(nu: float, y: float) -> EvalResult:
    """d g_nu / d y = -g_(nu-1)(y).

    Finite whenever nu > 2 or y > 0; at y = 0 with nu - 1 <= 1 the value
    diverges (``DivergentValue``). Orders nu - 1 <= 0 are fine for y > 0.
    """
    nu = float(nu)
    y = float(y)
    if y < 0.0:
        raise DomainError(f"argument must be >= 0, got y={y:g}")
    if y == 0.0:
        if nu - 1.0 <= 1.0:
            raise DivergentValue(
                f"dg_nu/dy at y=0 diverges for nu <= 2 (nu={nu:g})"
            )
        value = -zeta(nu - 1.0)
        return EvalResult(value, 4.0 * _EPS * abs(value), 0)
    inner = _bose_any_order(nu - 1.0, y)
    return EvalResult(-inner.value, inner.est_error, inner.terms_used)
