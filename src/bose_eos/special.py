"""Bose function g_nu(y) and the zeta/Gamma helpers it needs.

The Bose function is the series

    g_nu(y) = sum_{n >= 1} exp(-n y) / n^nu ,      y = r / (k_B T) >= 0,

which reduces to zeta(nu) at y = 0 for nu > 1 and diverges there for
nu <= 1 (the signal for zero-temperature condensation).

Three routes cover every real order, none needing more than ~10^3 terms:

* y >= SMALL_Y_SWITCH: direct summation with a rigorous geometric tail bound;
* y < SMALL_Y_SWITCH: the small-argument (Robinson) expansion

      g_nu(y) = Gamma(1 - nu) y^(nu - 1) + sum_{k >= 0} (-y)^k zeta(nu - k) / k!

  whose terms fall by y / 2 pi per step, so about ten reach double
  precision; its zeta coefficients are cached per order;
* the same expansion for nu within _INTEGER_TOL of an integer n >= 1, with
  its two pole terms (the Gamma lead and k = n - 1) merged analytically.
  At nu = n this is the logarithmic form (J. E. Robinson, Phys. Rev. 83,
  678 (1951); D. C. Wood, Univ. of Kent TR 15-92 (1992))

      g_n(y) = (-y)^(n-1) / (n-1)! [H_(n-1) - ln y] + sum_{k != n-1} (-y)^k zeta(n - k) / k! .

Every evaluation returns an :class:`EvalResult` carrying an absolute-error
estimate (omitted terms plus a float round-off allowance), so callers can
assert accuracy instead of hoping for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .errors import DivergentValue, DomainError, PoleError

_EPS = float(np.finfo(np.float64).eps)

# Below this argument the small-argument expansion replaces the direct
# series, whose term count grows like 1/y (~800 terms at the switch).
SMALL_Y_SWITCH = 0.05

# Orders closer than this to an integer n >= 1 take the merged form: the
# expansion's Gamma(1 - nu) and zeta(nu - k) poles no longer cancel cleanly
# in double precision.
_INTEGER_TOL = 1e-6

# Expansion coefficients cached per order; terms fall by y / 2 pi < 0.008
# per step below the switch, so the sum stops long before this.
_KMAX_ADAPTIVE = 30

# Largest truncation bose_g_small_y accepts: its coefficients run to
# k_max + 1, and 1/k! is a normal double only through k = 170. Beyond that
# the coefficients lose precision, then vanish, then zeta(nu - k) overflows
# and the sum turns into nan.
_KMAX_LIMIT = 169

# Stieltjes constants: zeta(1 + eps) - 1/eps = sum_j (-1)^j gamma_j eps^j / j!.
_STIELTJES = (0.5772156649015329, -0.0728158454836767, -0.0096903631928723)
_ZETA_3 = 1.2020569031595942


@dataclass(frozen=True)
class EvalResult:
    """A value, an absolute-error estimate, and the number of terms used."""

    value: float
    est_error: float
    terms_used: int

    def __float__(self) -> float:
        return self.value


def zeta(s: float) -> float:
    """Riemann zeta function at real ``s`` != 1.

    Arguments below 1 are supported (analytic continuation); the pole at
    s = 1 raises :class:`PoleError`.
    """
    s = float(s)
    if s == 1.0:
        raise PoleError("zeta(s) has a pole at s = 1")
    return float(_sp.zeta(s))


def gamma(x: float) -> float:
    """Gamma function at real ``x``, rejecting the poles at 0, -1, -2, ...."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"Gamma(x) has a pole at x = {x:g}")
    return float(_sp.gamma(x))


def _is_near_integer(nu: float) -> bool:
    return abs(nu - round(nu)) < _INTEGER_TOL


def _series_terms_needed(nu: float, y: float, tol: float) -> int:
    """Smallest N with tail bound exp(-N y) max(1, N^-nu) / (1 - exp(-y)) < tol."""
    one_minus = -math.expm1(-y)  # 1 - e^-y, accurate for tiny y
    n = max(1.0, -math.log(tol * one_minus) / y)
    if nu < 0.0:
        # n^|nu| growth inflates the tail; a couple of fixed-point rounds settle it
        for _ in range(4):
            n = max(1.0, (-math.log(tol * one_minus) - nu * math.log(n)) / y)
    return int(math.ceil(n)) + 1


def _series_tail_bound(nu: float, y: float, n_terms: int) -> float:
    one_minus = -math.expm1(-y)
    n1 = n_terms + 1
    return math.exp(-n1 * y) / one_minus * max(1.0, n1 ** (-nu))


def _bose_series(nu: float, y: float) -> EvalResult:
    """Direct summation sum_n exp(-n y) n^-nu for y >= SMALL_Y_SWITCH."""
    n_terms = _series_terms_needed(nu, y, 1e-15)
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    value = float(np.sum(np.exp(-y * n) * n ** (-nu)))
    err = _series_tail_bound(nu, y, n_terms) + 4.0 * _EPS * abs(value)
    return EvalResult(value, err, n_terms)


@functools.lru_cache(maxsize=512)
def _expansion_constants(nu: float, count: int) -> tuple:
    """Per-order constants of the small-y expansion: (coeffs, lead, pair).

    coeffs[k] = zeta(nu - k) / k! for k < count and lead = Gamma(1 - nu),
    unless nu = n + eps with n >= 1 and |eps| < _INTEGER_TOL. Then lead and
    coefficient k = m = n - 1 both have a pole at eps = 0; writing the lead
    as -(-y)^m / m! exp(x) / eps with

        x = eps (ln y - psi(n)) + eps^2 (pi^2/6 - psi'(n)/2) - eps^3 psi''(n)/6

    their sum is (-y)^m / m! [(zeta(1 + eps) - 1/eps) - expm1(x) / eps], free
    of the pole. coeffs[m] is then 0, lead is None, and pair holds
    (m, eps, (-1)^m / m!, zeta(1 + eps) - 1/eps, c) with x = eps (ln y + c).
    The omitted O(eps^4) in x and O(eps^3) in the Stieltjes series are below
    1e-18.
    """
    n = round(nu)
    lead, pair, m = None, None, -1
    if n >= 1 and _is_near_integer(nu):
        m, eps = n - 1, nu - n
        scale = (-1.0) ** m / math.factorial(m) if m <= 170 else 0.0  # 1/m! underflows past 170
        js = range(1, n) if scale else ()
        g0, g1, g2 = _STIELTJES
        psi = math.fsum(1.0 / j for j in js) - g0
        x2 = math.fsum(1.0 / j**2 for j in js) / 2.0 + math.pi**2 / 12.0
        x3 = (_ZETA_3 - math.fsum(1.0 / j**3 for j in js)) / 3.0
        pair = (m, eps, scale, g0 - eps * (g1 - eps * g2 / 2.0), eps * (x2 + eps * x3) - psi)
    else:
        lead = gamma(1.0 - nu)
    coeffs = []
    inv_fact = 1.0
    for k in range(count):
        coeffs.append(0.0 if k == m else zeta(nu - k) * inv_fact)
        inv_fact /= k + 1
    return tuple(coeffs), lead, pair


def _bose_expansion(nu: float, y: float, k_max: int | None = None) -> EvalResult:
    """Small-argument expansion around y = 0, 0 < y < 2 pi.

    With ``k_max`` exactly the k = 0 .. k_max powers are summed and the
    first omitted term is the truncation estimate. Without it the sum stops
    once two consecutive terms are below round-off (one of them may sit on
    a trivial zero of zeta); later terms shrink by y / 2 pi per step, so
    those two bound the rest. The round-off allowance scales with the
    largest intermediate: the lead and the zeta sum cancel when nu sits
    near an integer.
    """
    count = _KMAX_ADAPTIVE if k_max is None else k_max + 2
    coeffs, lead, pair = _expansion_constants(nu, count)
    if pair is None:
        total = lead * y ** (nu - 1.0)
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
    power = 1.0  # (-y)^k
    previous = math.inf
    for k in range(count if k_max is None else k_max + 1):
        term = coeffs[k] * power
        total += term
        magnitude = max(magnitude, abs(term))
        power *= -y
        omitted = abs(term) + abs(previous)
        if k_max is None and omitted < _EPS * abs(total):
            break
        previous = term
    if k_max is not None:
        omitted = abs(coeffs[k_max + 1] * power)
    return EvalResult(total, omitted + 4.0 * _EPS * magnitude, k + 1)


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
    EvalResult whose ``est_error`` bounds the absolute error. The error is
    below 1e-12, except for orders nu = n + eps within ~1e-3 of an integer
    n >= 1 but outside _INTEGER_TOL, at y < SMALL_Y_SWITCH. There
    Gamma(1 - nu) y^(nu-1) and the k = n - 1 term, each about
    y^(n-1) / ((n-1)! |eps|), cancel and leave up to
    ~3e-16 y^(n-1) / ((n-1)! |eps|): 3e-10 near nu = 1 and 1e-11 near
    nu = 2 at |eps| = 1e-6.
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


def bose_g_small_y(nu: float, y: float, k_max: int) -> EvalResult:
    """Truncated small-argument expansion of g_nu(y), non-integer nu.

    Sums the Gamma(1 - nu) y^(nu-1) lead plus the k = 0 .. k_max powers of y;
    ``est_error`` is the first omitted term. Integer orders are rejected:
    their expansion has a logarithmic form, which ``bose_g`` uses
    internally but this truncated-expansion view does not expose.
    """
    nu = float(nu)
    y = float(y)
    if nu <= 0.0:
        raise DomainError(f"order must be positive, got nu={nu:g}")
    if _is_near_integer(nu):
        raise DomainError(
            f"small-argument expansion needs non-integer order, got nu={nu:g}"
        )
    if y <= 0.0:
        raise DomainError(f"expansion argument must be positive, got y={y:g}")
    if not 0 <= k_max <= _KMAX_LIMIT:
        raise DomainError(f"k_max must be in [0, {_KMAX_LIMIT}], got {k_max!r}")
    return _bose_expansion(nu, y, int(k_max))


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
