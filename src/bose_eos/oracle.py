"""Independent verification engines for the analytic modules.

Three cross-check tools that deliberately share no algorithmic code with
the implementations they verify: a discrete momentum sum over a periodic
box (whose L -> infinity limit must reproduce the thermodynamic density
formula), an Euler-Maclaurin series sum for the Bose function with its
own zeta evaluation, and finite-difference differentiation for
stationarity and thermodynamic-identity checks. Standard library only.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import Callable, NamedTuple

from .errors import ConvergenceError, DivergentValue, DomainError
from .gas import GasSpec, _all_normal, _scales, _spec_constraint

# Relative size below which the remaining mode tail is considered converged.
_TAIL_RTOL = 1e-12
# Largest per-axis cutoff the multiplicity construction will attempt.
_N_MAX_CAP = 256
# Largest x with a finite expm1(x); past it the occupation is 0.
_EXPM1_MAX = math.log(sys.float_info.max)


class _BoxSpec(NamedTuple):
    L: float
    d: int


class BoxSpec(_BoxSpec):
    """Cubic box with periodic boundary conditions, k_j = 2 pi n_j / L.

    d must be a small integer (the discrete sum enumerates integer mode
    vectors, unlike the analytic modules where d is a free real
    parameter). The sum takes the smallest cutoff whose omitted occupation
    is proven below 1e-13 of the cube's sum. A named tuple that validates
    its fields.
    """

    __slots__ = ()

    def __new__(cls, L: float, d: int):
        if not (isinstance(d, int) and 1 <= d <= 3):
            raise DomainError(f"box dimension must be an integer in 1..3, got {d!r}")
        if not (L > 0.0):
            raise DomainError(f"box edge must be positive, got L={L!r}")
        return super().__new__(cls, L, d)

    @classmethod
    def _make(cls, iterable) -> "BoxSpec":
        """Through __new__, so that _replace validates too."""
        return cls(*iterable)


def _mode_multiplicities(d: int, n_max: int) -> array:
    """Count integer vectors n in [-n_max, n_max]^d by s = |n|^2.

    Returns counts[s] for s = 0 .. d*n_max^2, the coefficients of
    (1 + 2 sum_(j <= n_max) x^(j^2))^d. The polynomial is packed into one
    Python int, 32 bits a coefficient, and raised to the power d exactly.
    No count reaches 2^32 ((2*256 + 1)^3 < 2^32 at the cutoff cap), so no
    slot carries into the next and the unpacked counts are exact.
    """
    axis = array("I", bytes(4 * (n_max * n_max + 1)))
    axis[0] = 1
    for j in range(1, n_max + 1):
        axis[j * j] = 2
    power = int.from_bytes(axis.tobytes(), sys.byteorder) ** d
    return array("I", power.to_bytes(4 * (d * n_max * n_max + 1), sys.byteorder))


def _cutoff(d: int, sigma: float, eps_scale: float, T: float, r: float) -> int:
    """Smallest n whose omitted occupation is proven <= 0.1 * _TAIL_RTOL of the cube's sum.

    An omitted vector lies on a shell max|n_j| = m > n, which holds
    (2m + 1)^d - (2m - 1)^d vectors, each with |n|^2 >= m^2; as 1/expm1
    falls with the energy, each occupies at most 1/expm1 at eps_scale m^sigma.
    Shells n + 1 .. 2n + 1 are summed so; from m = 2n + 2 on, the shells
    [m, 2m) hold fewer than (4m)^d vectors, and one such block's bound over
    the previous one's is at most q(m) = 2^d e^(-eps_scale (2^sigma - 1) m^sigma / T),
    which falls with m: once q <= 1/2 the blocks left add at most the last
    one. Inside the cube |n|^2 <= d m^2 on shell m, which bounds the sum
    from below. Occupations past the doubles count as 0, as in the sum.
    """

    def occupation(energy: float) -> float:
        x = (energy + r) / T
        return 1.0 / math.expm1(x) if x <= _EXPM1_MAX else 0.0

    def shell(m: int) -> int:
        return (2 * m + 1) ** d - (2 * m - 1) ** d

    inside = occupation(0.0)
    upper = [0.0]  # upper[m] bounds the occupation of shell m
    for n in range(1, _N_MAX_CAP + 1):
        inside += shell(n) * occupation(eps_scale * (d * n * n) ** (0.5 * sigma))
        for m in range(len(upper), 2 * n + 2):
            upper.append(shell(m) * occupation(eps_scale * m**sigma))
        limit = 0.1 * _TAIL_RTOL * inside
        tail = math.fsum(upper[n + 1 :])
        m = 2 * n + 2
        while tail <= limit and m < 2**60:  # (4m)^d stays a double; 2^60 is far past the cap
            block = (4 * m) ** d * occupation(eps_scale * m**sigma)
            if 2**d * math.exp(-eps_scale * (2.0**sigma - 1.0) * m**sigma / T) <= 0.5:
                if tail + 2.0 * block <= limit:
                    return n
                break
            tail += block
            m *= 2
    raise ConvergenceError(
        f"mode sum needs a cutoff past the cap n_max={_N_MAX_CAP}; "
        "box too large or temperature too high for the discrete oracle"
    )


def _box_sum(spec: GasSpec, L: float, T: float, r: float, n_max: int | None = None) -> float:
    """Total occupation over the mode cube [-n_max, n_max]^d, natural units.

    n_max = None takes the cube from ``_cutoff``. A mode energy scale
    (2 pi / L)^sigma / 2m past the doubles is a DomainError.
    """
    try:
        eps_scale = (2.0 * math.pi / L) ** spec.sigma / (2.0 * spec.mass)
    except OverflowError:
        eps_scale = math.inf
    if eps_scale == math.inf:  # inf * 0 would drop the k = 0 mode from the sum
        raise DomainError(
            f"mode energy (2 pi / L)^sigma / 2m leaves the doubles at box edge L={L!r} "
            f"(natural units), sigma={spec.sigma:g}, mass={spec.mass!r}"
        )
    if n_max is None:
        n_max = _cutoff(int(spec.d), spec.sigma, eps_scale, T, r)
    terms = []
    for s, count in enumerate(_mode_multiplicities(int(spec.d), n_max)):
        x = (eps_scale * s ** (spec.sigma / 2.0) + r) / T
        if count and x <= _EXPM1_MAX:
            terms.append(count * (1.0 / math.expm1(x)))
    # Exact accumulation: byte-reproducible in any order.
    return math.fsum(terms)


def finite_density(spec: GasSpec, box: BoxSpec, T: float, mu: float) -> float:
    """Density of the finite periodic box, (1/V) sum_k 1/(e^((eps(k)-mu)/k_B T) - 1).

    Includes the k = 0 term; requires mu < 0 strictly, since the zero-mode
    occupation diverges at mu = 0 (the finite-size shadow of condensation).
    Converges to the thermodynamic-limit density as L grows, which is the
    cross-check this oracle exists for.
    """
    if int(spec.d) != spec.d or not (1 <= int(spec.d) <= 3):
        raise DomainError(f"discrete sum needs integer d in 1..3, got d={spec.d!r}")
    if box.d != int(spec.d):
        raise DomainError(f"box dimension {box.d} does not match spec d={spec.d:g}")
    energy, length = _scales(spec)
    mu_nat = mu / energy
    L_nat = box.L / length
    if T <= 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    if mu_nat >= 0.0:
        raise DomainError(
            f"chemical potential must be negative, got mu={mu!r}: "
            "the k=0 occupation diverges at mu >= 0"
        )
    r_nat = -mu_nat

    total = _box_sum(spec, L_nat, T, r_nat)
    try:
        volume = L_nat**box.d
    except OverflowError:
        volume = math.inf
    if not _all_normal(volume):
        raise DomainError(
            f"box volume L^d = {volume!r} leaves the normal doubles at box edge L={box.L!r}, d={box.d}"
        )
    return _spec_constraint(spec, total / volume, 0)


# Bernoulli numbers B_2 .. B_20, used by the Euler-Maclaurin corrections.
_BERNOULLI_2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
)
# Terms summed directly before Euler-Maclaurin takes over at n = _EM_START.
_EM_START = 32
# Exp-sinh nodes for the tail integral, x = N + c u with u = e^(pi/2 sinh t):
# (u, h du/dt) at step h = 1/32 over |t| <= 4.5 (Takahasi and Mori 1974).
_EXP_SINH = tuple(
    (u, u * 0.5 * math.pi * math.cosh(k / 32.0) / 32.0)
    for k in range(-144, 145)
    for u in (math.exp(0.5 * math.pi * math.sinh(k / 32.0)),)
)
# Smallest y > 0 the series sum answers; below it the exp-sinh step no
# longer resolves both the algebraic scale N and the exponential scale 1/y.
_Y_FLOOR = 1e-9
_ZETA_S_MIN = -15.0


def _euler_maclaurin(nu: float, y: float) -> float:
    """sum_(n >= 1) e^(-n y) n^(-nu) by Euler-Maclaurin from n = N = 32.

    With f(x) = e^(-x y) x^(-nu): the head sum_(n < N) f(n), then f(N) times
    1/2 + (B_2..B_20 corrections + int_N^inf f) / f(N). At y = 0 the integral
    is N^(1-nu)/(nu-1), which continues zeta(nu) to nu >= 0; for y > 0 it is
    exp-sinh quadrature on x = N + c u, c = max(N, 1/y).
    """
    n = _EM_START
    head = math.fsum(math.exp(-k * y) * k ** (-nu) for k in range(1, n))
    f_n = math.exp(-n * y) * n ** (-nu)
    if f_n == 0.0:
        return head  # the tail underflows with f(N)
    if y == 0.0:
        integral = n / (nu - 1.0)  # N^(1-nu)/(nu-1) over f(N)
    else:
        c = max(n, 1.0 / y)
        integral = c * math.fsum(
            w * math.exp(-c * u * y) * (1.0 + c * u / n) ** (-nu) for u, w in _EXP_SINH
        )
    # Leibniz's rule: f^(m)(N) = (-1)^m m! f(N) sum_k y^k/k! * (nu)_(m-k)/((m-k)! N^(m-k)),
    # (nu)_i the rising factorial; every term has one sign.
    exp_taylor, rising = [1.0], [1.0]
    for k in range(1, 2 * len(_BERNOULLI_2K)):
        exp_taylor.append(exp_taylor[-1] * y / k)
        rising.append(rising[-1] * (nu + k - 1.0) / (k * n))
    corrections = [
        b2j / (2 * j) * math.fsum(exp_taylor[k] * rising[2 * j - 1 - k] for k in range(2 * j))
        for j, b2j in enumerate(_BERNOULLI_2K, start=1)
    ]
    return head + f_n * (0.5 + integral + math.fsum(corrections))


def zeta_dirichlet(s: float) -> float:
    """Riemann zeta by a direct Dirichlet sum plus an Euler-Maclaurin tail.

    For s < 0 the head sum grows like n^(1-s) and cancels against the
    tail, so that side is routed through the functional equation
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s) instead,
    where every factor stays O(1). Valid for s > -15, s != 1. Kept free
    of library special functions (stdlib math only) so it can stand as
    an independent reference value.
    """
    s = float(s)
    if s == 1.0:
        raise DomainError("zeta has a pole at s = 1")
    if s < _ZETA_S_MIN:
        raise DomainError(f"continuation implemented for s > {_ZETA_S_MIN:g}, got s={s!r}")
    if s < 0.0:
        if s == math.floor(s) and int(s) % 2 == 0:
            return 0.0  # trivial zeros; sin(pi s/2) only rounds to ~1e-16
        return (
            2.0**s
            * math.pi ** (s - 1.0)
            * math.sin(math.pi * s / 2.0)
            * math.gamma(1.0 - s)
            * _euler_maclaurin(1.0 - s, 0.0)
        )
    return _euler_maclaurin(s, 0.0)


def series_sum_highprec(nu: float, y: float) -> float:
    """sum_(n >= 1) e^(-n y)/n^nu to about 1e-15 relative, for y = 0 or y >= 1e-9.

    The Euler-Maclaurin sum of the zeta reference, with the tail integral
    by exp-sinh quadrature. It shares no route with the special-function
    module's evaluator (no expansion in y, no zeta(nu - k)), so the two
    can cross-check each other.
    """
    if nu <= 0.0:
        raise DomainError(f"order must be positive, got nu={nu!r}")
    if y < 0.0:
        raise DomainError(f"argument must be nonnegative, got y={y!r}")
    if y == 0.0:
        if nu <= 1.0:
            raise DivergentValue(f"sum diverges at y=0 for nu={nu:g} <= 1")
        return zeta_dirichlet(nu)
    if y < _Y_FLOOR:
        raise ConvergenceError(f"series oracle needs y >= {_Y_FLOOR:g}, got y={y:g}")
    return _euler_maclaurin(nu, y)


class DerivativeEstimate(NamedTuple):
    """A finite-difference derivative with a step-halving error estimate."""

    value: float
    est_error: float


_SIDES = ("central", "forward", "backward")


def finite_difference(
    fn: Callable[[float], float],
    x: float,
    h: float,
    side: str = "central",
    richardson: bool = False,
) -> DerivativeEstimate:
    """Second-order finite-difference derivative of fn at x.

    side selects the stencil: "central" (default) or the one-sided
    "forward"/"backward" variants for points at the edge of fn's domain.
    All stencils have O(h^2) error, so one Richardson step over h and h/2
    applies uniformly; without richardson the halved-step value is
    returned and the extrapolation gap becomes the error estimate.
    """
    if h <= 0.0:
        raise DomainError(f"step must be positive, got h={h!r}")
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")

    if side == "central":
        def stencil(step: float) -> float:
            return (fn(x + step) - fn(x - step)) / (2.0 * step)
    else:
        sign = 1.0 if side == "forward" else -1.0
        f0 = fn(x)

        def stencil(step: float) -> float:
            return (
                sign
                * (-3.0 * f0 + 4.0 * fn(x + sign * step) - fn(x + sign * 2.0 * step))
                / (2.0 * step)
            )

    coarse = stencil(h)
    fine = stencil(h / 2.0)
    extrapolated = (4.0 * fine - coarse) / 3.0
    if richardson:
        return DerivativeEstimate(value=extrapolated, est_error=abs(extrapolated - fine))
    return DerivativeEstimate(value=fine, est_error=abs(extrapolated - fine))
