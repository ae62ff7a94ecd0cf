"""Independent verification engines for the analytic modules.

Three cross-check tools that deliberately share no algorithmic code with
the implementations they verify: a discrete momentum sum over a periodic
box (whose L -> infinity limit must reproduce the thermodynamic density
formula), a brute-force compensated series summation for the Bose
function with its own zeta evaluation, and finite-difference
differentiation for stationarity and thermodynamic-identity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ConvergenceError, DivergentValue, DomainError
from .gas import GasSpec, _scales, _spec_constraint

if TYPE_CHECKING:
    import numpy as np

# Relative size below which the remaining mode tail is considered converged.
_TAIL_RTOL = 1e-12
# Largest per-axis cutoff the multiplicity construction will attempt.
_N_MAX_CAP = 256


@dataclass(frozen=True)
class BoxSpec:
    """Cubic box with periodic boundary conditions, k_j = 2 pi n_j / L.

    d must be a small integer (the discrete sum enumerates integer mode
    vectors, unlike the analytic modules where d is a free real
    parameter). n_max = None lets the sum grow its own cutoff until the
    omitted Boltzmann tail is below 1e-12 of the total.
    """

    L: float
    d: int
    n_max: int | None = None

    def __post_init__(self):
        if not (isinstance(self.d, int) and 1 <= self.d <= 3):
            raise DomainError(f"box dimension must be an integer in 1..3, got {self.d!r}")
        if not (self.L > 0.0):
            raise DomainError(f"box edge must be positive, got L={self.L!r}")
        if self.n_max is not None and self.n_max < 1:
            raise DomainError(f"mode cutoff must be >= 1, got n_max={self.n_max!r}")


def _mode_multiplicities(d: int, n_max: int) -> np.ndarray:
    """Count integer vectors n in [-n_max, n_max]^d by s = |n|^2.

    Returns counts[s] for s = 0 .. d*n_max^2. Each added axis shifts the
    counts so far by every square j^2 <= n_max^2 (twice for j > 0, for
    +-j) and adds them up, n_max + 1 array adds per axis. Every entry
    stays an exactly representable integer (no rounding), so the
    summation order downstream is the only thing that matters for
    reproducibility.
    """
    import numpy as np

    counts = np.ones(1)
    for _ in range(d):
        size = counts.size
        grown = np.zeros(size + n_max * n_max)
        grown[:size] = counts
        twice = 2.0 * counts
        for j in range(1, n_max + 1):
            grown[j * j : j * j + size] += twice
        counts = grown
    return counts


def _occupations(s_values: np.ndarray, eps_scale: float, sigma: float, r: float, T: float) -> np.ndarray:
    """Bose occupations 1/(e^((eps+r)/T) - 1) for eps = eps_scale * s^(sigma/2)."""
    import numpy as np

    x = (eps_scale * s_values ** (sigma / 2.0) + r) / T
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(x)


def _box_sum(spec: GasSpec, L: float, T: float, r: float, n_max: int) -> float:
    """Total occupation over the mode cube [-n_max, n_max]^d, natural units."""
    import numpy as np

    d = int(spec.d)
    counts = _mode_multiplicities(d, n_max)
    s = np.arange(counts.size, dtype=float)
    eps_scale = (2.0 * math.pi / L) ** spec.sigma / (2.0 * spec.mass)
    occ = _occupations(s, eps_scale, spec.sigma, r, T)
    # Fixed ascending-s order and exact accumulation: byte-reproducible.
    return math.fsum((counts * occ).tolist())


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

    if box.n_max is not None:
        total = _box_sum(spec, L_nat, T, r_nat, box.n_max)
        if box.n_max > 1:
            shell = total - _box_sum(spec, L_nat, T, r_nat, box.n_max - 1)
        else:
            shell = total
        if shell > _TAIL_RTOL * total:
            raise ConvergenceError(
                f"outermost mode shell still contributes {shell / total:.2e} "
                f"of the sum at n_max={box.n_max}; increase n_max"
            )
        n_used = box.n_max
    else:
        # Grow the cutoff until doubling it adds a negligible band; mode
        # energies increase monotonically and occupations decay at least
        # exponentially in energy, so the accepted band bounds the tail.
        n_used = 8
        total = _box_sum(spec, L_nat, T, r_nat, n_used)
        while True:
            if 2 * n_used > _N_MAX_CAP:
                raise ConvergenceError(
                    f"mode sum not converged at the cutoff cap n_max={_N_MAX_CAP}; "
                    "box too large or temperature too high for the discrete oracle"
                )
            wider = _box_sum(spec, L_nat, T, r_nat, 2 * n_used)
            n_used *= 2
            if wider - total <= 0.1 * _TAIL_RTOL * wider:
                total = wider
                break
            total = wider

    return _spec_constraint(spec, total / L_nat ** int(spec.d), 0)


# Bernoulli numbers B_2 .. B_20, used by the Euler-Maclaurin continuation.
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

_ZETA_S_MIN = -15.0


def _zeta_euler_maclaurin(s: float, n: int) -> float:
    """Dirichlet head plus Euler-Maclaurin tail; accurate for s >= 0."""
    head = math.fsum(k ** (-s) for k in range(1, n))
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** (-s)
    corrections = []
    rising = s  # (s)(s+1)...(s+2j-2)
    factorial = 2.0  # (2j)!
    for j, b2j in enumerate(_BERNOULLI_2K, start=1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
            factorial *= (2 * j - 1) * (2 * j)
        corrections.append(b2j / factorial * rising * n ** (-s - 2 * j + 1))
    return head + tail + math.fsum(corrections)


def zeta_dirichlet(s: float, n_direct: int = 24) -> float:
    """Riemann zeta by direct Dirichlet sum plus Euler-Maclaurin tail.

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
            * _zeta_euler_maclaurin(1.0 - s, n_direct)
        )
    return _zeta_euler_maclaurin(s, n_direct)


def series_sum_highprec(nu: float, y: float, tol: float = 1e-13) -> float:
    """Brute-force sum of e^(-n y)/n^nu, n >= 1, with exact accumulation.

    The term count comes from the closed-form tail bound
    e^(-N y)/(1 - e^(-y)) <= tol * (first term), fixed before summing;
    every term is then folded into one compensated fsum. Deliberately
    separate from the adaptive evaluator in the special-function module
    so the two implementations can cross-check each other.
    """
    if nu <= 0.0:
        raise DomainError(f"order must be positive, got nu={nu!r}")
    if y < 0.0:
        raise DomainError(f"argument must be nonnegative, got y={y!r}")
    if y == 0.0:
        if nu <= 1.0:
            raise DivergentValue(f"sum diverges at y=0 for nu={nu:g} <= 1")
        return zeta_dirichlet(nu)
    # e^(-Ny)/(1-e^(-y)) <= tol * e^(-y)  =>  N >= 1 + log(1/(tol*(1-e^(-y))))/y
    n_terms = max(8, math.ceil(1.0 - math.log(tol * (-math.expm1(-y))) / y))
    if n_terms > 1 << 26:
        raise ConvergenceError(
            f"brute-force oracle would need {n_terms} terms at y={y:g}; argument too small"
        )

    import numpy as np

    def terms():
        block = 1 << 16
        for start in range(1, n_terms + 1, block):
            n = np.arange(start, min(start + block, n_terms + 1), dtype=float)
            yield from (np.exp(-y * n) * n**-nu).tolist()

    return math.fsum(terms())


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
