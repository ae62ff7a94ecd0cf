"""The gas model: dispersion epsilon(k) = (hbar^2 / 2m) k^sigma in d dimensions.

Holds the closed-form geometric and thermal prefactors every solver needs:
the thermal wavelength, its temperature-independent companion lambda_0, and
the dimensionless density-of-states prefactor A(d, sigma) that equals 1 for
quadratic dispersion in any dimension.

All internal computation is done in natural units (hbar = k_B = 1). SI
differs from them only by an energy scale and a length scale (see
``_scales``): mass stays in kilograms and temperature in kelvin, so a public
function reads d, sigma, mass and T as given and converts only energies,
densities and pressures, once on the way in and once on the way out, the
last two by one rule for both directions (``_convert``). For sigma != 2 that
choice of base units fixes the SI value of the stiffness hbar^2 / 2m, which is
k_B^(1 - sigma/2) hbar^sigma / 2m.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError, ZeroTemperatureBEC
from .special import _TWO_PI, gamma, zeta

HBAR_SI = 1.054571817e-34  # J s
KB_SI = 1.380649e-23  # J / K

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_LN_2PI = math.log(2.0 * math.pi)
_LN_MAX = math.log(sys.float_info.max)
_FLOAT_MIN = sys.float_info.min

NATURAL = "natural"
SI = "si"


class _GasSpec(NamedTuple):
    d: float
    sigma: float
    mass: float
    units: str


class GasSpec(_GasSpec):
    """Physical model record, a named tuple that validates its fields.

    d : spatial dimension, any positive real (the formulas are analytic in d)
    sigma : dispersion exponent, 0 < sigma <= 2
    mass : particle mass in the chosen unit system
    units : "natural" (hbar = k_B = 1) or "si" (kg, K, m^-d, J/m^d)
    """

    __slots__ = ()

    def __new__(cls, d: float, sigma: float, mass: float = 1.0, units: str = NATURAL):
        if not d > 0.0:
            raise DomainError(f"dimension must be positive, got d={d!r}")
        if not 0.0 < sigma <= 2.0:
            raise DomainError(f"dispersion exponent must satisfy 0 < sigma <= 2, got {sigma!r}")
        if not mass > 0.0:
            raise DomainError(f"mass must be positive, got {mass!r}")
        if units not in (NATURAL, SI):
            raise DomainError(f"units must be 'natural' or 'si', got {units!r}")
        return super().__new__(cls, d, sigma, mass, units)

    @classmethod
    def _make(cls, iterable) -> "GasSpec":
        """Through __new__, so that _replace validates too."""
        return cls(*iterable)

    @property
    def d_over_sigma(self) -> float:
        return self.d / self.sigma


def _scales(spec: GasSpec) -> tuple[float, float]:
    """(E0, L0): the natural energy and length units in ``spec``'s units.

    Natural specs give (1, 1). SI keeps the kilogram and the kelvin as base
    units and fixes hbar = k_B = 1, so mass and temperature need no
    conversion; E0 = k_B * 1 K in joules and L0 = hbar / sqrt(E0 * 1 kg) in
    metres. An energy enters as e / E0, a density as rho L0^d and a pressure
    as P L0^d / E0, and each leaves the inverse way.
    """
    if spec.units == NATURAL:
        return 1.0, 1.0
    return KB_SI, HBAR_SI / math.sqrt(KB_SI)


def thermal_wavelength(spec: GasSpec, T: float) -> float:
    """lambda_T = (2 pi hbar^2 / (m k_B T))^(1/sigma); scales as T^(-1/sigma)."""
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    _, length = _scales(spec)
    return (2.0 * math.pi / (spec.mass * T)) ** (1.0 / spec.sigma) * length


def lambda0(spec: GasSpec) -> float:
    """lambda_T * T^(1/sigma) = (2 pi hbar^2 / (m k_B))^(1/sigma).

    Temperature independent; carries units length * temperature^(1/sigma).
    """
    _, length = _scales(spec)
    return (2.0 * math.pi / spec.mass) ** (1.0 / spec.sigma) * length


def prefactor_A(d: float, sigma: float) -> float:
    """Dimensionless prefactor A(d, sigma) of the momentum-space measure.

    A(d, sigma) = 2^(1 - d + 2d/sigma) Gamma(d/sigma)
                  / (sigma pi^(d (1/2 - 1/sigma)) Gamma(d/2)),

    with A(d, 2) = 1 for every d.
    """
    d = float(d)
    sigma = float(sigma)
    if not d > 0.0:
        raise DomainError(f"dimension must be positive, got d={d!r}")
    if not 0.0 < sigma <= 2.0:
        raise DomainError(f"need 0 < sigma <= 2, got sigma={sigma!r}")
    two_power = 1.0 - d + 2.0 * d / sigma
    pi_power = d * (0.5 - 1.0 / sigma)
    try:
        a = 2.0**two_power * gamma(d / sigma) / (sigma * math.pi**pi_power * gamma(d / 2.0))
    except OverflowError:
        a = math.nan
    if 0.0 < a < math.inf:
        return a
    # The Gamma functions or powers left the doubles (d=171, sigma=1 gives
    # Gamma(171) 2^172, d=400 gives Gamma(200)); A itself may not have.
    log_a = _log_prefactor_A(d, sigma)
    if log_a > _LN_MAX:
        raise DomainError(f"A(d, sigma) = e^{log_a:.6g} exceeds the double range (d={d!r}, sigma={sigma!r})")
    return math.exp(log_a)


def _log_prefactor_A(d: float, sigma: float) -> float:
    """ln A(d, sigma) through lgamma, finite wherever d > 0 and 0 < sigma <= 2."""
    return (
        (1.0 - d + 2.0 * d / sigma) * _LN2
        + math.lgamma(d / sigma)
        - math.log(sigma)
        - d * (0.5 - 1.0 / sigma) * _LN_PI
        - math.lgamma(d / 2.0)
    )


def _prefactor(spec: GasSpec, T: float, k: int, a: float | None = None) -> tuple[float, float]:
    """(lambda_T^-d A, ln(T^k lambda_T^-d A)) in natural units; ``a`` is A(d, sigma) if held.

    T^k lambda_T^-d A is the prefactor of g_(d/sigma + k) in the density
    (k = 0) or pressure (k = 1) constraint, which the gap solver takes in
    logs. The log is that of the product where the product is a normal
    double, and a sum of logs where it leaves them (T = 1e250 at
    d/sigma = 1.5, or A(3000, 1) = e^15346). Where A leaves the doubles,
    lambda_T^-d A is the exponential of that sum at k = 0; a product or sum
    past the doubles gives inf, which the caller's value then reports.
    """
    d, sigma, mass, _ = spec
    try:
        pref = (mass * T / _TWO_PI) ** (d / sigma) * (prefactor_A(d, sigma) if a is None else a)
        pref_k = T * pref if k else pref
        if _FLOAT_MIN <= pref_k < math.inf:
            return pref, math.log(pref_k)
    except OverflowError:
        pref = math.inf
    except DomainError:  # A past the doubles: lambda_T^-d A from the sum of logs below
        pref = None
    log_a = _log_prefactor_A(d, sigma) if a is None else math.log(a)
    log_thermal = d / sigma * (math.log(mass) + math.log(T) - _LN_2PI)
    if pref is None:
        pref = math.exp(log_thermal + log_a) if log_thermal + log_a <= _LN_MAX else math.inf
    return pref, k * math.log(T) + log_thermal + log_a


def _all_normal(*values: float) -> bool:
    """Whether every value is a finite double at or above sys.float_info.min.

    A subnormal intermediate keeps only a few bits (L0^d at d = 14 in SI),
    so the T_c formulas take the log form unless this holds.
    """
    return all(_FLOAT_MIN <= v < math.inf for v in values)


def _unit_map(spec: GasSpec, k: int) -> tuple[float, float, float]:
    """(E0^k, L0^d, L0^(d/2)), what _convert takes once per request; k = 1 for a pressure.

    A length factor outside the normal doubles is NaN: in SI, L0^d is
    subnormal past d = 13.64 and L0^(d/2) past d = 27.29.
    """
    energy, length = _scales(spec)
    powers = length**spec.d, length ** (0.5 * spec.d)
    full, half = (p if p >= _FLOAT_MIN else math.nan for p in powers)
    return energy**k, full, half


def _convert(units: tuple[float, float, float], x: float, inward: bool) -> float:
    """x L0^d / E0^k in natural units (inward), or x E0^k / L0^d in spec units.

    ``units`` is _unit_map(spec, k). Where L0^d and the first product are
    normal doubles this is the plain product. Elsewhere the steps L0^(d/2),
    E0^k, L0^(d/2) act on the mantissa of x, each moved by 2^512 away from
    the side its factor pushes it, so that every step rounds a normal double
    once; one ldexp puts the exponent back (inf past the doubles). A map
    with neither length factor is a DomainError, and so is an inward result
    outside the normal doubles.
    """
    energy, full, half = units
    value = x * full if inward else x * energy
    if _FLOAT_MIN <= value < math.inf and full == full:
        value = value / energy if inward else value / full
    elif half != half:  # and so L0^d, the smaller power of L0 < 1
        raise DomainError(
            "L0^d and L0^(d/2) leave the normal doubles: no density or pressure converts"
        )
    else:
        mantissa, exponent = math.frexp(x)
        for factor, multiply in ((half, inward), (energy, not inward), (half, inward)):
            shift = 512 if (factor < 1.0) == multiply else -512
            step = math.ldexp(mantissa, shift)
            mantissa, moved = math.frexp(step * factor if multiply else step / factor)
            exponent += moved - shift
        try:
            value = math.ldexp(mantissa, exponent)
        except OverflowError:
            value = math.copysign(math.inf, mantissa)
    if inward and not _FLOAT_MIN <= value < math.inf:
        raise DomainError(f"{x!r} is {value!r} in natural units, outside the normal doubles")
    return value


def _natural_constraint(spec: GasSpec, value: float, k: int) -> float:
    """A density (k = 0) or pressure (k = 1) in natural units: value L0^d / E0^k."""
    return _convert(_unit_map(spec, k), value, True)


def _spec_constraint(spec: GasSpec, natural: float, k: int) -> float:
    """A natural density (k = 0) or pressure (k = 1) in spec units: natural E0^k / L0^d."""
    return _convert(_unit_map(spec, k), natural, False)


def _transition(spec: GasSpec, value: float, k: int) -> tuple:
    """(T_c, value in natural units, A(d, sigma)) at a density (k = 0) or pressure (k = 1).

    T_c is the r = 0 boundary of value = T^k lambda_T^-d A g_(d/sigma + k)(r / T),
    taken in logs where the direct product leaves the normal doubles; a T_c
    past the doubles is a DomainError. The natural value and A, fixed for
    every T of a solve, are None where they leave the doubles: a solve then
    computes the natural value again, which raises with the solve's state,
    and takes lambda_T^-d A from logs (``_prefactor``).
    """
    name = ("rho", "P")[k]
    if not value > 0.0:
        raise DomainError(f"{('density', 'pressure')[k]} must be positive, got {name}={value!r}")
    if not k and spec.d <= spec.sigma:
        raise ZeroTemperatureBEC(
            f"d = {spec.d:g} <= sigma = {spec.sigma:g}: condensation only at T = 0"
        )
    nu = spec.d_over_sigma
    try:
        natural = _natural_constraint(spec, value, k)
    except DomainError:  # value L0^d / E0^k past the normal doubles
        natural = None
    try:
        a = prefactor_A(spec.d, spec.sigma)
    except DomainError:  # A(3000, 1) = e^15346
        a = None
    direct = (math.nan,)
    if natural is not None and a is not None:
        try:
            if k:
                lam0_d = (2.0 * math.pi / spec.mass) ** (spec.d / spec.sigma)
                bracket = lam0_d * natural / (zeta(1.0 + nu) * a)
                tc = bracket ** (spec.sigma / (spec.d + spec.sigma))
                direct = (lam0_d, bracket, tc)
            else:
                bracket = natural / (a * zeta(nu))
                tc = (2.0 * math.pi / spec.mass) * bracket ** (spec.sigma / spec.d)
                direct = (bracket, tc)
        except OverflowError:  # (2 pi)^750 at d = 1500, sigma = 2
            pass
    if _all_normal(*direct):
        return tc, natural, a
    # value L0^d / E0^k = T^k (m T / 2 pi)^(d/sigma) A zeta(d/sigma + k), in logs
    energy, length = _scales(spec)
    log_tc = (
        math.log(value)
        + spec.d * math.log(length)
        - k * math.log(energy)
        - _log_prefactor_A(spec.d, spec.sigma)
        - math.log(zeta(nu + k))
        + nu * (_LN_2PI - math.log(spec.mass))
    ) / (nu + k)
    tc = math.exp(log_tc) if log_tc <= _LN_MAX else math.inf
    if 0.0 < tc < math.inf:
        return tc, natural, a
    raise DomainError(
        f"T_c = {tc!r} is outside the double range "
        f"(d={spec.d:g}, sigma={spec.sigma:g}, {name}={value!r})"
    )


def dispersion(spec: GasSpec, k: float) -> float:
    """Single-particle energy epsilon(k) = (hbar^2 / 2m) k^sigma, k >= 0."""
    if k < 0.0:
        raise DomainError(f"wavenumber must be >= 0, got k={k!r}")
    energy, length = _scales(spec)
    return (k * length) ** spec.sigma / (2.0 * spec.mass) * energy


def dispersion_coefficient(spec: GasSpec) -> float:
    """The stiffness c = hbar^2 / 2m multiplying k^sigma, in spec units.

    In SI this is k_B^(1 - sigma/2) hbar^sigma / 2m: for sigma != 2 its value
    rests on the kilogram and the kelvin being the base units.
    """
    energy, length = _scales(spec)
    return 1.0 / (2.0 * spec.mass) * energy * length**spec.sigma
