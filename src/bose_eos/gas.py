"""The gas model: dispersion epsilon(k) = (hbar^2 / 2m) k^sigma in d dimensions.

Holds the closed-form geometric and thermal prefactors every solver needs:
the thermal wavelength, its temperature-independent companion lambda_0, and
the dimensionless density-of-states prefactor A(d, sigma) that equals 1 for
quadratic dispersion in any dimension.

All internal computation is done in natural units (hbar = k_B = 1). SI
differs from them only by an energy scale and a length scale (see
``_scales``): mass stays in kilograms and temperature in kelvin, so a public
function reads d, sigma, mass and T as given and converts only energies,
densities and pressures, once on the way in and once on the way out. For
sigma != 2 that choice of base units fixes the SI value of the stiffness
hbar^2 / 2m, which is k_B^(1 - sigma/2) hbar^sigma / 2m.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError
from .special import gamma, zeta

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

    def to_mapping(self) -> dict:
        """Flat key-value form consumed by the CLI config loader."""
        return self._asdict()

    @classmethod
    def from_mapping(cls, mapping: dict) -> "GasSpec":
        unknown = set(mapping) - {"d", "sigma", "mass", "units"}
        if unknown:
            raise DomainError(f"unknown GasSpec keys: {sorted(unknown)}")
        if "d" not in mapping or "sigma" not in mapping:
            raise DomainError("GasSpec mapping needs at least 'd' and 'sigma'")
        return cls(
            d=float(mapping["d"]),
            sigma=float(mapping["sigma"]),
            mass=float(mapping.get("mass", 1.0)),
            units=str(mapping.get("units", NATURAL)),
        )


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


def _density_prefactor(spec: GasSpec, T: float, a: float | None = None) -> float:
    """lambda_T^-d * A(d, sigma) in natural units; ``a`` is A if the caller holds it.

    Where it overflows (T = 1e250 at d/sigma = 1.5) it is a DomainError
    naming d, sigma and T.
    """
    try:
        pref = (spec.mass * T / (2.0 * math.pi)) ** spec.d_over_sigma * (
            prefactor_A(spec.d, spec.sigma) if a is None else a
        )
    except OverflowError:
        pref = math.inf
    if pref < math.inf:
        return pref
    raise DomainError(
        f"lambda_T^-d A = {pref!r} is outside the double range "
        f"(d={spec.d:g}, sigma={spec.sigma:g}, T={T!r})"
    )


def _log_prefactor(spec: GasSpec, T: float, k: int, a: float | None = None) -> float:
    """ln(T^k lambda_T^-d A(d, sigma)) in natural units; ``a`` is A if the caller holds it.

    The prefactor of g_(d/sigma + k) in the density (k = 0) or pressure
    (k = 1) constraint, which the gap solver takes in logs. It is the log of
    the product where that is a normal double, and a sum of logs where the
    product leaves them (T = 1e250 at d/sigma = 1.5, or an A past the doubles).
    """
    try:
        pref = T**k * _density_prefactor(spec, T, a)
    except DomainError:
        pref = math.inf
    if _all_normal(pref):
        return math.log(pref)
    log_a = _log_prefactor_A(spec.d, spec.sigma) if a is None else math.log(a)
    return (
        k * math.log(T)
        + spec.d_over_sigma * (math.log(spec.mass) + math.log(T) - _LN_2PI)
        + log_a
    )


def _all_normal(*values: float) -> bool:
    """Whether every value is a finite double at or above sys.float_info.min.

    A subnormal intermediate keeps only a few bits (L0^d at d = 14 in SI),
    so the T_c formulas take the log form unless this holds.
    """
    return all(_FLOAT_MIN <= v < math.inf for v in values)


def _natural_constraint(spec: GasSpec, value: float, k: int) -> float:
    """A density (k = 0) or pressure (k = 1) in natural units: value L0^d / E0^k.

    Where L0^d or value L0^d is subnormal (L0^d ~ 2.8e-23^d in SI from
    d = 13.7 on) L0^d is applied as two halves with the division by E0^k
    between them, so no step keeps only a few bits. A value that still
    leaves the normal doubles is a DomainError; the solvers add d, sigma, T
    and the constraint to its message.
    """
    energy, length = _scales(spec)
    step = length**spec.d
    natural = value * step / energy**k
    if not _all_normal(step, value * step):
        step = length ** (0.5 * spec.d)
        natural = value * step / energy**k * step
    if _all_normal(step, value * step, natural):
        return natural
    raise DomainError(
        f"{('rho', 'P')[k]} leaves the normal doubles on its way to natural units "
        f"(L0^d or its square root = {step!r}, natural value {natural!r})"
    )


def _spec_constraint(spec: GasSpec, natural: float, k: int) -> float:
    """The inverse of _natural_constraint: natural E0^k / L0^d in spec units.

    Takes a natural density (k = 0) or pressure (k = 1), or any quantity
    per natural volume with E0^k its energy factor. Where L0^d is subnormal
    it is divided out in two halves, as _natural_constraint applies it.
    """
    energy, length = _scales(spec)
    length_d = length**spec.d
    if _all_normal(length_d):
        return natural * energy**k / length_d
    half = length ** (0.5 * spec.d)
    if _all_normal(half):
        return natural / half * energy**k / half
    raise DomainError(
        f"L0^(d/2) = {half!r} leaves the normal doubles (d={spec.d:g}, sigma={spec.sigma:g}): "
        "the natural value has no spec-unit counterpart in the doubles"
    )


def _constraint_constants(spec: GasSpec, value: float, k: int) -> tuple:
    """(value in natural units, A(d, sigma)): what a density (k = 0) or
    pressure (k = 1) fixes for every temperature of a solve.

    Either is None where it leaves the doubles. A solve that needs it then
    computes it again, which raises the DomainError with the solve's state.
    """
    try:
        natural = _natural_constraint(spec, value, k)
    except DomainError:
        natural = None
    try:
        a = prefactor_A(spec.d, spec.sigma)
    except DomainError:
        a = None
    return natural, a


def _critical_temperature_in_logs(spec: GasSpec, value: float, k: int) -> float:
    """T_c taken in log form, for where the direct product leaves the doubles.

    Inverts value L0^d / E0^k = T^k (m T / 2 pi)^(d/sigma) A zeta(d/sigma + k),
    the r = 0 density (k = 0) or pressure (k = 1) in natural units. A T_c
    that is itself outside the doubles is a DomainError naming d, sigma and
    the constraint.
    """
    energy, length = _scales(spec)
    nu = spec.d_over_sigma
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
        return tc
    raise DomainError(
        f"T_c = {tc!r} is outside the double range "
        f"(d={spec.d:g}, sigma={spec.sigma:g}, {('rho', 'P')[k]}={value!r})"
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
