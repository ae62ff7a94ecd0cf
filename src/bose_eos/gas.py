"""The gas model: dispersion epsilon(k) = (hbar^2 / 2m) k^sigma in d dimensions.

Holds the closed-form geometric and thermal prefactors every solver needs:
the thermal wavelength, its temperature-independent companion lambda_0, and
the dimensionless density-of-states prefactor A(d, sigma) that equals 1 for
quadratic dispersion in any dimension.

All internal computation is done in natural units (hbar = k_B = 1); a spec
created with ``units="si"`` gets its inputs and outputs converted at the
public API boundary. The SI-to-natural map keeps the kilogram and the kelvin
as base units and sets the energy and length scales from k_B and hbar, so
round trips are exact scalings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .errors import DomainError
from .special import gamma

HBAR_SI = 1.054571817e-34  # J s
KB_SI = 1.380649e-23  # J / K

_LN2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_LN_MAX = math.log(sys.float_info.max)

NATURAL = "natural"
SI = "si"


@dataclass(frozen=True)
class GasSpec:
    """Physical model record.

    d : spatial dimension, any positive real (the formulas are analytic in d)
    sigma : dispersion exponent, 0 < sigma <= 2
    mass : particle mass in the chosen unit system
    units : "natural" (hbar = k_B = 1) or "si" (kg, K, m^-d, J/m^d)
    """

    d: float
    sigma: float
    mass: float = 1.0
    units: str = NATURAL

    def __post_init__(self):
        if not self.d > 0.0:
            raise DomainError(f"dimension must be positive, got d={self.d!r}")
        if not 0.0 < self.sigma <= 2.0:
            raise DomainError(
                f"dispersion exponent must satisfy 0 < sigma <= 2, got {self.sigma!r}"
            )
        if not self.mass > 0.0:
            raise DomainError(f"mass must be positive, got {self.mass!r}")
        if self.units not in (NATURAL, SI):
            raise DomainError(f"units must be 'natural' or 'si', got {self.units!r}")

    @property
    def d_over_sigma(self) -> float:
        return self.d / self.sigma

    def to_mapping(self) -> dict:
        """Flat key-value form consumed by the CLI config loader."""
        return {"d": self.d, "sigma": self.sigma, "mass": self.mass, "units": self.units}

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


class UnitConversion:
    """Scale factors between a spec's unit system and natural units.

    For natural specs every factor is 1. For SI specs the natural system
    keeps kg and K as base units and fixes hbar = k_B = 1, giving
    energy scale E0 = k_B * 1 K and length scale L0 = hbar / sqrt(E0 * 1 kg).
    ``*_in`` takes a value in spec units to natural units, ``*_out`` the
    reverse; density and pressure factors depend on the dimension d.
    """

    def __init__(self, spec: GasSpec):
        if spec.units == NATURAL:
            self.energy = 1.0
            self.length = 1.0
            self.temperature = 1.0
            self.mass = 1.0
        else:
            self.energy = KB_SI  # J per natural energy unit
            self.temperature = 1.0  # K per natural temperature unit
            self.mass = 1.0  # kg per natural mass unit
            self.length = HBAR_SI / math.sqrt(KB_SI)  # m per natural length unit
        self._d = spec.d

    def temperature_in(self, T: float) -> float:
        return T / self.temperature

    def temperature_out(self, T: float) -> float:
        return T * self.temperature

    def energy_in(self, e: float) -> float:
        return e / self.energy

    def energy_out(self, e: float) -> float:
        return e * self.energy

    def length_in(self, x: float) -> float:
        return x / self.length

    def length_out(self, x: float) -> float:
        return x * self.length

    def wavenumber_in(self, k: float) -> float:
        return k * self.length

    def density_in(self, rho: float) -> float:
        return rho * self.length**self._d

    def density_out(self, rho: float) -> float:
        return rho / self.length**self._d

    def pressure_in(self, P: float) -> float:
        return P * self.length**self._d / self.energy

    def pressure_out(self, P: float) -> float:
        return P * self.energy / self.length**self._d

    def energy_density_out(self, f: float) -> float:
        return f * self.energy / self.length**self._d


def as_natural(spec: GasSpec) -> tuple[GasSpec, UnitConversion]:
    """Return the spec rewritten in natural units plus the conversion used."""
    conv = UnitConversion(spec)
    if spec.units == NATURAL:
        return spec, conv
    return replace(spec, mass=spec.mass / conv.mass, units=NATURAL), conv


def thermal_wavelength(spec: GasSpec, T: float) -> float:
    """lambda_T = (2 pi hbar^2 / (m k_B T))^(1/sigma); scales as T^(-1/sigma)."""
    if not T > 0.0:
        raise DomainError(f"temperature must be positive, got T={T!r}")
    nat, conv = as_natural(spec)
    lam = (2.0 * math.pi / (nat.mass * conv.temperature_in(T))) ** (1.0 / nat.sigma)
    return conv.length_out(lam)


def lambda0(spec: GasSpec) -> float:
    """lambda_T * T^(1/sigma) = (2 pi hbar^2 / (m k_B))^(1/sigma).

    Temperature independent; carries units length * temperature^(1/sigma).
    """
    nat, conv = as_natural(spec)
    lam0 = (2.0 * math.pi / nat.mass) ** (1.0 / nat.sigma)
    return conv.length_out(lam0) * conv.temperature ** (1.0 / nat.sigma)


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
    log_a = (
        two_power * _LN2
        + math.lgamma(d / sigma)
        - math.log(sigma)
        - pi_power * _LN_PI
        - math.lgamma(d / 2.0)
    )
    if log_a > _LN_MAX:
        raise DomainError(f"A(d, sigma) = e^{log_a:.6g} exceeds the double range (d={d!r}, sigma={sigma!r})")
    return math.exp(log_a)


def _density_prefactor(nat: GasSpec, T: float) -> float:
    """lambda_T^-d * A(d, sigma) in natural units."""
    return (nat.mass * T / (2.0 * math.pi)) ** nat.d_over_sigma * prefactor_A(
        nat.d, nat.sigma
    )


def dispersion(spec: GasSpec, k: float) -> float:
    """Single-particle energy epsilon(k) = (hbar^2 / 2m) k^sigma, k >= 0."""
    if k < 0.0:
        raise DomainError(f"wavenumber must be >= 0, got k={k!r}")
    nat, conv = as_natural(spec)
    k_nat = conv.wavenumber_in(k)
    eps = k_nat**nat.sigma / (2.0 * nat.mass)
    return conv.energy_out(eps)


def dispersion_coefficient(spec: GasSpec) -> float:
    """The stiffness c = hbar^2 / 2m multiplying k^sigma, in spec units."""
    nat, conv = as_natural(spec)
    c = 1.0 / (2.0 * nat.mass)
    return conv.energy_out(c) * conv.length**spec.sigma
