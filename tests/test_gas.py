"""Model record, prefactors, thermal wavelength, unit conversion."""

import math

import numpy as np
import pytest

from bose_eos import (
    DomainError,
    GasSpec,
    as_natural,
    critical_temperature_density,
    dispersion,
    dispersion_coefficient,
    lambda0,
    prefactor_A,
    thermal_wavelength,
)


def test_spec_validation():
    with pytest.raises(DomainError):
        GasSpec(d=0.0, sigma=2.0)
    with pytest.raises(DomainError):
        GasSpec(d=3.0, sigma=0.0)
    with pytest.raises(DomainError):
        GasSpec(d=3.0, sigma=2.5)
    with pytest.raises(DomainError):
        GasSpec(d=3.0, sigma=2.0, mass=-1.0)
    with pytest.raises(DomainError):
        GasSpec(d=3.0, sigma=2.0, units="cgs")


def test_spec_mapping_roundtrip():
    spec = GasSpec(d=2.5, sigma=1.7, mass=3.0, units="si")
    assert GasSpec.from_mapping(spec.to_mapping()) == spec


def test_thermal_wavelength_natural_quadratic():
    spec = GasSpec(d=3.0, sigma=2.0)
    assert thermal_wavelength(spec, 2.0 * math.pi) == pytest.approx(1.0, rel=1e-14)


def test_thermal_wavelength_linear_dispersion():
    spec = GasSpec(d=3.0, sigma=1.0)
    assert thermal_wavelength(spec, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-14)


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0])
def test_thermal_wavelength_power_law(sigma):
    spec = GasSpec(d=3.0, sigma=sigma)
    ratio = thermal_wavelength(spec, 4.0) / thermal_wavelength(spec, 1.0)
    assert ratio == pytest.approx(4.0 ** (-1.0 / sigma), rel=1e-13)


def test_thermal_wavelength_loglog_slope():
    spec = GasSpec(d=3.0, sigma=1.5)
    ts = np.geomspace(0.1, 10.0, 12)
    lams = [thermal_wavelength(spec, float(T)) for T in ts]
    slope = np.polyfit(np.log(ts), np.log(lams), 1)[0]
    assert slope == pytest.approx(-1.0 / 1.5, rel=1e-12)


def test_thermal_wavelength_rejects_nonpositive_temperature():
    spec = GasSpec(d=3.0, sigma=2.0)
    for T in (0.0, -1.0):
        with pytest.raises(DomainError):
            thermal_wavelength(spec, T)


def test_lambda0_is_temperature_invariant():
    spec = GasSpec(d=3.0, sigma=1.5)
    for T in (0.5, 1.0, 7.0):
        assert thermal_wavelength(spec, T) * T ** (1.0 / 1.5) == pytest.approx(
            lambda0(spec), rel=1e-13
        )


@pytest.mark.parametrize("d", [1.0, 1.7, 2.0, 3.0, 4.0, 2.5])
def test_prefactor_A_is_one_for_quadratic_dispersion(d):
    assert prefactor_A(d, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_prefactor_A_linear_dispersion_value():
    # term-by-term: 2^(1-3+6) Gamma(3) / (1 pi^(3(1/2-1)) Gamma(3/2)) = 64 pi
    assert prefactor_A(3.0, 1.0) == pytest.approx(64.0 * math.pi, rel=1e-13)


@pytest.mark.parametrize("d, sigma", [(171.0, 1.0), (400.0, 2.0)])
def test_prefactor_A_and_tc_where_gamma_overflows(d, sigma):
    # Gamma(171) 2^172 and Gamma(200) leave the doubles; A (about 4.6e273,
    # and exactly 1) and T_c do not
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        nu = mpmath.mpf(d) / sigma
        exact_a = (
            2 ** (1 - d + 2 * nu) * mpmath.gamma(nu)
            / (sigma * mpmath.pi ** (d * (0.5 - 1 / mpmath.mpf(sigma))) * mpmath.gamma(mpmath.mpf(d) / 2))
        )
        exact_tc = 2 * mpmath.pi * (exact_a * mpmath.zeta(nu)) ** (-1 / nu)  # rho = m = 1
    assert prefactor_A(d, sigma) == pytest.approx(float(exact_a), rel=1e-12)
    tc = critical_temperature_density(GasSpec(d=d, sigma=sigma), 1.0)
    assert tc == pytest.approx(float(exact_tc), rel=1e-13)


def test_prefactor_A_beyond_double_range_is_a_domain_error():
    with pytest.raises(DomainError, match="double range"):
        prefactor_A(3000.0, 1.0)


def test_prefactor_A_domain():
    with pytest.raises(DomainError):
        prefactor_A(-1.0, 2.0)
    with pytest.raises(DomainError):
        prefactor_A(3.0, 2.1)


def test_dispersion_values():
    assert dispersion(GasSpec(d=3.0, sigma=2.0), 1.0) == pytest.approx(0.5)
    assert dispersion(GasSpec(d=3.0, sigma=1.0), 2.0) == pytest.approx(1.0)
    assert dispersion(GasSpec(d=3.0, sigma=1.3), 0.0) == 0.0


def test_dispersion_monotone_and_domain():
    spec = GasSpec(d=3.0, sigma=1.5)
    ks = np.linspace(0.0, 5.0, 30)
    vals = [dispersion(spec, float(k)) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        dispersion(spec, -1.0)


def test_si_spec_converts_to_natural_mass():
    spec = GasSpec(d=3.0, sigma=2.0, mass=2.0, units="si")
    nat, conv = as_natural(spec)
    assert nat.units == "natural"
    assert nat.mass == pytest.approx(2.0)  # natural mass unit is the kilogram
    assert conv.temperature_in(3.0) == pytest.approx(3.0)  # kelvin kept as base


def test_unit_roundtrip_identity():
    spec = GasSpec(d=3.0, sigma=2.0, mass=1e-26, units="si")
    _, conv = as_natural(spec)
    for value in (1e-7, 1.0, 3.7e4):
        assert conv.temperature_out(conv.temperature_in(value)) == pytest.approx(
            value, rel=1e-12
        )
        assert conv.energy_out(conv.energy_in(value)) == pytest.approx(value, rel=1e-12)
        assert conv.density_out(conv.density_in(value)) == pytest.approx(value, rel=1e-12)
        assert conv.pressure_out(conv.pressure_in(value)) == pytest.approx(value, rel=1e-12)
        assert conv.length_out(conv.length_in(value)) == pytest.approx(value, rel=1e-12)


def test_dispersion_coefficient_natural():
    # hbar^2 / 2m with hbar = 1
    assert dispersion_coefficient(GasSpec(d=3.0, sigma=2.0, mass=4.0)) == pytest.approx(
        0.125
    )


def test_dispersion_si_matches_direct_formula():
    hbar = 1.054571817e-34
    mass = 6.6e-27
    spec = GasSpec(d=3.0, sigma=2.0, mass=mass, units="si")
    k = 1e9
    assert dispersion(spec, k) == pytest.approx(hbar**2 * k**2 / (2 * mass), rel=1e-10)
