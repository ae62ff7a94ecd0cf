"""Model record, prefactors, thermal wavelength, SI against natural units."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bose_eos import (
    BoxSpec,
    DomainError,
    GasSpec,
    SweepRequest,
    bose_g,
    critical_temperature_density,
    critical_temperature_pressure,
    density_at,
    dispersion,
    dispersion_coefficient,
    finite_density,
    grand_potential,
    lambda0,
    landau_model,
    prefactor_A,
    pressure_at,
    run_sweep,
    solve_gap_isobar,
    solve_gap_isochore,
    thermal_wavelength,
    zeta,
)
from bose_eos.gas import KB_SI, _natural_constraint, _scales, _spec_constraint


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


@pytest.mark.parametrize(
    "tc_function, d, sigma, exact",
    [
        # A(3000, 1) = e^15346 leaves the doubles
        (critical_temperature_density, 3000.0, 1.0, 0.037722145377168654),
        # (2 pi / m)^(d / sigma) = (2 pi)^750 leaves the doubles
        (critical_temperature_pressure, 1500.0, 2.0, 6.2678276458253185),
    ],
)
def test_tc_in_log_form_where_the_direct_product_leaves_the_doubles(
    tc_function, d, sigma, exact
):
    # exact: the same formula in mpmath at 40 digits, at rho = 1 or P = 1 and m = 1
    assert tc_function(GasSpec(d=d, sigma=sigma), 1.0) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize(
    "tc_function, spec, value, message",
    [
        (critical_temperature_density, GasSpec(3.0, 2.0, mass=1e-300), 1e100,
         "T_c = inf is outside the double range (d=3, sigma=2, rho=1e+100)"),
        (critical_temperature_pressure, GasSpec(3.0, 2.0, mass=1e300, units="si"), 5e-324,
         "T_c = 0.0 is outside the double range (d=3, sigma=2, P=5e-324)"),
    ],
)
def test_tc_outside_the_doubles_is_a_domain_error(tc_function, spec, value, message):
    with pytest.raises(DomainError) as info:
        tc_function(spec, value)
    assert str(info.value) == message


@pytest.mark.parametrize("d", [14.0, 14.2])
def test_si_tc_where_lambda_scale_power_is_subnormal(d):
    # L0^d is a subnormal double for 13.9 < d < 14.4 in SI (L0 ~ 2.8e-23 m),
    # so the direct product keeps only a few bits; the log form keeps them all
    mpmath = pytest.importorskip("mpmath")
    spec = GasSpec(d=d, sigma=2.0, mass=1e-26, units="si")
    with mpmath.workdps(40):
        nu = mpmath.mpf(d) / 2
        e0 = mpmath.mpf("1.380649e-23")  # k_B * 1 K, J
        l0_d = (mpmath.mpf("1.054571817e-34") / mpmath.sqrt(e0)) ** d
        scale = 2 * mpmath.pi / mpmath.mpf(1e-26)
        # rho = 1 m^-d and P = 1 Pa; A(d, 2) = 1
        exact_rho = scale * (l0_d / mpmath.zeta(nu)) ** (1 / nu)
        exact_p = (scale**nu * l0_d / (e0 * mpmath.zeta(nu + 1))) ** (1 / (nu + 1))
    assert critical_temperature_density(spec, 1.0) == pytest.approx(float(exact_rho), rel=1e-12, abs=0.0)
    assert critical_temperature_pressure(spec, 1.0) == pytest.approx(float(exact_p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [13.0, 14.0, 14.2])
def test_si_conversions_where_lambda_scale_power_is_subnormal(d):
    # From d = 13.7 on L0^d is subnormal in SI and is applied in two halves;
    # the solves run at twice the transition temperature of their constraint
    mpmath = pytest.importorskip("mpmath")
    spec = GasSpec(d=d, sigma=2.0, mass=1e-26, units="si")
    T = 1e-6
    with mpmath.workdps(40):
        nu = mpmath.mpf(d) / 2
        e0 = mpmath.mpf("1.380649e-23")  # k_B * 1 K, J
        l0_d = (mpmath.mpf("1.054571817e-34") / mpmath.sqrt(e0)) ** d

        def density(T, y):  # lambda_T^-d g_nu(y) in m^-d; A(d, 2) = 1
            return (mpmath.mpf(1e-26) * T / (2 * mpmath.pi)) ** nu / l0_d * mpmath.polylog(nu, mpmath.exp(-y))

        def pressure(T, y):
            return T * e0 * (mpmath.mpf(1e-26) * T / (2 * mpmath.pi)) ** nu / l0_d * mpmath.polylog(nu + 1, mpmath.exp(-y))

        P, rho = float(pressure(T / 2, 0)), float(density(T / 2, 0))
        y_isobar = mpmath.findroot(lambda y: pressure(T, y) / P - 1, 0.5)
        y_isochore = mpmath.findroot(lambda y: density(T, y) / rho - 1, 0.5)
        exact = [
            (pressure_at(spec, T, 0.0), pressure(T, 0)),
            (density_at(spec, T, 0.0), density(T, 0)),
            (solve_gap_isobar(spec, T, P).r, y_isobar * T * e0),
            (solve_gap_isobar(spec, T, P).rho, density(T, y_isobar)),
            (solve_gap_isochore(spec, T, rho).r, y_isochore * T * e0),
            (solve_gap_isochore(spec, T, rho).P, pressure(T, y_isochore)),
        ]
    for value, ref in exact:
        assert value == pytest.approx(float(ref), rel=1e-12, abs=0.0)


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


# SI keeps the kilogram and the kelvin as base units, so an SI result is the
# natural one at the same mass and T times E0^a L0^b, with E0 = k_B * 1 K and
# L0 = hbar / sqrt(k_B * 1 K * 1 kg). D, SIGMA lie in sigma < d < 2 sigma (the
# Landau window) with an integer d (the box oracle) and sigma != 2.
E0 = 1.380649e-23
L0 = 1.054571817e-34 / math.sqrt(E0)
D, SIGMA, MASS, T, RHO, PRESS = 2.0, 1.5, 1.7, 1.0, 0.8, 0.6

# name -> (outputs for energy unit e and length unit l, (a, b) per output)
UNIT_CASES = {
    "thermal_wavelength": (lambda s, e, l: [thermal_wavelength(s, T)], [(0, 1)]),
    "lambda0": (lambda s, e, l: [lambda0(s)], [(0, 1)]),
    "dispersion": (lambda s, e, l: [dispersion(s, 0.8 / l)], [(1, 0)]),
    "dispersion_coefficient": (lambda s, e, l: [dispersion_coefficient(s)], [(1, SIGMA)]),
    "critical_temperature_density": (
        lambda s, e, l: [critical_temperature_density(s, RHO / l**D)],
        [(0, 0)],
    ),
    "critical_temperature_pressure": (
        lambda s, e, l: [critical_temperature_pressure(s, PRESS * e / l**D)],
        [(0, 0)],
    ),
    "pressure_at": (lambda s, e, l: [pressure_at(s, T, 0.3 * e)], [(1, -D)]),
    "density_at": (lambda s, e, l: [density_at(s, T, 0.3 * e)], [(0, -D)]),
    "grand_potential": (
        lambda s, e, l: [
            grand_potential(s, T, 0.3 * e, h=0.2 * e, n_particles=2.0, volume=1.5 * l**D)
        ],
        [(1, 0)],
    ),
    "solve_gap_isochore": (
        lambda s, e, l: (lambda p: [p.r, p.P, p.t])(solve_gap_isochore(s, T, RHO / l**D)),
        [(1, 0), (1, -D), (0, 0)],
    ),
    "solve_gap_isobar": (
        lambda s, e, l: (lambda p: [p.r, p.rho, p.v, p.t_P])(
            solve_gap_isobar(s, T, PRESS * e / l**D)
        ),
        [(1, 0), (0, -D), (0, D), (0, 0)],
    ),
    "landau_model": (
        lambda s, e, l: (lambda m: [m.C_f, m.thermal_energy, m.T_c])(
            landau_model(s, RHO / l**D, 0.01)
        ),
        [(1, -D), (1, 0), (0, 0)],
    ),
    "finite_density": (
        lambda s, e, l: [finite_density(s, BoxSpec(L=3.0 * l, d=int(D)), T, -0.4 * e)],
        [(0, -D)],
    ),
}


@pytest.mark.parametrize("name", sorted(UNIT_CASES))
def test_si_is_natural_times_energy_and_length_scales(name):
    outputs, powers = UNIT_CASES[name]
    natural = outputs(GasSpec(D, SIGMA, MASS), 1.0, 1.0)
    si = outputs(GasSpec(D, SIGMA, MASS, units="si"), E0, L0)
    assert len(natural) == len(powers)
    for nat_value, si_value, (a, b) in zip(natural, si, powers):
        assert nat_value != 0.0
        # abs=0: pytest's default abs=1e-12 would pass any SI value this small
        assert si_value == pytest.approx(nat_value * E0**a * L0**b, rel=1e-13, abs=0.0)


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
    assert dispersion(spec, k) == pytest.approx(hbar**2 * k**2 / (2 * mass), rel=1e-10, abs=0.0)


RB87 = GasSpec(3.0, 2.0, 1.443160648e-25, "si")


@pytest.mark.parametrize("rho", [5e-128, 1e-130])
@pytest.mark.parametrize("ratio", [2.0, 0.5])
def test_si_pressure_where_natural_times_e0_underflows(rho, ratio):
    # The natural pressure times E0 = k_B * 1 K is subnormal or zero here, so the
    # pressure leaves the natural units by L0^3 first: P was 2.7% and 37% off at
    # rho = 5e-128 m^-3, and 0.0 at 1e-130, where rho k_B T g_(5/2) / g_(3/2) is 9e-260 Pa
    T = ratio * critical_temperature_density(RB87, rho)
    point = solve_gap_isochore(RB87, T, rho)
    assert point.regime == ("condensed", "normal")[ratio > 1.0]
    y = point.r / (KB_SI * T)
    if point.regime == "normal":
        expected = rho * KB_SI * T * bose_g(2.5, y).value / bose_g(1.5, y).value
    else:
        expected = rho * (1.0 - point.psi2) * KB_SI * T * zeta(2.5) / zeta(1.5)
    request = SweepRequest(spec=RB87, constraint="density", value=rho, T_min=T, T_max=2.0 * T,
                           points=2)
    for P in (point.P, pressure_at(RB87, T, point.r), run_sweep(request).rows[0]["P"]):
        assert P == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("natural", [1e-300, 1e-305])
def test_si_pressure_of_a_small_natural_pressure_is_exact(natural):
    # 1e-300 E0 underflows to a subnormal, 1e-305 E0 to zero: they gave 6.483e-256 and 0.0
    energy, length = (Fraction(v) for v in _scales(RB87))
    exact = Fraction(natural) * energy / length**3
    assert abs(Fraction(_spec_constraint(RB87, natural, 1)) / exact - 1) <= Fraction(1, 10**15)


def test_si_pressure_from_a_subnormal_natural_pressure():
    # At y = 625 the natural pressure, about 1.3e-310, is subnormal: times E0 it
    # was 0.0 Pa. It holds about 44 bits, hence the bound
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        e0 = mpmath.mpf("1.380649e-23")  # k_B * 1 K, J
        l0 = mpmath.mpf("1.054571817e-34") / mpmath.sqrt(e0)
        thermal = (mpmath.mpf(RB87.mass) / (2 * mpmath.pi)) ** mpmath.mpf(1.5)  # T = 1 K
        exact = e0 * thermal / l0**3 * mpmath.polylog(2.5, mpmath.exp(-625))
    assert pressure_at(RB87, 1.0, 625 * KB_SI) == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def test_si_conversions_are_exact_wherever_the_result_is_normal():
    # A seeded sample of integer SI d = 1 to 26 over every decade of the doubles
    # and over the subnormals, both ways, and the one subnormal range that goes in
    # (a pressure at d = 1, where L0 / E0 is about 2): each step of the unit map
    # rounds a normal double once. Subnormal x gave 0.0, lost bits or a DomainError
    rng = random.Random(24)
    cases = [(rng.randint(1, 26), rng.randint(0, 1), rng.random() < 0.5,
              rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-308, 307)) for _ in range(3000)]
    cases += [(rng.randint(1, 26), rng.randint(0, 1), rng.random() < 0.5,
               math.ldexp(rng.uniform(1.0, 2.0), rng.randint(-1074, -1023))) for _ in range(1000)]
    cases += [(1, 1, True, x) for x in (1.2e-308, 2e-308, 2.2e-308)]
    low, high = Fraction(sys.float_info.min), Fraction(sys.float_info.max)
    checked = Counter()
    for d, k, inward, x in cases:
        spec = GasSpec(float(d), 2.0, 1.443160648e-25, "si")
        energy, length = (Fraction(v) for v in _scales(spec))
        scale = length**d / energy**k if inward else energy**k / length**d
        exact = Fraction(x) * scale
        if not low <= exact < high:
            continue
        checked[x < sys.float_info.min, inward] += 1
        value = (_natural_constraint if inward else _spec_constraint)(spec, x, k)
        assert abs(Fraction(value) / exact - 1) <= Fraction(1, 10**15), (d, k, inward, x)
    assert checked[False, False] > 500 and checked[False, True] > 500
    assert checked[True, False] > 300 and checked[True, True] == 3
