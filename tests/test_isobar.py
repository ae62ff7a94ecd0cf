"""Constant-pressure solvers: T_c(P), gap inversion, coexistence closure."""

import math

import numpy as np
import pytest

import bose_eos.isochore
from bose_eos import (
    CondensedRegion,
    ConvergenceError,
    DomainError,
    GasSpec,
    ZeroTemperatureBEC,
    bose_g,
    coexistence_consistency,
    critical_temperature_pressure,
    density_at,
    pressure_at,
    solve_gap_isobar,
    solve_gap_isochore,
    zeta,
)

SPEC32 = GasSpec(d=3.0, sigma=2.0)


def test_tc_pressure_inverts_pressure_formula():
    for P in (0.01, 0.5, 20.0):
        tc = critical_temperature_pressure(SPEC32, P)
        assert pressure_at(SPEC32, tc, 0.0) == pytest.approx(P, rel=1e-8)


def test_tc_pressure_works_at_low_dimension():
    # condensation at fixed pressure exists for every d > 0, even d <= sigma
    spec = GasSpec(d=2.0, sigma=2.0)
    tc = critical_temperature_pressure(spec, 1.0)
    assert tc > 0.0
    assert pressure_at(spec, tc, 0.0) == pytest.approx(1.0, rel=1e-8)


def test_tc_pressure_power_law_half_for_d_equals_sigma_2():
    spec = GasSpec(d=2.0, sigma=2.0)
    ratio = critical_temperature_pressure(spec, 4.0) / critical_temperature_pressure(
        spec, 1.0
    )
    assert ratio == pytest.approx(2.0, rel=1e-12)  # exponent sigma/(d+sigma) = 1/2


def test_tc_pressure_power_law_two_fifths():
    ratio = critical_temperature_pressure(SPEC32, 16.0) / critical_temperature_pressure(
        SPEC32, 1.0
    )
    assert ratio == pytest.approx(16.0 ** (2.0 / 5.0), rel=1e-12)


def test_tc_pressure_loglog_slope():
    ps = np.geomspace(0.1, 10.0, 8)
    tcs = [critical_temperature_pressure(SPEC32, float(P)) for P in ps]
    slope = np.polyfit(np.log(ps), np.log(tcs), 1)[0]
    assert slope == pytest.approx(2.0 / 5.0, abs=1e-10)


def test_tc_pressure_domain():
    with pytest.raises(DomainError):
        critical_temperature_pressure(SPEC32, 0.0)
    with pytest.raises(DomainError):
        critical_temperature_pressure(SPEC32, -1.0)


def test_boundary_point():
    P = 0.7
    tc = critical_temperature_pressure(SPEC32, P)
    pt = solve_gap_isobar(SPEC32, tc, P)
    assert pt.regime == "condensed_boundary"
    assert pt.r == 0.0
    assert pt.rho == pytest.approx(density_at(SPEC32, tc, 0.0), rel=1e-12)
    assert pt.v == pytest.approx(1.0 / pt.rho, rel=1e-12)
    assert pt.t_P == pytest.approx(0.0, abs=1e-12)


def test_boundary_density_diverges_for_low_dimension():
    spec = GasSpec(d=2.0, sigma=2.0)
    P = 1.0
    tc = critical_temperature_pressure(spec, P)
    pt = solve_gap_isobar(spec, tc, P)
    assert pt.rho == math.inf
    assert pt.v == 0.0


@pytest.mark.parametrize("t_over_tc", [1.0, 2.0])
def test_density_overflow_is_a_domain_error_naming_the_state(t_over_tc):
    # rho = P / k_B T ~ 1e310 m^-20 at the boundary and on the normal branch:
    # finite inputs whose density leaves the doubles once came back as rho = inf
    spec = GasSpec(d=20.0, sigma=2.0, mass=1e-26, units="si")
    P = 1e300
    T = t_over_tc * critical_temperature_pressure(spec, P)
    with pytest.raises(DomainError) as info:
        solve_gap_isobar(spec, T, P)
    for part in ("d=20.0", "sigma=2.0", f"T={T!r}", "P=1e+300", "double range"):
        assert part in str(info.value)


def test_below_tc_refused():
    P = 0.7
    tc = critical_temperature_pressure(SPEC32, P)
    with pytest.raises(CondensedRegion):
        solve_gap_isobar(SPEC32, 0.9 * tc, P)


def test_condensed_region_carries_tc():
    si = GasSpec(d=3.0, sigma=2.0, mass=6.6e-27, units="si")
    for spec, P in ((SPEC32, 0.7), (GasSpec(d=2.0, sigma=1.5), 3.0), (si, 1e5)):
        tc = critical_temperature_pressure(spec, P)
        with pytest.raises(CondensedRegion) as info:
            solve_gap_isobar(spec, 0.5 * tc, P)
        assert info.value.T_c == tc


def test_normal_phase_residual():
    P = 0.7
    tc = critical_temperature_pressure(SPEC32, P)
    for factor in (1.2, 2.0, 5.0):
        pt = solve_gap_isobar(SPEC32, factor * tc, P)
        assert pt.regime == "normal"
        assert pt.r > 0.0
        assert pressure_at(SPEC32, pt.T, pt.r) == pytest.approx(P, rel=1e-10)
        assert density_at(SPEC32, pt.T, pt.r) == pytest.approx(pt.rho, rel=1e-12)


@pytest.mark.parametrize(
    "d, sigma, factor",
    # the last three have orders nu with (nu + 1) - 1 != nu in doubles
    [(3.0, 2.0, 3.0), (2.5, 1.7, 10.0), (1.24, 1.0, 2.0), (0.77, 1.46, 10.0), (3.39, 1.9, 10.0)],
)
def test_isobar_density_is_the_public_density_bit_for_bit(monkeypatch, d, sigma, factor):
    # on the series route the density reuses the solve's last Horner pass
    # where that pass summed g_nu itself, and sums it anew otherwise
    spec = GasSpec(d=d, sigma=sigma)
    T = factor * critical_temperature_pressure(spec, 1.0)
    calls = []

    def counted(*args):
        calls.append(args)
        return bose_g(*args)

    monkeypatch.setattr(bose_eos.isochore, "bose_g", counted)
    pt = solve_gap_isobar(spec, T, 1.0)
    assert pt.r / T >= 0.5
    nu = spec.d_over_sigma
    assert len(calls) == (0 if nu + 1.0 - 1.0 == nu else 1)
    assert pt.rho == density_at(spec, T, pt.r)


def test_gap_increases_density_decreases_along_isobar():
    P = 0.7
    tc = critical_temperature_pressure(SPEC32, P)
    ts = np.linspace(1.05 * tc, 3.0 * tc, 8)
    points = [solve_gap_isobar(SPEC32, float(T), P) for T in ts]
    gaps = [pt.r for pt in points]
    rhos = [pt.rho for pt in points]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    assert all(b < a for a, b in zip(rhos, rhos[1:]))


@pytest.mark.parametrize(
    "d,sigma",
    [(3.0, 2.0), (3.0, 1.5), (2.5, 1.2), (3.5, 1.6), (4.5, 2.0), (3.0, 1.2)],
)
def test_coexistence_closure(d, sigma):
    # holds beyond the Landau window too; only d > sigma is needed
    spec = GasSpec(d=d, sigma=sigma)
    for rho in (0.1, 1.0, 10.0):
        assert coexistence_consistency(spec, rho) <= 1e-8


@pytest.mark.parametrize(
    "d, sigma",
    [(3.0, 2.0), (3.0, 1.5), (2.0, 1.0), (1.5, 1.0), (4.0, 2.0),
     (5.0, 1.2), (2.2, 2.0), (10.0, 2.0), (3.0, 0.5), (6.0, 1.7)],
)
def test_isochore_at_the_isobar_density_returns_its_state(d, sigma):
    # solve at P, then at the density that gives: the same P and r come back.
    # r is ill-conditioned in rho as t_P -> 0 (5.2e-9 measured at t_P = 1e-6,
    # 3.8e-11 at 1e-4, 2e-12 at 1e-3); P stays within 7e-14 throughout
    for spec, P in ((GasSpec(d, sigma), 1.0), (GasSpec(d, sigma, 1e-26, "si"), 1e-3)):
        tc = critical_temperature_pressure(spec, P)
        for t_P in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e2, 1e3):
            T = tc * (1.0 + t_P)
            isobar = solve_gap_isobar(spec, T, P)
            isochore = solve_gap_isochore(spec, T, isobar.rho)
            assert isochore.regime == "normal"
            assert isochore.P == pytest.approx(P, rel=1e-12, abs=0.0)
            r_bound = 1e-10 if t_P >= 1e-4 else 1e-8
            assert isochore.r == pytest.approx(isobar.r, rel=r_bound, abs=0.0)


def test_coexistence_propagates_zero_temperature_regime():
    with pytest.raises(ZeroTemperatureBEC):
        coexistence_consistency(GasSpec(d=2.0, sigma=2.0), 1.0)


def test_isobar_validation():
    with pytest.raises(DomainError):
        solve_gap_isobar(SPEC32, 0.0, 1.0)
    with pytest.raises(DomainError):
        solve_gap_isobar(SPEC32, 1.0, -1.0)


def test_convergence_error_names_the_failed_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise ConvergenceError("root finder did not converge")

    monkeypatch.setattr(bose_eos.isochore, "solve_bose_equation", fail)
    tc = critical_temperature_pressure(SPEC32, 0.5)
    with pytest.raises(ConvergenceError) as info:
        solve_gap_isobar(SPEC32, 2.0 * tc, 0.5)
    message = str(info.value)
    for part in ("d=3.0", "sigma=2.0", f"T={2.0 * tc!r}", "P=0.5", "root finder"):
        assert part in message


def test_density_below_the_doubles_gives_infinite_volume():
    # classical limit: rho = P / T = 1e-350 underflows to 0, so v = 1 / rho is inf
    pt = solve_gap_isobar(SPEC32, 1e100, 1e-250)
    assert pt.regime == "normal" and pt.r > 0.0
    assert pt.rho == 0.0 and pt.v == math.inf


@pytest.mark.parametrize("ratio", [1.0, 1.0 + 1e-9])
def test_a_boundary_row_past_the_doubles_names_the_state(ratio):
    # at T_c(P) = 2.7e-60, lambda_T^-d A = P / (T_c zeta(5/2)) ~ 3e359 leaves the
    # doubles, and with it the density; the r = 0 row runs no solve. (On an
    # isochore's condensed row lambda_T^-d A <= rho / zeta(d/sigma) stays finite.)
    spec = GasSpec(3.0, 2.0, 1e300)
    T = ratio * critical_temperature_pressure(spec, 1e300)
    with pytest.raises(DomainError) as info:
        solve_gap_isobar(spec, T, 1e300)
    assert str(info.value) == (
        f"isobar state at d=3.0, sigma=2.0, T={T!r}, P=1e+300: "
        "lambda_T^-d A = inf is outside the double range"
    )
