"""Constant-density solvers: T_c(rho), gap inversion, condensate, potentials."""

import math
import random

import numpy as np
import pytest

import bose_eos.isochore
import bose_eos.rootfind
from bose_eos import (
    CRITICAL_WINDOW,
    ConvergenceError,
    DomainError,
    GasSpec,
    PoleError,
    ZeroTemperatureBEC,
    bose_g,
    condensate_fraction,
    critical_temperature_density,
    density_at,
    finite_difference,
    grand_potential,
    pressure_at,
    solve_gap_isochore,
    susceptibility,
    zeta,
)
from bose_eos.gas import _scales
from bose_eos.special import SMALL_Y_SWITCH

SPEC32 = GasSpec(d=3.0, sigma=2.0)


def test_tc_density_normalization():
    # rho chosen so the bracket in T_c(rho) is exactly (2 pi)^(-3/2)
    rho = zeta(1.5) / (2.0 * math.pi) ** 1.5
    assert critical_temperature_density(SPEC32, rho) == pytest.approx(1.0, rel=1e-13)


def test_tc_density_power_law():
    rho = 0.37
    ratio = critical_temperature_density(SPEC32, 8.0 * rho) / critical_temperature_density(
        SPEC32, rho
    )
    assert ratio == pytest.approx(4.0, rel=1e-13)


@pytest.mark.parametrize("d,sigma", [(2.0, 2.0), (1.0, 2.0), (1.5, 1.5), (1.0, 1.2)])
def test_tc_density_zero_temperature_regime(d, sigma):
    with pytest.raises(ZeroTemperatureBEC):
        critical_temperature_density(GasSpec(d=d, sigma=sigma), 1.0)


def test_tc_density_domain():
    with pytest.raises(DomainError):
        critical_temperature_density(SPEC32, 0.0)
    with pytest.raises(DomainError):
        critical_temperature_density(SPEC32, -2.0)


def test_solve_at_tc_is_critical():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    pt = solve_gap_isochore(SPEC32, tc, rho)
    assert pt.regime == "critical"
    assert pt.r == 0.0
    assert pt.psi2 == 0.0


def test_condensate_fraction_half():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    pt = solve_gap_isochore(SPEC32, tc / 2.0 ** (2.0 / 3.0), rho)
    assert pt.regime == "condensed"
    assert pt.psi2 == pytest.approx(0.5, rel=1e-13)
    assert pt.r == 0.0
    assert condensate_fraction(SPEC32, tc / 2.0 ** (2.0 / 3.0), rho) == pytest.approx(
        0.5, rel=1e-13
    )


@pytest.mark.parametrize("d,sigma", [(3.0, 2.0), (3.0, 1.8), (3.0, 1.5)])
def test_normal_phase_roundtrip(d, sigma):
    spec = GasSpec(d=d, sigma=sigma)
    rho = 1.0
    tc = critical_temperature_density(spec, rho)
    for T in np.linspace(1.001 * tc, 3.0 * tc, 12):
        pt = solve_gap_isochore(spec, float(T), rho)
        assert pt.regime == "normal"
        assert pt.psi2 == 0.0
        assert pt.r > 0.0
        assert density_at(spec, float(T), pt.r) == pytest.approx(rho, rel=1e-10)


def test_integer_order_solver_route():
    # d/sigma exactly 2: the solver must work through the direct series
    spec = GasSpec(d=3.0, sigma=1.5)
    rho = 1.0
    tc = critical_temperature_density(spec, rho)
    pt = solve_gap_isochore(spec, 1.2 * tc, rho)
    assert density_at(spec, 1.2 * tc, pt.r) == pytest.approx(rho, rel=1e-10)


def test_isochore_pressure_comes_from_the_pass_that_verifies_the_gap(monkeypatch):
    # Where (nu + 1) - 1 rounds to nu, the series-route passes after the
    # start are pairs of order nu + 1: the second sum is g_nu for the check,
    # its first the pressure's g_(nu+1), bit for bit a separate bose_g pass,
    # so the state makes no call of its own. nu = 2.6 / 2 = 1.3 rounds
    # differently and keeps the separate call.
    rng = random.Random(30)
    specs = [GasSpec(d=2.6, sigma=2.0)]
    while len(specs) < 8:
        d, sigma = rng.uniform(1.2, 8.0), rng.uniform(0.5, 2.0)
        if d > 1.1 * sigma and d / sigma + 1.0 - 1.0 == d / sigma:
            specs.append(GasSpec(d=d, sigma=sigma))
    solve, pair = bose_eos.isochore.solve_bose_equation, bose_eos.rootfind._bose_pair
    calls, pair_orders, rows = [], [], []

    def spy(order, y):
        calls.append(order)
        return bose_g(order, y)

    def pair_spy(order, y):
        pair_orders.append(order)
        return pair(order, y)

    for spec in specs:
        nu = spec.d_over_sigma
        tc = critical_temperature_density(spec, 1.0)
        for T in (tc * 10.0 ** rng.uniform(0.5, 2.0) for _ in range(12)):
            with monkeypatch.context() as patch:
                patch.setattr(bose_eos.isochore, "bose_g", spy)
                patch.setattr(bose_eos.rootfind, "_bose_pair", pair_spy)
                del calls[:], pair_orders[:]
                pt = solve_gap_isochore(spec, T, 1.0)
            with monkeypatch.context() as patch:  # order nu passes alone, the pressure summed anew
                patch.setattr(
                    bose_eos.isochore, "solve_bose_equation", lambda *a: (solve(*a[:3])[0], None)
                )
                separate = solve_gap_isochore(spec, T, 1.0)
            assert pt.regime == "normal" and pt == separate, (spec, T)
            if pt.r / T >= SMALL_Y_SWITCH:
                reuse = nu + 1.0 - 1.0 == nu
                assert calls == ([] if reuse else [nu + 1.0]), (spec, T, calls)
                assert (nu + 1.0 in pair_orders) == reuse, (spec, T, pair_orders)
                rows.append(spec)
    assert len(rows) >= 80 and rows.count(specs[0]) == 12, len(rows)


def test_gap_monotone_in_temperature():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    ts = np.linspace(1.01 * tc, 4.0 * tc, 10)
    gaps = [solve_gap_isochore(SPEC32, float(T), rho).r for T in ts]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_gap_vanishes_approaching_tc():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    r_close = solve_gap_isochore(SPEC32, tc * (1.0 + 1e-7), rho).r
    assert 0.0 < r_close < 1e-6
    psi_close = solve_gap_isochore(SPEC32, tc * (1.0 - 1e-7), rho).psi2
    assert 0.0 < psi_close < 1e-6


def test_critical_window_reports_critical():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    pt = solve_gap_isochore(SPEC32, tc * (1.0 + 0.5 * CRITICAL_WINDOW), rho)
    assert pt.regime == "critical"
    assert pt.r == 0.0


def test_reduced_temperature_field():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    pt = solve_gap_isochore(SPEC32, 1.5 * tc, rho)
    assert pt.t == pytest.approx(0.5, rel=1e-12)
    assert pt.mu == -pt.r


def test_pressure_limits_and_monotonicity():
    T = 1.3
    p0 = pressure_at(SPEC32, T, 0.0)
    nat_pref = (T / (2.0 * math.pi)) ** 1.5
    assert p0 == pytest.approx(T * nat_pref * zeta(2.5), rel=1e-12)
    ps = [pressure_at(SPEC32, T, r) for r in (0.0, 0.1, 1.0, 10.0, 80.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    # deep in the dilute regime only the first Boltzmann term survives
    assert ps[-1] == pytest.approx(T * nat_pref * math.exp(-80.0 / T), rel=1e-6, abs=0.0)


def test_pressure_decreases_below_tc_through_solver():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    ts = np.linspace(0.3 * tc, 0.95 * tc, 6)
    pressures = [solve_gap_isochore(SPEC32, float(T), rho).P for T in ts]
    assert all(b > a for a, b in zip(pressures, pressures[1:]))


def test_grand_potential_is_minus_pv_at_zero_field():
    T, r, V = 1.7, 0.4, 3.0
    omega = grand_potential(SPEC32, T, r, volume=V)
    assert omega == pytest.approx(-pressure_at(SPEC32, T, r) * V, rel=1e-12)


def test_grand_potential_field_pole():
    with pytest.raises(PoleError):
        grand_potential(SPEC32, 1.0, 0.0, h=0.5)


def test_grand_potential_in_the_si_precision_window():
    # at SI d = 14.2, 1/V = 1 m^-d is subnormal in natural units, but
    # Omega = -V P is an ordinary double
    spec, T, r = GasSpec(14.2, 2.0, 1e-26, "si"), 1e-6, 1e-30
    assert grand_potential(spec, T, r) == pytest.approx(-pressure_at(spec, T, r), rel=1e-12)
    # a volume at which the field term -h^2 / (N r) is an eighth of -V P
    h, n_particles, V = 1e-16, 3.0, 1e-60
    omega = grand_potential(spec, T, r, h=h, n_particles=n_particles, volume=V)
    expected = -V * pressure_at(spec, T, r) - h * h / (n_particles * r)
    assert omega == pytest.approx(expected, rel=1e-12)


def test_susceptibility_identity():
    # Psi = h/(N r) from the field derivative; chi_T = dPsi/dh = 1/(N r)
    T, r, n_particles = 1.2, 0.7, 5.0

    def omega_of_h(h):
        return grand_potential(SPEC32, T, r, h=h, n_particles=n_particles)

    d_omega = finite_difference(omega_of_h, 0.3, 1e-5).value
    psi = 0.3 / (n_particles * r)
    assert d_omega == pytest.approx(-2.0 * psi, rel=1e-8)
    assert susceptibility(r, n_particles) == pytest.approx(1.0 / (n_particles * r))
    assert susceptibility(0.0) == math.inf


def test_entropy_consistency():
    # At fixed r and h = 0, dOmega/dT must equal -d(PV)/dT, both numerical
    T, r, V = 1.5, 0.6, 2.0
    h_step = 1e-6 * T
    d_omega = finite_difference(
        lambda temp: grand_potential(SPEC32, temp, r, volume=V), T, h_step
    ).value
    entropy = finite_difference(
        lambda temp: pressure_at(SPEC32, temp, r) * V, T, h_step
    ).value
    assert d_omega == pytest.approx(-entropy, rel=1e-5)


def test_solver_matches_between_unit_systems():
    # the same physical state solved in SI must convert to the natural one
    hbar, kb = 1.054571817e-34, 1.380649e-23
    mass_si = 1.0  # kg, so the natural-mass is 1 as well
    spec_nat = GasSpec(d=3.0, sigma=2.0, mass=1.0)
    spec_si = GasSpec(d=3.0, sigma=2.0, mass=mass_si, units="si")
    length0 = hbar / math.sqrt(kb)
    rho_nat = 0.8
    rho_si = rho_nat / length0**3
    T = 2.0  # kelvin and natural coincide (the kelvin is the base unit)
    pt_nat = solve_gap_isochore(spec_nat, T, rho_nat)
    pt_si = solve_gap_isochore(spec_si, T, rho_si)
    assert pt_si.r == pytest.approx(pt_nat.r * kb, rel=1e-10, abs=0.0)
    assert pt_si.t == pytest.approx(pt_nat.t, rel=1e-10)
    assert pt_si.P == pytest.approx(pt_nat.P * kb / length0**3, rel=1e-10)


def test_validation_errors():
    with pytest.raises(DomainError):
        solve_gap_isochore(SPEC32, -1.0, 1.0)
    with pytest.raises(DomainError):
        pressure_at(SPEC32, 1.0, -0.1)
    with pytest.raises(DomainError):
        grand_potential(SPEC32, 1.0, 0.5, volume=-1.0)
    with pytest.raises(DomainError):
        susceptibility(-0.5)
    # a NaN gap fails r >= 0; the test r < 0 once let it through
    for evaluator in (pressure_at, density_at, grand_potential):
        with pytest.raises(DomainError, match="gap must be >= 0"):
            evaluator(SPEC32, 1.0, math.nan)
    with pytest.raises(DomainError, match="gap must be >= 0"):
        susceptibility(math.nan)


@pytest.mark.parametrize("n_particles", [0.0, -2.0, math.nan])
def test_susceptibility_needs_a_positive_particle_count(n_particles):
    # 0 once raised a bare ZeroDivisionError and -2 returned -0.5
    for r in (0.0, 0.7):
        with pytest.raises(DomainError, match="particle count must be positive"):
            susceptibility(r, n_particles)
        with pytest.raises(DomainError, match="particle count must be positive"):
            grand_potential(SPEC32, 1.0, r, n_particles=n_particles)


@pytest.mark.parametrize(
    "evaluator, units",
    [(pressure_at, "natural"), (grand_potential, "natural"), (density_at, "si")],
)
def test_evaluator_overflow_is_a_domain_error_naming_the_state(evaluator, units):
    # at T = 1e200, T lambda_T^-d A ~ 1e498 in natural units, and the density
    # lambda_T^-d A zeta(1.5) ~ 1.7e299 / L0^3 ~ 7e366 in SI; each once came back as +-inf.
    # At d = 1000, sigma = 1, T = 1, y = 40 is classical and e^(ln(T^k lambda_T^-d A) - y)
    # = e^(2728 - 40) once raised a bare OverflowError
    # At SI d = 28, L0^d and L0^(d/2) are both subnormal: no density or pressure converts
    spec = GasSpec(d=3.0, sigma=2.0, mass=1.0, units=units)
    for state, names in (
        ((spec, 1e200, 0.0), ("d=3", "sigma=2", "T=1e+200", "double range")),
        ((GasSpec(d=1000.0, sigma=1.0), 1.0, 40.0),
         ("d=1000", "sigma=1", "T=1.0", "double range")),
        ((GasSpec(28.0, 2.0, 1e-25, "si"), 1e-6, 1e-30),
         ("d=28", "sigma=2", "T=1e-06", "L0^(d/2)")),
    ):
        with pytest.raises(DomainError) as info:
            evaluator(*state)
        for part in names:
            assert part in str(info.value)
    # at y = r / T = 1200, T^k lambda_T^-d A overflows and g = e^-y underflows,
    # but the value, (T / 2 pi)^1.5 T^k e^-y in natural units, is a double
    energy, length = _scales(spec)
    k = 0 if evaluator is density_at else 1
    log_natural = (1.5 + k) * math.log(1e200) - 1.5 * math.log(2.0 * math.pi) - 1200.0
    expected = math.exp(log_natural) * energy**k / length**3
    assert abs(evaluator(spec, 1e200, 1200.0 * 1e200 * energy)) == pytest.approx(expected, rel=1e-12)
    # at y = 1e5 it underflows to zero instead of coming back NaN
    assert evaluator(spec, 1e200, 1e205 * energy) == 0.0


def test_convergence_error_names_the_failed_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise ConvergenceError("root finder did not converge")

    monkeypatch.setattr(bose_eos.isochore, "solve_bose_equation", fail)
    tc = critical_temperature_density(SPEC32, 1.0)
    with pytest.raises(ConvergenceError) as info:
        solve_gap_isochore(SPEC32, 2.0 * tc, 1.0)
    message = str(info.value)
    for part in ("d=3.0", "sigma=2.0", f"T={2.0 * tc!r}", "rho=1.0", "root finder"):
        assert part in message


def test_prefactor_overflow_is_a_domain_error_naming_the_state():
    # lambda_T^-d A = (T / 2 pi)^1.5 ~ e^719 leaves the doubles; the gap solves in
    # logs, but y* ~ 12 is not classical and P would need the prefactor itself
    with pytest.raises(DomainError) as info:
        solve_gap_isochore(SPEC32, 1e209, 1e307)
    message = str(info.value)
    for part in ("d=3.0", "sigma=2.0", "T=1e+209", "rho=1e+307", "double range"):
        assert part in message


@pytest.mark.parametrize("rho, regime", [(1e200, "normal"), (1e300, "condensed")])
def test_pressure_overflow_is_a_domain_error_naming_the_state(rho, regime):
    # finite inputs whose pressure leaves the doubles: P = rho T = 1e400 (classical),
    # and the condensed P(T, r = 0) ~ 1e499; both once came back as P = inf
    tc = critical_temperature_density(SPEC32, rho)
    assert (1e200 > tc) == (regime == "normal")
    with pytest.raises(DomainError) as info:
        solve_gap_isochore(SPEC32, 1e200, rho)
    for part in ("d=3.0", "sigma=2.0", "T=1e+200", f"rho={rho!r}", "double range"):
        assert part in str(info.value)


def test_condensed_state_where_t_over_tc_underflows():
    # T / T_c ~ 1e-333 underflows to 0: the condensate fraction is 1 and the
    # pressure underflows, where the log of the ratio once raised ValueError
    spec = GasSpec(d=2.0, sigma=1.0)
    T, rho = 1.4477430153839122e-233, 1.2657750657725159e194
    assert T / critical_temperature_density(spec, rho) == 0.0
    pt = solve_gap_isochore(spec, T, rho)
    assert pt.regime == "condensed" and pt.psi2 == 1.0 and pt.r == 0.0 and pt.P == 0.0
    assert condensate_fraction(spec, T, rho) == 1.0


def test_evaluators_and_condensed_states_where_a_leaves_the_doubles():
    # A(3000, 1) = e^15346 is past the doubles, but lambda_T^-d A near T_c ~ 0.0377
    # is of order 1: like T_c and the normal solves, the evaluators and the
    # condensed state take it from logs, where they once raised DomainError
    spec = GasSpec(d=3000.0, sigma=1.0)
    tc = critical_temperature_density(spec, 1.0)
    # rho(T_c) = 1, so P = T_c zeta(3001) / zeta(3000); the log-form exponents are
    # about 1.5e4, whose ulp (1.8e-12) bounds the relative agreement
    P = pressure_at(spec, tc, 0.0)
    assert abs(P - tc * zeta(3001.0) / zeta(3000.0)) <= 1e-12
    assert abs(density_at(spec, tc, 0.0) - 1.0) <= 4e-12
    assert grand_potential(spec, tc, 0.0) == -P
    pt = solve_gap_isochore(spec, 0.5 * tc, 1.0)
    assert pt.regime == "condensed" and math.isfinite(pt.P)
    pt = solve_gap_isochore(spec, 0.999 * tc, 1.0)
    assert pt.regime == "condensed" and pt.P == pressure_at(spec, 0.999 * tc, 0.0) > 0.0


def test_subnormal_natural_density_is_a_domain_error_naming_the_state():
    # rho L0^d is subnormal: the solve would work on a density with a few bits
    spec = GasSpec(d=3.0, sigma=2.0, mass=1e-26, units="si")
    rho = 1e-250  # m^-3; L0^3 ~ 2.3e-68
    tc = critical_temperature_density(spec, rho)
    with pytest.raises(DomainError) as info:
        solve_gap_isochore(spec, 2.0 * tc, rho)
    for part in ("d=3.0", "sigma=2.0", "rho=1e-250", "normal doubles"):
        assert part in str(info.value)
    # no solve runs on a held density that fails to convert
    assert str(info.value).startswith(f"isochore state at d=3.0, sigma=2.0, T={2.0 * tc!r}, ")


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
def test_a_state_past_the_unit_map_is_a_domain_error_naming_the_state(ratio):
    # SI at d = 28: neither L0^d nor L0^(d/2) is a normal double, so the pressure of a
    # condensed or critical state, and the held density of a normal one, fail to convert;
    # no row gets as far as a gap solve
    spec = GasSpec(28.0, 2.0, 1e-25, "si")
    T = ratio * critical_temperature_density(spec, 1e20)
    with pytest.raises(DomainError) as info:
        solve_gap_isochore(spec, T, 1e20)
    for part in ("d=28.0", "sigma=2.0", f"T={T!r}", "rho=1e+20", "L0^(d/2)"):
        assert part in str(info.value)
    assert str(info.value).startswith(f"isochore state at d=28.0, sigma=2.0, T={T!r}, rho=1e+20: ")
