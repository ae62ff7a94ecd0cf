"""Acceptance suite: one test and one printed PASS/FAIL verdict per criterion.

Each test measures its own figure of merit, prints a single line
    PASS <name>: <measured> (budget <tolerance>)
and then asserts, so a plain `pytest -v` run shows every verdict (stdout of
passing tests is echoed by the -rP option set in pyproject.toml).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from bose_eos import (
    BoxSpec,
    GasSpec,
    bose_g,
    chemical_potential_asymptotic,
    critical_temperature_density,
    critical_temperature_pressure,
    density_at,
    extract_exponents,
    finite_density,
    finite_difference,
    landau_free_energy,
    landau_model,
    landau_taylor_coefficients,
    loglog_slope,
    prefactor_A,
    pressure_at,
    series_sum_highprec,
    solve_gap_isochore,
    zeta_dirichlet,
)

SPEC32 = GasSpec(d=3.0, sigma=2.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_bose_function_fidelity():
    start = time.perf_counter()
    worst = 0.0
    for nu in (1.2, 1.5, 2.5, 2.8):
        for y in (1e-4, 1e-2, 0.1, 1.0, 5.0):
            worst = max(worst, abs(bose_g(nu, y).value - series_sum_highprec(nu, y)))
        worst = max(worst, abs(bose_g(nu, 0.0).value - zeta_dirichlet(nu)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        "bose-function-fidelity",
        ok,
        f"max abs deviation {worst:.3e} (tol 1e-12), {elapsed:.2f} s (budget 1 s)",
    )


def test_02_prefactor_is_unity_at_sigma_2():
    worst = max(abs(prefactor_A(d, 2.0) - 1.0) for d in (1.0, 1.7, 2.0, 3.0, 4.0))
    _report(
        "prefactor-A-unity-at-sigma-2",
        worst <= 1e-14,
        f"max |A(d,2)-1| = {worst:.3e} (tol 1e-14)",
    )


def test_03_isochore_round_trip():
    start = time.perf_counter()
    rho = 1.0
    worst = 0.0
    for d, sigma in ((3.0, 2.0), (3.0, 1.8), (3.0, 1.5)):
        spec = GasSpec(d=d, sigma=sigma)
        tc = critical_temperature_density(spec, rho)
        for T in np.linspace(1.001 * tc, 3.0 * tc, 20):
            point = solve_gap_isochore(spec, float(T), rho)
            worst = max(worst, abs(density_at(spec, float(T), point.r) / rho - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        "isochore-round-trip",
        ok,
        f"max relative density error {worst:.3e} (tol 1e-10), {elapsed:.2f} s (budget 5 s)",
    )


def test_04_condensate_fraction_law():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    worst = 0.0
    for T in np.linspace(0.05 * tc, tc, 20):
        point = solve_gap_isochore(SPEC32, float(T), rho)
        # below T_c the thermal branch at r=0 must carry exactly the
        # non-condensed share of the density
        residual = abs((1.0 - point.psi2) * rho - density_at(SPEC32, float(T), 0.0)) / rho
        law = abs(point.psi2 - (1.0 - (float(T) / tc) ** 1.5))
        worst = max(worst, residual, law)
    at_tc = solve_gap_isochore(SPEC32, tc, rho).psi2
    near_zero = solve_gap_isochore(SPEC32, 1e-6 * tc, rho).psi2
    ok = worst <= 1e-12 and at_tc == 0.0 and near_zero > 1.0 - 1e-8
    _report(
        "condensate-fraction-law",
        ok,
        f"max residual {worst:.3e} (tol 1e-12), psi2(T_c)={at_tc}, psi2(T->0)={near_zero:.12f}",
    )


def test_05_coexistence_closure():
    start = time.perf_counter()
    rho = 1.0
    worst = 0.0
    for d in (2.5, 3.0, 3.5):
        for sigma in (1.2, 1.6, 2.0):
            spec = GasSpec(d=d, sigma=sigma)
            tc_rho = critical_temperature_density(spec, rho)
            p_c = pressure_at(spec, tc_rho, 0.0)
            worst = max(worst, abs(critical_temperature_pressure(spec, p_c) / tc_rho - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    _report(
        "coexistence-closure",
        ok,
        f"max |T_c(P_c(rho))/T_c(rho) - 1| = {worst:.3e} (tol 1e-8), {elapsed:.2f} s (budget 1 s)",
    )


def test_06_equation_of_state_stationarity():
    worst = 0.0
    for d, sigma in ((3.0, 2.0), (3.0, 1.8)):
        spec = GasSpec(d=d, sigma=sigma)
        for t in (-0.2, -0.1, -0.01):
            model = landau_model(spec, 1.0, t)
            psi_root = math.sqrt(-model.d_over_sigma * t)
            # below the root is off the real branch, so step upward only
            deriv = finite_difference(
                lambda psi: landau_free_energy(model, psi), psi_root, 1e-6, side="forward"
            )
            scale = 2.0 * model.C_f * model.free_energy_exponent
            worst = max(worst, abs(deriv.value) / scale)
    _report(
        "equation-of-state-stationarity",
        worst <= 1e-8,
        f"max normalized |df/dPsi| at ordered root = {worst:.3e} (tol 1e-8)",
    )


def test_07_asymptotic_chemical_potential():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    errors = {}
    for t in (1e-3, 1e-4, 1e-5):
        model = landau_model(SPEC32, rho, t)
        mu_exact = -solve_gap_isochore(SPEC32, tc * (1.0 + t), rho).r
        errors[t] = abs(chemical_potential_asymptotic(model, 0.0) / mu_exact - 1.0)
    decreasing = errors[1e-3] > errors[1e-4] > errors[1e-5]
    ok = errors[1e-3] <= 0.05 and errors[1e-5] <= 0.005 and decreasing
    _report(
        "asymptotic-chemical-potential",
        ok,
        f"ratio error {errors[1e-3]:.3e} at t=1e-3 (tol 0.05), "
        f"{errors[1e-5]:.3e} at t=1e-5 (tol 0.005), decreasing={decreasing}",
    )


def test_08_exponent_recovery():
    start = time.perf_counter()
    worst_gamma = worst_nu = worst_eta = worst_relation = 0.0
    for d, sigma in ((3.0, 2.0), (3.0, 1.8)):
        spec = GasSpec(d=d, sigma=sigma)
        es = extract_exponents(spec, rho=1.0)
        worst_gamma = max(worst_gamma, abs(es.fitted_gamma.exponent / es.gamma_ - 1.0))
        worst_nu = max(worst_nu, abs(es.fitted_nu.exponent / es.nu - 1.0))
        worst_eta = max(worst_eta, abs(es.fitted_eta - es.eta))
        combined = es.fitted_gamma.std_error + sigma * es.fitted_nu.std_error + 1e-12
        worst_relation = max(
            worst_relation,
            abs(es.fitted_gamma.exponent - sigma * es.fitted_nu.exponent) / combined,
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_gamma <= 0.02
        and worst_nu <= 0.02
        and worst_relation <= 1.0
        and worst_eta <= 1e-3
        and elapsed < 30.0
    )
    _report(
        "critical-exponent-recovery",
        ok,
        f"gamma off by {worst_gamma:.2%}, nu by {worst_nu:.2%} (tol 2%), "
        f"gamma=sigma*nu within {worst_relation:.2f} combined errors, "
        f"eta off by {worst_eta:.2e} (tol 1e-3), {elapsed:.1f} s (budget 30 s)",
    )


def test_09_finite_size_convergence():
    start = time.perf_counter()
    T, r = 1.0, 0.5  # beta r = 0.5
    bulk = density_at(SPEC32, T, r)
    edges = (2.0, 4.0, 8.0, 16.0)
    errors = [
        abs(finite_density(SPEC32, BoxSpec(L=L, d=3), T=T, mu=-r) / bulk - 1.0)
        for L in edges
    ]
    monotone = all(a > b for a, b in zip(errors, errors[1:]))
    l_star = 16.0  # documented edge; the 1e-3 threshold is first crossed at L=8
    at_l_star = errors[edges.index(l_star)]
    elapsed = time.perf_counter() - start
    ok = monotone and at_l_star <= 1e-3 and elapsed < 120.0
    _report(
        "finite-size-convergence",
        ok,
        f"relative error {at_l_star:.3e} at L*={l_star:g} (tol 1e-3), "
        f"monotone over L={edges}: {monotone}, {elapsed:.2f} s (budget 120 s)",
    )


def test_10_tricritical_coefficient_scaling():
    ts = np.geomspace(1e-5, 1e-2, 16)
    c2s, c4s = [], []
    for t in ts:
        c2, c4 = landau_taylor_coefficients(landau_model(SPEC32, 1.0, float(t)))
        c2s.append(c2)
        c4s.append(c4)
    p2, _ = loglog_slope(ts, c2s)
    p4, _ = loglog_slope(ts, c4s)
    # (3,2): sigma/(d-sigma) = 2 and (2 sigma - d)/(d - sigma) = 1
    err2 = abs(p2 / 2.0 - 1.0)
    err4 = abs(p4 / 1.0 - 1.0)
    ok = err2 <= 0.02 and err4 <= 0.02
    _report(
        "tricritical-coefficient-scaling",
        ok,
        f"Psi^2 coefficient power {p2:.4f} (target 2), "
        f"Psi^4 coefficient power {p4:.4f} (target 1), tol 2%",
    )


def test_11_cli_determinism_and_verify():
    args = [
        sys.executable, "-m", "bose_eos", "sweep",
        "--d", "3", "--sigma", "2", "--density", "1.0",
        "--tmin", "0.2", "--tmax", "2.0", "--points", "40",
    ]
    first = subprocess.run(args, capture_output=True, text=True, timeout=120)
    second = subprocess.run(args, capture_output=True, text=True, timeout=120)
    identical = first.returncode == 0 and first.stdout == second.stdout

    start = time.perf_counter()
    verify = subprocess.run(
        [sys.executable, "-m", "bose_eos", "verify", "--level", "quick"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    ok = identical and verify.returncode == 0 and elapsed < 10.0
    _report(
        "cli-determinism-and-self-check",
        ok,
        f"sweep outputs byte-identical={identical}, verify exit={verify.returncode}, "
        f"{elapsed:.2f} s (budget 10 s)",
    )
