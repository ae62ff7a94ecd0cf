"""Effective free energy, equation of state, exponents."""

import math

import numpy as np
import pytest

from bose_eos import (
    BranchError,
    DomainError,
    FitError,
    GasSpec,
    UnsupportedRegime,
    chemical_potential_asymptotic,
    correlation_quantities,
    critical_temperature_density,
    dispersion_coefficient,
    equation_of_state,
    extract_exponents,
    fit_exponent,
    landau_free_energy,
    landau_model,
    landau_taylor_coefficients,
    loglog_slope,
    solve_gap_isochore,
    zeta_dirichlet,
)

SPEC32 = GasSpec(d=3.0, sigma=2.0)


@pytest.mark.parametrize("d,sigma", [(4.0, 2.0), (4.5, 2.0), (1.9, 2.0), (2.4, 1.2)])
def test_window_rejected_outside_sigma_d_2sigma(d, sigma):
    with pytest.raises(UnsupportedRegime):
        landau_model(GasSpec(d=d, sigma=sigma), rho=1.0, t=0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0, -2.0])
def test_temperature_outside_t_above_minus_one_rejected(t):
    # once accepted: t = nan gave a row of nan and t = -2 a negative thermal energy
    with pytest.raises(DomainError, match="reduced temperature"):
        landau_model(SPEC32, rho=1.0, t=t)


def test_coefficient_against_independent_special_functions():
    # rebuild C_f with the Dirichlet-sum zeta and the stdlib Gamma through
    # the reflection formula, independent of the package's zeta and Gamma
    rho, t = 1.3, 0.02
    for d, sigma in ((3.0, 2.0), (3.0, 1.8), (2.2, 1.5)):
        spec = GasSpec(d=d, sigma=sigma)
        model = landau_model(spec, rho, t)
        nu = d / sigma
        gamma_reflected = math.pi / (math.sin(math.pi * nu) * math.gamma(nu))
        coeff = (zeta_dirichlet(nu) / abs(gamma_reflected)) ** (1.0 / (nu - 1.0))
        tc = critical_temperature_density(spec, rho)
        expected = (nu - 1.0) * coeff * tc * rho
        assert model.C_f == pytest.approx(expected, rel=1e-12)
        assert model.C_f > 0.0


def test_free_energy_polynomial_case():
    # d/(d - sigma) = 3 for (3, 2): f is literally C_f (psi^2 + 1.5 t)^3
    model = landau_model(SPEC32, rho=1.0, t=0.01)
    f = landau_free_energy(model, 0.2)
    assert f == pytest.approx(model.C_f * (0.04 + 0.015) ** 3, rel=1e-13)


def test_free_energy_zero_at_base_point():
    model = landau_model(SPEC32, rho=1.0, t=0.0)
    assert landau_free_energy(model, 0.0) == 0.0
    assert chemical_potential_asymptotic(model, 0.0) == 0.0


def test_ordered_root_is_stationary_zero():
    model = landau_model(SPEC32, rho=1.0, t=-0.1)
    psi_root = math.sqrt(0.15)
    assert landau_free_energy(model, psi_root) == 0.0
    assert equation_of_state(model, psi_root) == 0.0
    assert chemical_potential_asymptotic(model, psi_root) == pytest.approx(0.0, abs=1e-30)


def test_equation_of_state_roots_and_signs():
    model = landau_model(SPEC32, rho=1.0, t=0.1)
    assert equation_of_state(model, 0.0) == 0.0
    assert equation_of_state(model, 0.5) > 0.0
    cold = landau_model(SPEC32, rho=1.0, t=-0.1)
    # below t=0 everything under the ordered root sits on the forbidden
    # mu > 0 branch, Psi = 0 included
    with pytest.raises(BranchError):
        equation_of_state(cold, 0.1)
    with pytest.raises(BranchError):
        equation_of_state(cold, 0.0)
    assert equation_of_state(cold, 0.9) > 0.0


def test_branch_error_below_real_branch():
    model = landau_model(SPEC32, rho=1.0, t=-0.1)
    with pytest.raises(BranchError):
        landau_free_energy(model, 0.1)
    with pytest.raises(BranchError):
        chemical_potential_asymptotic(model, 0.1)


def test_chemical_potential_sign_and_asymptotics():
    rho = 1.0
    tc = critical_temperature_density(SPEC32, rho)
    errors = []
    for t in (1e-3, 1e-4, 1e-5):
        model = landau_model(SPEC32, rho, t)
        mu_asym = chemical_potential_asymptotic(model, 0.0)
        assert mu_asym < 0.0
        mu_exact = -solve_gap_isochore(SPEC32, tc * (1.0 + t), rho).r
        errors.append(abs(mu_asym / mu_exact - 1.0))
    assert errors[0] <= 0.05
    assert errors[-1] <= 0.005
    assert errors[0] > errors[1] > errors[2]


def test_taylor_coefficients_match_cubic_expansion():
    # (3,2): f = C_f (b0 + psi^2)^3, so the psi^2 and psi^4 coefficients
    # are 3 C_f b0^2 and 3 C_f b0
    t = 0.01
    model = landau_model(SPEC32, rho=1.0, t=t)
    b0 = model.d_over_sigma * t
    c2, c4 = landau_taylor_coefficients(model)
    assert c2 == pytest.approx(3.0 * model.C_f * b0**2, rel=1e-14)
    assert c4 == pytest.approx(3.0 * model.C_f * b0, rel=1e-14)


@pytest.mark.parametrize("t", [1e-5, 1e-3, 0.01])
def test_taylor_coefficients_at_a_non_integer_power(t):
    # (3, 1.8): f = C_f (b0 + psi^2)^(5/2), so the psi^2 and psi^4 coefficients
    # are (5/2) C_f b0^(3/2) and (15/8) C_f b0^(1/2)
    model = landau_model(GasSpec(d=3.0, sigma=1.8), rho=1.0, t=t)
    assert model.free_energy_exponent == pytest.approx(2.5, rel=1e-15)
    b0 = t * 3.0 / 1.8
    c2, c4 = landau_taylor_coefficients(model)
    assert c2 == pytest.approx(2.5 * model.C_f * b0 * math.sqrt(b0), rel=1e-14)
    assert c4 == pytest.approx(15.0 / 8.0 * model.C_f * math.sqrt(b0), rel=1e-14)


def test_taylor_coefficients_need_positive_t():
    model = landau_model(SPEC32, rho=1.0, t=-0.01)
    with pytest.raises(DomainError):
        landau_taylor_coefficients(model)


def test_correlation_length_and_susceptibility():
    c = dispersion_coefficient(SPEC32)
    corr = correlation_quantities(SPEC32, c)
    assert corr.xi == pytest.approx(1.0, rel=1e-13)
    r = 0.25
    corr = correlation_quantities(SPEC32, r)
    assert corr.chi(0.0) == pytest.approx(1.0 / r, rel=1e-13)
    assert corr.chi(1.0) == pytest.approx(1.0 / (c + r), rel=1e-13)
    assert correlation_quantities(SPEC32, 0.0).xi == math.inf
    for r in (-0.1, math.nan):
        with pytest.raises(DomainError):
            correlation_quantities(SPEC32, r)
    # c / r overflows at these gaps, xi itself does not: c = 0.5, r = 2^-1074 and 1e-310
    assert correlation_quantities(GasSpec(3.0, 2.0), 5e-324).xi == pytest.approx(
        2.0**536 * math.sqrt(2.0), rel=1e-13
    )
    assert correlation_quantities(GasSpec(3.0, 2.0), 1e-310).xi == pytest.approx(
        math.sqrt(0.5) / math.sqrt(1e-310), rel=1e-13
    )
    # xi = (0.5 / 1e-300)^2 is past the doubles
    with pytest.raises(DomainError, match="d=1, sigma=0.5, r=1e-300"):
        correlation_quantities(GasSpec(1.0, 0.5), 1e-300)


def test_critical_susceptibility_power_law():
    for sigma in (2.0, 1.8, 1.3):
        spec = GasSpec(d=3.0, sigma=sigma)
        chi = correlation_quantities(spec, 0.0).chi
        with pytest.raises(DomainError):
            chi(0.0)
        ks = np.geomspace(1e-3, 1.0, 10)
        slope, err = loglog_slope(ks, [chi(float(k)) for k in ks])
        assert slope == pytest.approx(-sigma, abs=1e-10)
        assert err < 1e-10


def test_fit_exponent_recovers_synthetic_power_law():
    ts = np.geomspace(1e-5, 1e-2, 16)
    curve = [(float(t), float(t) ** 1.7) for t in ts]
    fit = fit_exponent(curve, "gamma_from_r")
    assert fit.exponent == pytest.approx(1.7, abs=1e-6)
    assert fit.std_error < 1e-6
    inverse = [(float(t), float(t) ** -0.6) for t in ts]
    fit = fit_exponent(inverse, "nu_from_xi")
    assert fit.exponent == pytest.approx(0.6, abs=1e-6)


def test_fit_exponent_preconditions():
    ts = np.geomspace(1e-5, 1e-2, 16)
    good = [(float(t), float(t)) for t in ts]
    with pytest.raises(DomainError):
        fit_exponent(good, "bogus_kind")
    with pytest.raises(FitError):
        fit_exponent(good[:5], "gamma_from_r")  # too few points
    with pytest.raises(FitError):
        fit_exponent([(t, -v) for t, v in good], "gamma_from_r")  # negative values
    narrow = [(float(t), float(t)) for t in np.geomspace(1e-3, 5e-3, 16)]
    with pytest.raises(FitError):
        fit_exponent(narrow, "gamma_from_r")  # under two decades of t
    shifted = [(10.0 * t, v) for t, v in good]
    with pytest.raises(FitError):
        fit_exponent(shifted, "gamma_from_r")  # outside the (0, 1e-2] window


def test_extract_exponents_full_set():
    es = extract_exponents(SPEC32, rho=1.0)
    assert es.eta == 0.0
    assert es.gamma_ == pytest.approx(2.0)
    assert es.nu == pytest.approx(1.0)
    assert es.fitted_gamma.exponent == pytest.approx(2.0, rel=0.02)
    assert es.fitted_nu.exponent == pytest.approx(1.0, rel=0.02)
    assert es.fitted_eta == pytest.approx(0.0, abs=1e-3)
    assert es.fit_window == (1e-5, 1e-2)
    # the correlation length is an exact transform of the gap, so the
    # scaling relation gamma = sigma nu holds to rounding in the fits
    assert es.fitted_gamma.exponent == pytest.approx(
        2.0 * es.fitted_nu.exponent, abs=1e-12
    )


def test_extract_exponents_rejects_outside_window():
    with pytest.raises(UnsupportedRegime):
        extract_exponents(GasSpec(d=4.2, sigma=2.0), rho=1.0)
