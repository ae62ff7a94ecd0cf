"""Independent reference routes: box sums, Dirichlet zeta, naive series, stencils."""

import itertools
import math
import sys

import numpy as np
import pytest

from bose_eos import (
    BoxSpec,
    ConvergenceError,
    DivergentValue,
    DomainError,
    GasSpec,
    bose_g,
    density_at,
    finite_density,
    finite_difference,
    series_sum_highprec,
    zeta_dirichlet,
)
import bose_eos.oracle
from bose_eos.oracle import _N_MAX_CAP, _TAIL_RTOL, _box_sum, _mode_multiplicities

SPEC32 = GasSpec(d=3.0, sigma=2.0)


def test_zeta_dirichlet_known_values():
    assert zeta_dirichlet(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert zeta_dirichlet(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)
    assert zeta_dirichlet(1.5) == pytest.approx(2.612375348685488, rel=1e-14)
    # continuation side, where the Dirichlet sum alone diverges
    assert zeta_dirichlet(0.0) == pytest.approx(-0.5, rel=1e-12)
    assert zeta_dirichlet(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert zeta_dirichlet(-3.0) == pytest.approx(1.0 / 120.0, rel=1e-11)


@pytest.mark.parametrize("s", [-14.5, -7.3, -0.5, 0.3, 1.2, 1.5, 2.5, 6.0, 30.0])
def test_zeta_dirichlet_matches_mpmath(s):
    mpmath = pytest.importorskip("mpmath")
    assert zeta_dirichlet(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)


def test_zeta_dirichlet_domain():
    with pytest.raises(DomainError):
        zeta_dirichlet(1.0)
    with pytest.raises(DomainError):
        zeta_dirichlet(-15.5)


@pytest.mark.parametrize("nu", [0.3, 1.2, 1.5, 2.5, 3.5])
@pytest.mark.parametrize("y", [1e-4, 1e-3, 0.1, 1.0, 10.0])
def test_series_sum_matches_production_route(nu, y):
    assert series_sum_highprec(nu, y) == pytest.approx(bose_g(nu, y).value, rel=1e-12)


def test_series_sum_boundary_and_domain():
    assert series_sum_highprec(2.5, 0.0) == zeta_dirichlet(2.5)
    with pytest.raises(DivergentValue):
        series_sum_highprec(1.0, 0.0)
    with pytest.raises(DomainError):
        series_sum_highprec(1.5, -1e-3)
    with pytest.raises(DomainError):
        series_sum_highprec(0.0, 1.0)


def test_series_sum_large_argument_first_term_dominates():
    y = 40.0
    total = series_sum_highprec(1.5, y)
    two_terms = math.exp(-y) + math.exp(-2.0 * y) / 2.0**1.5
    assert total == pytest.approx(two_terms, rel=1e-15)


@pytest.mark.parametrize("nu", [1.0, 2.0, 3.0, 4.0, 1.0 + 1e-9, 2.0 - 1e-6, 3.0 + 1e-3, 4.0 - 1e-9])
@pytest.mark.parametrize("y", [1e-9, 3e-8, 1e-7, 5e-7])
def test_series_sum_small_argument_matches_mpmath(nu, y):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(mpmath.polylog(nu, mpmath.exp(-mpmath.mpf(y))))
    assert series_sum_highprec(nu, y) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_series_sum_below_the_argument_floor_is_a_convergence_error():
    with pytest.raises(ConvergenceError, match="y >= 1e-09"):
        series_sum_highprec(1.5, 9e-10)


def test_series_sum_deterministic():
    assert series_sum_highprec(1.5, 1e-4) == series_sum_highprec(1.5, 1e-4)


def test_finite_difference_stencils():
    est = finite_difference(lambda x: x * x, 3.0, 1e-3)
    assert est.value == pytest.approx(6.0, rel=1e-10)

    # with truncation dominating, the step-halving gap tracks the true error
    est = finite_difference(math.exp, 1.0, 1e-2)
    assert abs(est.value - math.e) <= 1.5 * est.est_error + 1e-14

    for side in ("forward", "backward"):
        est = finite_difference(lambda x: x * x, 3.0, 1e-4, side=side)
        assert est.value == pytest.approx(6.0, rel=1e-8)

    # one-sided stencil never samples below the evaluation point
    est = finite_difference(math.sqrt, 0.0, 1e-4, side="forward")
    assert math.isfinite(est.value)


def test_finite_difference_richardson_gains_order():
    fn = math.exp
    plain = finite_difference(fn, 1.0, 1e-2)
    refined = finite_difference(fn, 1.0, 1e-2, richardson=True)
    assert abs(refined.value - math.e) < abs(plain.value - math.e)
    assert abs(refined.value - math.e) < 1e-9


def test_finite_difference_domain():
    with pytest.raises(DomainError):
        finite_difference(math.exp, 0.0, 0.0)
    with pytest.raises(DomainError):
        finite_difference(math.exp, 0.0, 1e-3, side="sideways")


def test_box_spec_validation():
    with pytest.raises(DomainError):
        BoxSpec(L=8.0, d=4)
    with pytest.raises(DomainError):
        BoxSpec(L=0.0, d=3)
    with pytest.raises(DomainError):
        BoxSpec(L=8.0, d=3, n_max=0)
    with pytest.raises(DomainError):  # the 32-bit count bound is checked up to the cap
        BoxSpec(L=8.0, d=3, n_max=_N_MAX_CAP + 1)


def test_finite_density_domain():
    box = BoxSpec(L=8.0, d=3)
    with pytest.raises(DomainError):
        finite_density(GasSpec(d=2.5, sigma=2.0), box, T=1.0, mu=-0.1)
    with pytest.raises(DomainError):
        finite_density(GasSpec(d=2.0, sigma=2.0), box, T=1.0, mu=-0.1)
    with pytest.raises(DomainError):
        finite_density(SPEC32, box, T=0.0, mu=-0.1)
    with pytest.raises(DomainError):
        finite_density(SPEC32, box, T=1.0, mu=0.0)  # k=0 occupation diverges


@pytest.mark.parametrize(
    "sigma, mass, L, names",
    [
        # (2 pi / L)^2 overflows
        (2.0, 1.0, 1e-160, r"mode energy .* box edge L=1e-160 \(natural units\), sigma=2,"),
        # (2 pi / L)^2 is a double, over 2m it is not
        (2.0, 1e-300, 1e-100, r"mode energy .* box edge L=1e-100 .* mass=1e-300"),
        # L^3 underflows
        (0.5, 1.0, 1e-160, r"box volume L\^d = 0\.0 .* box edge L=1e-160, d=3"),
    ],
)
def test_finite_density_outside_the_doubles_is_a_domain_error(sigma, mass, L, names):
    with pytest.raises(DomainError, match=names):
        finite_density(GasSpec(d=3.0, sigma=sigma, mass=mass), BoxSpec(L=L, d=3), 1.0, -0.5)


def test_finite_density_converges_to_bulk():
    T, r = 1.0, 0.5
    bulk = density_at(SPEC32, T, r)
    errors = []
    for L in (4.0, 8.0, 16.0):
        box_density = finite_density(SPEC32, BoxSpec(L=L, d=3), T=T, mu=-r)
        errors.append(abs(box_density / bulk - 1.0))
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] <= 1e-3
    assert errors[2] <= 1e-6


def test_finite_density_explicit_cutoff():
    box_auto = BoxSpec(L=8.0, d=3)
    box_wide = BoxSpec(L=8.0, d=3, n_max=64)
    kwargs = dict(T=1.0, mu=-0.5)
    assert finite_density(SPEC32, box_wide, **kwargs) == pytest.approx(
        finite_density(SPEC32, box_auto, **kwargs), rel=1e-13
    )
    with pytest.raises(ConvergenceError):
        finite_density(SPEC32, BoxSpec(L=8.0, d=3, n_max=2), **kwargs)


# (L, T, r) per sigma, with chosen cutoffs from 1 to about 30
BOX_CASES = {
    0.5: [(1.0, 0.1, 0.5), (4.0, 0.05, 0.01), (0.5, 0.3, 0.05)],
    1.0: [(2.0, 1.0, 0.5), (8.0, 0.3, 0.05), (4.0, 0.05, 0.01)],
    2.0: [(2.0, 1.0, 0.5), (8.0, 0.3, 0.05), (16.0, 1.0, 0.5)],
}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "sigma, L, T, r", [(sigma, *case) for sigma, cases in BOX_CASES.items() for case in cases]
)
def test_automatic_cutoff_bounds_what_a_cube_twice_as_wide_adds(monkeypatch, d, sigma, L, T, r):
    cutoffs = []

    def spy(dim, n_max):
        cutoffs.append(n_max)
        return _mode_multiplicities(dim, n_max)

    monkeypatch.setattr(bose_eos.oracle, "_mode_multiplicities", spy)
    spec = GasSpec(d=float(d), sigma=sigma)
    density = finite_density(spec, BoxSpec(L=L, d=d), T=T, mu=-r)
    assert len(cutoffs) == 1  # one sum, at the chosen cutoff
    n = cutoffs[0]
    total = _box_sum(spec, L, T, r, n)
    assert density == total / L**d
    wider = _box_sum(spec, L, T, r, 2 * n)
    # each fsum rounds once
    assert 0.0 <= wider - total <= (0.1 * _TAIL_RTOL + 4.0 * sys.float_info.epsilon) * total


def test_box_past_the_cutoff_cap_fails_before_any_mode_count(monkeypatch):
    def spy(dim, n_max):
        pytest.fail(f"mode counts built at n_max={n_max}")

    monkeypatch.setattr(bose_eos.oracle, "_mode_multiplicities", spy)
    with pytest.raises(ConvergenceError, match="past the cap"):
        finite_density(SPEC32, BoxSpec(L=200.0, d=3), T=1.0, mu=-0.5)


def test_finite_density_zero_mode_dominates_at_low_temperature():
    # r/T tiny and the first excited level costs many T: the k=0 term is
    # the whole sum to high accuracy, pinning down its inclusion
    spec, L, T, r = SPEC32, 5.0, 0.1, 1e-6
    expected = 1.0 / (math.expm1(r / T) * L**3)
    assert finite_density(spec, BoxSpec(L=L, d=3), T=T, mu=-r) == pytest.approx(
        expected, rel=1e-3
    )


def test_finite_density_deterministic():
    box = BoxSpec(L=8.0, d=3)
    first = finite_density(SPEC32, box, T=1.0, mu=-0.5)
    assert finite_density(SPEC32, box, T=1.0, mu=-0.5) == first


def test_finite_density_one_and_two_dimensions():
    # d < 2 sigma has no condensation but the box sum is still defined for
    # any mu < 0; cross-check against the bulk integral route
    for d in (1, 2):
        spec = GasSpec(d=float(d), sigma=2.0)
        bulk = density_at(spec, 1.0, 0.8)
        box = finite_density(spec, BoxSpec(L=24.0, d=d), T=1.0, mu=-0.8)
        assert box == pytest.approx(bulk, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mode_multiplicities_count_integer_vectors(d):
    n_max = 3
    brute = np.zeros(d * n_max**2 + 1)
    for n in itertools.product(range(-n_max, n_max + 1), repeat=d):
        brute[sum(k * k for k in n)] += 1.0
    assert np.array_equal(_mode_multiplicities(d, n_max), brute)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_max", [1, 2, 17, 128])
def test_mode_multiplicities_equal_the_axis_convolution(d, n_max):
    # the dense convolution of the per-axis counts, entry for entry
    axis = np.zeros(n_max * n_max + 1)
    axis[0] = 1.0
    axis[np.arange(1, n_max + 1) ** 2] = 2.0
    expected = axis
    for _ in range(d - 1):
        expected = np.convolve(expected, axis)
    assert _mode_multiplicities(d, n_max).tolist() == expected.tolist()


def test_mode_multiplicities_at_the_cutoff_cap():
    # every vector of the widest cube is counted once: no 32-bit slot carried
    counts = _mode_multiplicities(3, _N_MAX_CAP)
    assert len(counts) == 3 * _N_MAX_CAP**2 + 1
    assert sum(counts) == (2 * _N_MAX_CAP + 1) ** 3
