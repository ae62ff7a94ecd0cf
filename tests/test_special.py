"""Bose function, zeta, and Gamma evaluation."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bose_eos import (
    DivergentValue,
    DomainError,
    EvalResult,
    PoleError,
    bose_g,
    bose_g_derivative,
    gamma,
    series_sum_highprec,
    zeta,
)
from bose_eos.special import (
    CLASSICAL_Y,
    SMALL_Y_SWITCH,
    _bose_any_order,
    _bose_expansion,
    _bose_pair,
    _bose_series,
    _expansion_constants,
    _series_powers,
    _series_reach,
    _series_terms_needed,
)

_EPS = float(np.finfo(np.float64).eps)

NU_GRID = [1.2, 1.5, 2.0, 2.5, 2.8, 3.5]
Y_GRID = [1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0]


def test_zeta_classical_values():
    assert zeta(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert zeta(4.0) == pytest.approx(math.pi**4 / 90.0, rel=1e-14)


def test_zeta_pole():
    with pytest.raises(PoleError):
        zeta(1.0)


def test_zeta_against_mpmath_to_four_ulp():
    # Borwein's series above -1e-3, the functional equation below; relative
    # accuracy holds next to the trivial zeros too, where it is the stronger claim
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(8)
    grid = np.linspace(-40.0, 12.0, 521).tolist() + [rng.uniform(-40.0, 12.0) for _ in range(500)]
    grid += [-2.0 * k + d for k in range(1, 21) for d in (1e-12, -1e-12, 1e-6, -1e-6, 1e-3, -1e-3)]
    grid += [1e-300, -1e-300, -1e-3, 1.0 - 1e-12, 1.0 + 1e-12]
    with mpmath.workdps(40):
        for s in grid:
            if s == 1.0:
                continue
            if s < 0.0 and s == 2.0 * round(s / 2.0):
                assert zeta(s) == 0.0, s
                continue
            ref = mpmath.zeta(s)
            assert abs(zeta(s) - ref) <= 4.0 * _EPS * abs(ref), s


def test_gamma_classical_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    # reflection-formula value used inside |Gamma(1 - d/sigma)| for d=3, sigma=2
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_bose_g_at_zero_is_zeta():
    for nu in [1.2, 1.5, 2.5, 2.8, 3.5]:
        res = bose_g(nu, 0.0)
        assert res.value == pytest.approx(zeta(nu), abs=1e-12)


def test_bose_g_zeta_three_halves():
    # g_{3/2}(0) = zeta(3/2), checked against the literature digits
    assert bose_g(1.5, 0.0).value == pytest.approx(2.612375348685488, abs=1e-12)


def test_bose_g_against_brute_force():
    for nu in NU_GRID:
        for y in Y_GRID:
            res = bose_g(nu, y)
            ref = series_sum_highprec(nu, y)
            assert res.value == pytest.approx(ref, abs=1e-12), (nu, y)


def test_bose_g_error_estimates_hold():
    for nu in NU_GRID:
        for y in Y_GRID:
            res = bose_g(nu, y)
            ref = series_sum_highprec(nu, y)
            assert abs(res.value - ref) <= max(res.est_error, 1e-15)


def test_bose_g_large_argument_decay():
    # g_nu(y) <= e^-y zeta(nu): every term is dominated
    for nu in [1.5, 2.0]:
        val = bose_g(nu, 40.0).value
        assert 0.0 < val <= math.exp(-40.0) * zeta(2.0)


def test_bose_g_monotone_decreasing_in_y():
    for nu in NU_GRID:
        values = [bose_g(nu, y).value for y in sorted(Y_GRID)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_bose_g_domain_errors():
    with pytest.raises(DomainError):
        bose_g(0.0, 1.0)
    with pytest.raises(DomainError):
        bose_g(-1.5, 1.0)
    with pytest.raises(DomainError):
        bose_g(1.5, -1e-9)


@pytest.mark.parametrize("nu", [0.5, 1.0])
def test_bose_g_divergent_at_zero(nu):
    with pytest.raises(DivergentValue):
        bose_g(nu, 0.0)


def test_small_y_leading_behavior():
    # g_{3/2}(y) - zeta(3/2) -> Gamma(-1/2) sqrt(y) as y -> 0
    y = 1e-8
    lead = bose_g(1.5, y).value - zeta(1.5)
    assert lead == pytest.approx(-2.0 * math.sqrt(math.pi) * math.sqrt(y), rel=1e-3)


def test_small_y_expansion_consistency_grid():
    # non-integer orders on both sides of 2, small arguments
    for nu in [1.2, 1.5, 1.8, 2.2, 2.5, 2.8]:
        for y in [1e-3, 5e-3, 1e-2, 0.05]:
            res = bose_g(nu, y)
            ref = series_sum_highprec(nu, y)
            assert abs(res.value - ref) <= res.est_error + 1e-12, (nu, y)


def _series_max_terms(nu):
    """The series route's a-priori count at the switch: its longest cached table."""
    return len(_series_powers(nu)[-1])


def _route_max_terms(nu, y):
    """Terms a call may spend: the expansion's cached coefficients below the switch,
    the series' a-priori count at the switch (its cached powers) from there up."""
    return len(_expansion_constants(nu)[0]) if y < SMALL_Y_SWITCH else _series_max_terms(nu)


def test_small_y_expansion_against_mpmath():
    # Non-integer orders, the slope orders in (-1, 0] included, where the
    # coefficients fall like 1/k! up to k ~ nu before they fall by 2 pi per
    # step: the a-priori term count must hold there too (nu ~ 6, y ~ 3e-3).
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)
    cases = [(5.9, 3e-3), (6.013, 3e-3), (6.5, 3e-3), (7.999, 0.5), (-0.999, 0.99)]
    cases += [(rng.uniform(-1.0, 8.0), 10.0 ** rng.uniform(-10.0, 0.0)) for _ in range(400)]
    with mpmath.workdps(40):
        for nu, y in cases:
            if nu == -1.0 or nu == round(nu):
                continue
            res = _bose_any_order(nu, y)
            ref = float(mpmath.polylog(nu, mpmath.exp(-mpmath.mpf(y))))
            assert abs(res.value - ref) <= res.est_error, (nu, y, res)
            # (7.999, 0.5), (-0.999, 0.99) and the draws from y = 0.5 up take the series
            assert res.terms_used <= _route_max_terms(nu, y), (nu, y, res)
            if nu > 0.0:
                # g_nu grows like y^(nu - 1) for nu < 1, so the bound is relative there
                assert res.est_error <= 1e-12 * max(1.0, abs(ref)), (nu, y, res)


def test_series_route_against_mpmath():
    # The Horner series from the switch to the classical limit: integer and
    # near-integer orders, and the slope orders in (-1, 0], whose n^|nu| weights
    # grow with n; the round-off bound must hold for them too.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(14)
    orders = [n + offset for n in range(0, 9) for offset in (0.0, 1e-9, -1e-9, 1e-4, -1e-4)]
    orders = [nu for nu in orders if -1.0 < nu <= 8.0]
    orders += [rng.uniform(-1.0, 0.0) for _ in range(8)] + [rng.uniform(0.0, 8.0) for _ in range(8)]
    edges = [SMALL_Y_SWITCH, math.nextafter(SMALL_Y_SWITCH, 2.0), math.nextafter(CLASSICAL_Y, 0.0)]
    cases = [(nu, y) for nu in orders for y in edges]
    log_y_max = math.log(CLASSICAL_Y)
    log_y_min = math.log(SMALL_Y_SWITCH)
    cases += [(nu, math.exp(rng.uniform(log_y_min, log_y_max))) for nu in orders for _ in range(16)]
    assert len(cases) >= 1000
    with mpmath.workdps(40):
        for nu, y in cases:
            res = _bose_any_order(nu, y)
            ref = float(mpmath.polylog(nu, mpmath.exp(-mpmath.mpf(y))))
            assert abs(res.value - ref) <= res.est_error, (nu, y, res)
            assert res.terms_used <= _series_max_terms(nu), (nu, y, res)
            if nu > 0.0:
                assert res.est_error <= 1e-13 * abs(ref), (nu, y, res)


def test_both_sides_of_the_switch_against_mpmath():
    # The expansion on [0.25, 0.5) and the series on [0.5, 1): integer and
    # near-integer orders, and the slope orders in (-1, 0] the Newton step uses.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(15)
    orders = [n + offset for n in range(0, 9) for offset in (0.0, 1e-9, -1e-9, 1e-4, -1e-4)]
    orders = [nu for nu in orders if -1.0 < nu <= 8.0]
    orders += [-rng.random() for _ in range(8)]  # (-1, 0]
    ys = [0.25, math.nextafter(SMALL_Y_SWITCH, 0.0), SMALL_Y_SWITCH]
    ys += [math.nextafter(SMALL_Y_SWITCH, 1.0), math.nextafter(1.0, 0.0)]
    ys += [rng.uniform(0.25, SMALL_Y_SWITCH) for _ in range(6)]
    ys += [rng.uniform(SMALL_Y_SWITCH, 1.0) for _ in range(6)]
    with mpmath.workdps(40):
        for nu in orders:
            for y in ys:
                res = _bose_any_order(nu, y)
                ref = float(mpmath.polylog(nu, mpmath.exp(-mpmath.mpf(y))))
                assert abs(res.value - ref) <= res.est_error, (nu, y, res)
                assert res.terms_used <= _route_max_terms(nu, y), (nu, y, res)
                if nu > 0.0:
                    assert res.est_error <= 1e-12 * max(1.0, abs(ref)), (nu, y, res)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    nu=st.floats(min_value=-1.0, max_value=8.0, exclude_min=True),
    y=st.floats(min_value=SMALL_Y_SWITCH, max_value=750.0),
)
def test_series_term_count_fits_the_cached_powers(nu, y):
    # The count falls as y grows, so the tables sized at the switch serve every
    # series call: there is one per count up to the count at the switch.
    tables = _series_powers(nu)
    assert _series_terms_needed(nu, y, -math.expm1(-y)) < len(tables)
    assert [len(table) for table in tables] == list(range(len(tables)))


@pytest.mark.parametrize(
    "nu", [1.0 + 1e-9, 1.001, 1.47, 1.5, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 2.5, 3.0, 4.0, 8.0]
)
def test_series_pair_equals_two_series_calls_bit_for_bit(nu):
    # one Horner pass with two accumulators: same z, count and cached powers
    for y in (0.5, 0.5 + 1e-12, 0.75, 1.0, 2.0, 5.0, 10.0, 20.0, 36.99):
        pair = (_bose_series(nu, y).value, _bose_series(nu - 1.0, y).value)
        assert _bose_pair(nu, y) == pair, (nu, y)


def _plain_horner(nu, y):
    """The series route's sum by Horner over n^-nu computed afresh, with no cached table."""
    z = math.exp(-y)
    n_terms = _series_terms_needed(nu, y, -math.expm1(-y))
    value = 0.0
    for n in range(n_terms, 0, -1):
        value = value * z + n**-nu
    return value * z, n_terms


def test_series_route_equals_a_plain_horner_bit_for_bit():
    # the cached per-count tables hold the same coefficients in the same order
    for nu in (-0.9, 0.0, 0.5, 1.5, 2.47, 8.0):
        for y in (0.5, 0.7, 1.0, 3.0, 36.9, 700.0):
            value, n_terms = _plain_horner(nu, y)
            res = _bose_series(nu, y)
            assert (res.value, res.terms_used) == (value, n_terms), (nu, y)
            if nu >= 1.0:
                assert _bose_pair(nu, y) == (value, _plain_horner(nu - 1.0, y)[0]), (nu, y)


def test_series_count_table_gives_the_count_it_replaces():
    # For orders >= 0 a pass looks its count up in the reach table; at every
    # threshold, 64 ulps either side of it and seeded y in [0.5, 750] it must
    # be _series_terms_needed's, for integer, fractional and slope orders.
    top, reach = _series_reach()
    assert top == _series_terms_needed(0.0, SMALL_Y_SWITCH, -math.expm1(-SMALL_Y_SWITCH))
    assert len(reach) == top - 2 and list(reach) == sorted(set(reach))
    ys = [SMALL_Y_SWITCH]
    for edge in reach:
        y = edge
        for _ in range(64):
            y = math.nextafter(y, 0.0)
        for _ in range(129):
            ys.append(y)
            y = math.nextafter(y, math.inf)
    rng = random.Random(29)
    ys += [math.exp(rng.uniform(math.log(SMALL_Y_SWITCH), math.log(750.0))) for _ in range(2000)]
    for nu in (0.0, 0.5, 1.0, 1.5, 2.47, 3.0, 8.0):
        for y in ys:
            assert _bose_series(nu, y).terms_used == _series_terms_needed(nu, y, -math.expm1(-y)), (nu, y)


def _robinson_coefficients(mpmath, nu, n_terms=60):
    """zeta(nu - k) / k! for k < n_terms in mpmath; at an integer nu = n >= 1 the
    pole coefficient k = n - 1 is left out (None)."""
    pole = int(nu) - 1 if nu == int(nu) and nu >= 1.0 else -1
    nu = mpmath.mpf(nu)
    return [None if k == pole else mpmath.zeta(nu - k) / mpmath.factorial(k) for k in range(n_terms)]


def _robinson_series(mpmath, nu, y, coeffs):
    """g_nu(y) = Gamma(1 - nu) y^(nu - 1) + sum_k zeta(nu - k) (-y)^k / k! in mpmath;
    at nu = n >= 1 the lead and pole term k = n - 1 are (-y)^(n-1) / (n-1)! [H_(n-1) - ln y]."""
    y = mpmath.mpf(y)
    if None in coeffs:
        m = coeffs.index(None)
        total = (-y) ** m / mpmath.factorial(m) * (mpmath.harmonic(m) - mpmath.log(y))
    else:
        total = mpmath.gamma(1 - mpmath.mpf(nu)) * y ** (mpmath.mpf(nu) - 1)
    return total + sum(c * (-y) ** k for k, c in enumerate(coeffs) if c is not None)


def test_expansion_error_bound_against_the_robinson_series_in_mpmath():
    # Integer orders, orders just off them, at and inside the _MERGE_TOL edge on
    # both sides, and non-integer orders, on y log-uniform in [1e-300, 0.5). The
    # reference sums the Robinson series at 50 digits: polylog(nu, e^-y) at 40
    # digits rounds e^-y to 1 below y ~ 1e-40.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(27)
    orders = [
        n + offset
        for n in range(-1, 9)
        for offset in (0.0, 1e-9, -1e-9, 5e-4, -5e-4, 0.999e-3, -0.999e-3)
        if -1.0 < n + offset <= 8.0
    ]
    orders += [rng.uniform(-1.0, 8.0) for _ in range(40)]
    log_top = math.log10(SMALL_Y_SWITCH)
    checked = 0
    with mpmath.workdps(50):
        for nu in orders:
            coeffs = _robinson_coefficients(mpmath, nu)
            ys = [10.0 ** rng.uniform(-300.0, log_top) for _ in range(30)]
            ys = sorted(ys + [0.1, 0.3, math.nextafter(SMALL_Y_SWITCH, 0.0)])
            terms = [0]
            for y in ys:
                try:
                    res = _bose_expansion(nu, y)
                except DomainError:  # y^(nu - 1) overflows: nu < 1 and y near 1e-300
                    assert nu < 1.0 and (nu - 1.0) * math.log(y) > 709.0, (nu, y)
                    continue
                ref = _robinson_series(mpmath, nu, y, coeffs)
                assert abs(res.value - ref) <= res.est_error, (nu, y, res, ref)
                if nu > 0.0:
                    assert res.est_error <= 1e-12 * max(1.0, abs(ref)), (nu, y, res)
                assert terms[-1] <= res.terms_used <= 20, (nu, y, res, terms)
                terms.append(res.terms_used)
                checked += 1
    assert checked >= 3000


@pytest.mark.parametrize("nu, y", [(1.5, 0.49), (2.0, 1e-3), (3.0, 1e-8), (0.5, 2.0)])
def test_pair_off_the_series_route_leaves_the_lower_order_out(nu, y):
    # below the switch each order sums its own cached coefficients; below
    # order 1 the series count of order nu - 1 < 0 differs from order nu's
    assert _bose_pair(nu, y) == (bose_g(nu, y).value, None)


@pytest.mark.parametrize("y", [712.3, 720.1, 740.0, 745.5])
def test_series_error_bound_where_e_to_the_minus_y_is_subnormal(y):
    # z = e^-y and g_nu ~ z round in absolute terms there (745.5: both round to 0)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for nu in (0.5, 1.5, 3.0):
            res = bose_g(nu, y)
            ref = mpmath.polylog(nu, mpmath.exp(-mpmath.mpf(y)))
            assert abs(res.value - ref) <= res.est_error, (nu, y, res)


def test_derivative_recurrence_at_zero():
    assert bose_g_derivative(2.5, 0.0).value == pytest.approx(-zeta(1.5), abs=1e-12)


def test_derivative_divergent_at_zero():
    with pytest.raises(DivergentValue):
        bose_g_derivative(1.5, 0.0)
    with pytest.raises(DivergentValue):
        bose_g_derivative(2.0, 0.0)


@pytest.mark.parametrize("nu, y", [(-149.0, 0.6), (-1e6, 3.0)])
def test_derivative_whose_series_powers_overflow_is_a_domain_error_naming_the_order(nu, y):
    # -g_(nu-1) on the series route needs n^-(nu-1), which leaves the doubles here
    with pytest.raises(DomainError, match=rf"order nu={nu - 1.0!r} leaves the doubles"):
        bose_g_derivative(nu, y)


def test_derivative_matches_finite_difference():
    h = 1e-5
    for nu in [1.5, 2.5, 3.5]:
        for y in [0.01, 0.1, 1.0, 5.0]:
            exact = bose_g_derivative(nu, y).value
            fd = (bose_g(nu, y + h).value - bose_g(nu, y - h).value) / (2.0 * h)
            assert exact == pytest.approx(fd, rel=1e-6), (nu, y)


def test_integer_order_small_argument_still_works():
    # d/sigma = 2 cases take the logarithmic integer-order expansion at tiny y
    ref = series_sum_highprec(2.0, 3e-4)
    assert bose_g(2.0, 3e-4).value == pytest.approx(ref, abs=1e-11)


def test_eval_result_is_float_convertible():
    res = bose_g(1.5, 1.0)
    assert float(res) == res.value
    assert res.est_error >= 0.0
    assert res.terms_used > 0


def test_values_are_finite_across_grid():
    ys = np.geomspace(1e-6, 50.0, 40)
    for nu in [1.1, 1.5, 2.5]:
        for y in ys:
            assert math.isfinite(bose_g(nu, float(y)).value)


# Orders the gap solvers meet at integer d/sigma (and their Newton slopes),
# exact and near the integer, at arguments down to 1e-12 and up to the switch.
SMALL_Y = np.geomspace(1e-12, 0.05, 12, endpoint=False).tolist()
EXPANSION_Y = SMALL_Y + np.geomspace(0.05, SMALL_Y_SWITCH, 6, endpoint=False).tolist()
NEAR_INTEGER_OFFSETS = [0.0, 1e-7, -1e-7, 1e-9, -1e-9, 1e-12, -1e-12]
NEAR_INTEGER_OFFSETS += [1e-5, -1e-5, 1e-4, -1e-4, 1e-3, -1e-3]


def _dilog_series(z):
    """Li_2(z) = sum_k z^k / k^2 for 0 <= z <= 0.05 (terms fall 20x per k)."""
    return math.fsum(z**k / k**2 for k in range(1, 40))


@pytest.mark.parametrize("y", SMALL_Y)
def test_order_one_matches_closed_form(y):
    # g_1(y) = -ln(1 - e^-y); the oracle itself rounds once in the log
    ref = -math.log(-math.expm1(-y))
    res = bose_g(1.0, y)
    assert abs(res.value - ref) <= res.est_error + 2.0 * _EPS * abs(ref)


@pytest.mark.parametrize("y", SMALL_Y)
def test_order_two_matches_dilog_reflection(y):
    # Li_2(x) + Li_2(1 - x) = pi^2/6 - ln x ln(1 - x) with x = e^-y, so
    # g_2(y) = pi^2/6 + y ln(1 - e^-y) - Li_2(1 - e^-y) with a small-z series
    z = -math.expm1(-y)
    ref = math.pi**2 / 6.0 + y * math.log(z) - _dilog_series(z)
    res = bose_g(2.0, y)
    assert abs(res.value - ref) <= res.est_error + 4.0 * _EPS * abs(ref)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_integer_and_near_integer_orders_against_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for offset in NEAR_INTEGER_OFFSETS:
            nu = n + offset
            for y in EXPANSION_Y:
                res = bose_g(nu, y)
                ref = float(mpmath.polylog(nu, mpmath.exp(-mpmath.mpf(y))))
                assert abs(res.value - ref) <= res.est_error <= 1e-12, (nu, y, res)
                assert res.terms_used <= 30, (nu, y, res)


@pytest.mark.parametrize("nu", [1.0, 1.0 + 1e-9, 1.0 - 1e-9, 0.75, 0.5])
def test_slope_orders_against_mpmath(nu):
    # dg_nu/dy = -g_(nu-1): orders zero and below, reached by the Newton slope
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for y in EXPANSION_Y:
            res = bose_g_derivative(nu, y)
            ref = -float(mpmath.polylog(nu - 1.0, mpmath.exp(-mpmath.mpf(y))))
            assert abs(res.value - ref) <= res.est_error, (nu, y, res)


def test_small_y_switch_edges_agree():
    # the expansion just below the switch and the series just above it
    for nu in [0.5, 1.0, 1.5, 2.0, 3.0]:
        below = bose_g(nu, np.nextafter(SMALL_Y_SWITCH, 0.0))
        above = bose_g(nu, SMALL_Y_SWITCH)
        assert abs(below.value - above.value) <= below.est_error + above.est_error + 1e-15
        assert below.terms_used <= 30 < above.terms_used <= _series_max_terms(nu)


def test_eval_result_is_a_named_tuple():
    res = bose_g(2.5, 0.3)
    assert EvalResult._fields == ("value", "est_error", "terms_used")
    assert float(res) == res.value
    value, est_error, terms_used = res
    assert res == (value, est_error, terms_used) == EvalResult(value, est_error, terms_used)
    assert res != EvalResult(value, est_error, terms_used + 1)
    with pytest.raises(AttributeError):
        res.value = 0.0


@pytest.mark.parametrize("nu, y", [(0.01, 5e-324), (0.001, 1e-310)])
def test_overflowing_lead_term_is_a_domain_error(nu, y):
    # Gamma(1 - nu) y^(nu - 1) leaves the doubles
    with pytest.raises(DomainError, match=f"nu={nu!r}, y={y!r}"):
        bose_g(nu, y)
