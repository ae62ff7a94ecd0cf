"""The gap root finder: its closed-form bracket, its cost and its reach.

``solve_bose_equation`` solves ln g_nu(y) = ln(target) - ln(prefactor) for
the root y* = r / T, bracketed by the bounds e^-y <= g_nu(y) <= 1 / (e^y - 1)
instead of a search for a sign change. These checks hold the bounds against
the Bose function, every returned root to that bracket and to its
constraint, the Bose evaluations a solve spends, roots past y = 708, where
g_nu(y) leaves the normal doubles, roots whose prefactor leaves them, and
the gaps of the README's log sweep against mpmath.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bose_eos.rootfind
from bose_eos import (
    ConvergenceError,
    DomainError,
    GasSpec,
    SweepRequest,
    bose_g,
    critical_temperature_density,
    critical_temperature_pressure,
    density_at,
    run_sweep,
    solve_gap_isobar,
    solve_gap_isochore,
)
from bose_eos.rootfind import solve_bose_equation
from bose_eos.special import SMALL_Y_SWITCH

EPS = sys.float_info.epsilon
ORDERS = st.floats(min_value=1.0, max_value=8.0, exclude_min=True)


def decades(lo: float, hi: float):
    """Log-uniform floats in [10^lo, 10^hi]."""
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


def log_form_bracket(prefactor: float, target: float) -> tuple[float, float]:
    """max(0, L) <= y* <= ln(1 + e^L) with L = ln(prefactor / target)."""
    log_ratio = math.log(prefactor) - math.log(target)
    lo = max(log_ratio, 0.0)
    return lo, lo + math.log1p(math.exp(-abs(log_ratio)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nu=ORDERS, y=decades(-8.0, math.log10(700.0)))
def test_bose_function_lies_between_the_bracket_bounds(nu, y):
    g = bose_g(nu, y)
    assert math.exp(-y) - g.est_error <= g.value <= 1.0 / math.expm1(y) + g.est_error


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    nu=ORDERS,
    y_true=decades(-6.0, math.log10(650.0)),
    prefactor=decades(0.0, 100.0),
    T=decades(-5.0, 5.0),
)
def test_every_root_lies_in_the_log_form_bracket(nu, y_true, prefactor, T):
    # y* <= 650 and prefactor >= 1 keep the target a normal double
    target = prefactor * bose_g(nu, y_true).value
    y = solve_bose_equation(nu, math.log(prefactor), target, T)[0] / T
    lo, hi = log_form_bracket(prefactor, target)
    assert lo * (1.0 - 4.0 * EPS) <= y <= hi * (1.0 + 4.0 * EPS)
    assert abs(prefactor * bose_g(nu, y).value - target) <= 1e-12 * target


@pytest.mark.parametrize("prefactor, target", [(math.inf, 1.0), (1.0, 0.0), (1.0, 5e-324)])
def test_sides_outside_the_normal_doubles_are_a_domain_error(prefactor, target):
    with pytest.raises(DomainError, match="normal doubles"):
        solve_bose_equation(1.5, math.log(prefactor), target, 1.0)


def test_bose_calls_per_solve_far_from_tc(monkeypatch):
    # Every Bose pass a solve makes goes through these three names: a value, on
    # the series route with its slope from the same pass, a value on the
    # expansion route, or a separate slope.
    calls = [0]

    def counted(fn):
        def wrapped(*args):
            calls[0] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(bose_eos.rootfind, "_bose_pair", counted(bose_eos.rootfind._bose_pair))
    monkeypatch.setattr(
        bose_eos.rootfind, "_bose_expansion", counted(bose_eos.rootfind._bose_expansion)
    )
    monkeypatch.setattr(
        bose_eos.rootfind, "_bose_any_order", counted(bose_eos.rootfind._bose_any_order)
    )
    per_solve = []
    for d, sigma in [(3.0, 2.0), (2.5, 1.7), (3.0, 1.5), (3.0, 1.0)]:
        spec = GasSpec(d=d, sigma=sigma)
        for ratio in (2.0, 3.0, 4.0):
            for solve, tc in (
                (solve_gap_isochore, critical_temperature_density),
                (solve_gap_isobar, critical_temperature_pressure),
            ):
                before = calls[0]
                assert solve(spec, ratio * tc(spec, 1.0), 1.0).r > 0.0
                per_solve.append(calls[0] - before)
    assert len(per_solve) == 24
    assert sum(per_solve) / len(per_solve) <= 3.7, per_solve
    assert max(per_solve) <= 9, per_solve


@pytest.mark.parametrize(
    "solve, tc",
    [
        (solve_gap_isochore, critical_temperature_density),
        (solve_gap_isobar, critical_temperature_pressure),
    ],
)
def test_far_normal_solve_takes_no_separate_slope_on_the_series_route(monkeypatch, solve, tc):
    # At T = 10 T_c every iterate sits at y >= SMALL_Y_SWITCH, where one
    # Horner pass gives the value and the Newton slope together.
    pair_ys, expansion_ys, slope_ys = [], [], []

    def recorded(fn, ys):
        def wrapped(nu, y):
            ys.append(y)
            return fn(nu, y)

        return wrapped

    monkeypatch.setattr(
        bose_eos.rootfind, "_bose_pair", recorded(bose_eos.rootfind._bose_pair, pair_ys)
    )
    monkeypatch.setattr(
        bose_eos.rootfind, "_bose_expansion", recorded(bose_eos.rootfind._bose_expansion, expansion_ys)
    )
    monkeypatch.setattr(
        bose_eos.rootfind, "_bose_any_order", recorded(bose_eos.rootfind._bose_any_order, slope_ys)
    )
    spec = GasSpec(d=3.0, sigma=2.0)
    assert solve(spec, 10.0 * tc(spec, 1.0), 1.0).r > 0.0
    assert pair_ys and min(pair_ys) >= SMALL_Y_SWITCH, pair_ys
    assert expansion_ys == slope_ys == []


@pytest.mark.xfail(raises=ConvergenceError, strict=True, reason="ROADMAP F, near-T_c half")
def test_isochore_next_to_tc_at_d_over_sigma_just_above_one():
    # y* ~ t^(1 / (d/sigma - 1)) ~ 1e-123 here: below the Newton floor the solve
    # bisects linearly and runs out of its 400 iterations after a few ms
    spec = GasSpec(d=1.053, sigma=1.0)
    T = (1.0 + 2.3e-7) * critical_temperature_density(spec, 1.0)
    pt = solve_gap_isochore(spec, T, 1.0)
    assert pt.regime == "normal" and pt.r > 0.0
    assert density_at(spec, T, pt.r) == pytest.approx(1.0, rel=1e-10)


@pytest.mark.parametrize("solve", [solve_gap_isochore, solve_gap_isobar])
def test_iteration_cap_is_a_convergence_error_naming_the_state(monkeypatch, solve):
    monkeypatch.setattr(bose_eos.rootfind, "_MAX_ITER", 2)
    kind = "isochore" if solve is solve_gap_isochore else "isobar"
    with pytest.raises(ConvergenceError, match=(
        rf"^{kind} gap solve failed at d=3.0, sigma=2.0, T=5.0, (rho|P)=1.0: "
        r"root finder did not converge in 2 iterations \(bracket \[\d"
    )):
        solve(GasSpec(d=3.0, sigma=2.0), 5.0, 1.0)


def _exact_gap(order: float, log_prefactor, log_target) -> float:
    """Root y of ln g_order(y) = log_target - log_prefactor, in mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        log_ratio = log_prefactor - log_target
        root = mpmath.findroot(
            lambda y: mpmath.log(mpmath.polylog(order, mpmath.exp(-y))) + log_ratio,
            log_ratio,
        )
        return float(root)


def test_isochore_gap_past_the_underflow_of_g():
    # lambda_T^-d A / rho ~ e^1380: g_1.5(y*) ~ 1e-599 is no double at all
    mpmath = pytest.importorskip("mpmath")
    T, rho = 1e200, 1e-300
    pt = solve_gap_isochore(GasSpec(d=3.0, sigma=2.0), T, rho)
    with mpmath.workdps(40):
        log_pref = 1.5 * (mpmath.log(T) - mpmath.log(2 * mpmath.pi))  # A(3, 2) = m = 1
        exact = _exact_gap(1.5, log_pref, mpmath.log(rho))
    assert exact == pytest.approx(1378.7942401968134, rel=1e-15)
    assert pt.r / T == pytest.approx(exact, rel=1e-13)
    assert pt.P == pytest.approx(T * rho, rel=1e-15)  # classical: g_2.5 / g_1.5 = 1


def test_isobar_gap_past_the_underflow_of_g():
    mpmath = pytest.importorskip("mpmath")
    T, P = 1e100, 1e-200
    pt = solve_gap_isobar(GasSpec(d=3.0, sigma=2.0), T, P)
    with mpmath.workdps(40):
        log_pref = mpmath.log(T) + 1.5 * (mpmath.log(T) - mpmath.log(2 * mpmath.pi))
        exact = _exact_gap(2.5, log_pref, mpmath.log(P))
    assert exact > 708.0
    assert pt.r / T == pytest.approx(exact, rel=1e-13)
    assert pt.rho == pytest.approx(P / T, rel=1e-15)


@pytest.mark.parametrize("T", [1e250, 1e300])
def test_isochore_gap_where_the_prefactor_overflows(T):
    # lambda_T^-d A = (T / 2 pi)^1.5 ~ e^861 at T = 1e250 is no double; y* and P are
    mpmath = pytest.importorskip("mpmath")
    rho = 1.0
    pt = solve_gap_isochore(GasSpec(d=3.0, sigma=2.0), T, rho)
    with mpmath.workdps(40):
        log_pref = 1.5 * (mpmath.log(T) - mpmath.log(2 * mpmath.pi))
        exact = _exact_gap(1.5, log_pref, mpmath.log(rho))
    assert exact > 700.0
    assert pt.regime == "normal"
    assert pt.r / T == pytest.approx(exact, rel=1e-13)
    assert pt.P == pytest.approx(T * rho, rel=1e-13)


@pytest.mark.parametrize("T, P", [(1e250, 1.0), (1e150, 1e-300)])
def test_isobar_gap_where_the_prefactor_overflows(T, P):
    # T lambda_T^-d A ~ e^1436 at T = 1e250 (e^862 at T = 1e150) is no double
    mpmath = pytest.importorskip("mpmath")
    pt = solve_gap_isobar(GasSpec(d=3.0, sigma=2.0), T, P)
    with mpmath.workdps(40):
        log_pref = mpmath.log(T) + 1.5 * (mpmath.log(T) - mpmath.log(2 * mpmath.pi))
        exact = _exact_gap(2.5, log_pref, mpmath.log(P))
        rho = float(mpmath.mpf(P) / T)
    assert exact > 700.0
    assert pt.regime == "normal"
    assert pt.r / T == pytest.approx(exact, rel=1e-13)
    assert pt.rho == pytest.approx(rho, rel=1e-13)


def _sweep_gap_errors(constraint, T_min, T_max, points, y_min=0.0):
    """Normal rows at r/T >= y_min of a d = 3, sigma = 2 log sweep: count, worst error in r."""
    mpmath = pytest.importorskip("mpmath")
    request = SweepRequest(
        spec=GasSpec(d=3.0, sigma=2.0), constraint=constraint, value=1.0,
        T_min=T_min, T_max=T_max, points=points, spacing="log",
    )
    rows = [
        row for row in run_sweep(request).rows
        if row["regime"] == "normal" and row["r"] / row["T"] >= y_min
    ]
    # rho = (T / 2 pi)^1.5 g_1.5(y) and P = T (T / 2 pi)^1.5 g_2.5(y)
    order, T_power = (1.5, 0) if constraint == "density" else (2.5, 1)
    worst = 0.0
    with mpmath.workdps(40):
        for row in rows:
            log_T = mpmath.log(mpmath.mpf(row["T"]))
            log_pref = T_power * log_T + 1.5 * (log_T - mpmath.log(2 * mpmath.pi))
            exact = row["T"] * mpmath.findroot(
                lambda y: mpmath.log(mpmath.polylog(order, mpmath.exp(-y))) + log_pref,
                row["r"] / row["T"],
            )
            worst = max(worst, float(abs(row["r"] - exact) / exact))
    return len(rows), worst


def test_readme_log_sweep_gaps_against_mpmath():
    # every normal row of the README's --pressure 1.0 ... --spacing log sweep
    rows, worst = _sweep_gap_errors("pressure", 0.3, 3.0, 80)
    assert rows == 4  # rows 76 to 79: T_c(P = 1) = 2.68
    assert worst <= 1e-14, worst


def test_series_route_sweep_gaps_against_mpmath():
    # the rows at y >= SMALL_Y_SWITCH, whose gaps the solver takes from the
    # series pair, of the README's --density 1.0 --tmin 4 --tmax 40 log
    # isochore and of a --pressure 1.0 --tmin 3 --tmax 30 log isobar
    rows, worst = _sweep_gap_errors("density", 4.0, 40.0, 40, SMALL_Y_SWITCH)
    assert rows == 29
    assert worst <= 1.2e-13, worst
    rows, worst = _sweep_gap_errors("pressure", 3.0, 30.0, 40, SMALL_Y_SWITCH)
    assert rows == 37
    assert worst <= 5e-14, worst
