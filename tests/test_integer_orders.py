"""Near-critical solves at integer and near-integer d/sigma.

Integer orders once had only the direct Bose series at small y, which needs
about 1/y terms: solves close to T_c took seconds and then failed. These
checks hold every solve to its constraint and bound the terms each Bose
function call spends, a count that does not depend on machine speed.
"""

import math
import random

import pytest

import bose_eos.isochore
import bose_eos.rootfind
import bose_eos.special
from bose_eos import (
    GasSpec,
    critical_temperature_density,
    critical_temperature_pressure,
    density_at,
    pressure_at,
    solve_gap_isobar,
    solve_gap_isochore,
)
from bose_eos.special import SMALL_Y_SWITCH, _series_powers, _series_terms_needed

CONSTRAINT_RTOL = 1e-10
# Terms per call: the small-y expansion needs about sixteen at the switch;
# the direct series, used from SMALL_Y_SWITCH up, no more than its a-priori
# count there, the powers it caches per order (72 to 81).
SMALL_Y_MAX_TERMS = 40


@pytest.fixture
def term_log(monkeypatch):
    """Record (nu, y, terms_used) of every Bose function call the solvers make."""
    calls = []

    def recorder(fn):
        def wrapped(nu, y):
            res = fn(nu, y)
            calls.append((nu, y, res.terms_used))
            return res

        return wrapped

    def pair_recorder(fn):
        def wrapped(nu, y):
            pair = fn(nu, y)
            if pair[1] is not None:  # one series pass, at the count _bose_series takes
                calls.append((nu, y, _series_terms_needed(nu, y, -math.expm1(-y))))
            return pair

        return wrapped

    # the solver's values: series pairs, and below the switch the expansion itself
    monkeypatch.setattr(
        bose_eos.rootfind, "_bose_pair", pair_recorder(bose_eos.rootfind._bose_pair)
    )
    monkeypatch.setattr(
        bose_eos.rootfind, "_bose_expansion", recorder(bose_eos.rootfind._bose_expansion)
    )
    monkeypatch.setattr(bose_eos.special, "bose_g", recorder(bose_eos.special.bose_g))
    monkeypatch.setattr(
        bose_eos.rootfind, "_bose_any_order", recorder(bose_eos.rootfind._bose_any_order)
    )
    monkeypatch.setattr(bose_eos.isochore, "bose_g", recorder(bose_eos.isochore.bose_g))
    return calls


def _assert_cheap(calls):
    assert calls
    for nu, y, terms in calls:
        limit = SMALL_Y_MAX_TERMS if y < SMALL_Y_SWITCH else len(_series_powers(nu)[-1])
        assert terms <= limit, (nu, y, terms)


def _isochore_residual(spec, t, rho=1.0):
    T = (1.0 + t) * critical_temperature_density(spec, rho)
    pt = solve_gap_isochore(spec, T, rho)
    assert pt.regime == "normal" and pt.r > 0.0
    return abs(density_at(spec, T, pt.r) / rho - 1.0)


def _isobar_residual(spec, t, P=1.0):
    T = (1.0 + t) * critical_temperature_pressure(spec, P)
    pt = solve_gap_isobar(spec, T, P)
    assert pt.regime == "normal" and pt.r > 0.0
    return abs(pressure_at(spec, T, pt.r) / P - 1.0)


@pytest.mark.parametrize("d, sigma", [(3.0, 1.5), (4.0, 2.0)])
def test_integer_order_isochore_close_to_tc(term_log, d, sigma):
    assert _isochore_residual(GasSpec(d=d, sigma=sigma), 1e-5) <= CONSTRAINT_RTOL
    _assert_cheap(term_log)


def test_integer_order_isobar_close_to_tc(term_log):
    # d = sigma = 2: the pressure equation has order d/sigma + 1 = 2
    assert _isobar_residual(GasSpec(d=2.0, sigma=2.0), 1e-6) <= CONSTRAINT_RTOL
    _assert_cheap(term_log)


@pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_linear_dispersion_ladder(term_log, t):
    # d = 3, sigma = 1: order 3 on the isochore, 4 on the isobar
    spec = GasSpec(d=3.0, sigma=1.0)
    assert _isochore_residual(spec, t) <= CONSTRAINT_RTOL
    assert _isobar_residual(spec, t) <= CONSTRAINT_RTOL
    _assert_cheap(term_log)


def test_seeded_probe_over_integer_and_near_integer_orders(term_log):
    rng = random.Random(20040)
    orders = [1.0, 2.0, 3.0, 4.0]
    orders += [n + eps for n in (1.0, 2.0, 3.0) for eps in (1e-12, -1e-9, 1e-7, -3e-6)]
    orders += [rng.uniform(0.5, 4.0) for _ in range(8)]
    for nu in orders:
        sigma = rng.uniform(0.5, 2.0)
        spec = GasSpec(d=nu * sigma, sigma=sigma)
        t = 10.0 ** rng.uniform(-7.0, -1.0)
        assert _isobar_residual(spec, t) <= CONSTRAINT_RTOL, (nu, sigma, t)
        # Isochores only well above d/sigma = 1: the gap y ~ t^(1/(d/sigma - 1))
        # leaves double range there (a float-range limit, not an order one).
        if nu >= 1.5:
            assert _isochore_residual(spec, t) <= CONSTRAINT_RTOL, (nu, sigma, t)
    _assert_cheap(term_log)
