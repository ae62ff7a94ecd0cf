"""Bit pins of everything that crosses the unit map, wherever its steps stay normal.

``data/unit_pins.json`` lists ``[call, args, expected]`` triples: the
``repr`` of a result, or ``"ErrorType: text"``. They were taken before
``gas._convert`` made every conversion, and only at inputs where the
conversion steps of that code (value * L0^d / E0^k inward, value * E0^k / L0^d
outward, or L0^d in two halves where it is subnormal) all stayed normal
doubles with a margin of 2^20. There ``_convert`` must give the same bits:
both conversions for SI d = 1, 3, 13.7, 14.2 and 27 and natural specs; T_c,
point solves and the evaluators of both constraints, classical rows
(y >= 37) included; SI and natural sweeps with isobar sentinel rows;
d = 171, 400 and 3000; ``landau_model(...).C_f``; and ``finite_density``.
"""

import json
from collections import defaultdict
from pathlib import Path

import pytest

import bose_eos
from bose_eos import COLUMNS, BoxSpec, GasSpec, SweepRequest
from bose_eos.gas import _natural_constraint, _spec_constraint

PINS = json.loads((Path(__file__).parent / "data" / "unit_pins.json").read_text())


def _sweep(spec, constraint, value, T_min, T_max, points, spacing):
    request = SweepRequest(spec=spec, constraint=constraint, value=value, T_min=T_min,
                           T_max=T_max, points=points, spacing=spacing)
    return tuple(tuple(row[c] for c in COLUMNS) for row in bose_eos.run_sweep(request).rows)


CALLS = {
    "to_natural": _natural_constraint,
    "to_spec": _spec_constraint,
    "critical_temperature_density": bose_eos.critical_temperature_density,
    "critical_temperature_pressure": bose_eos.critical_temperature_pressure,
    "solve_gap_isochore": lambda *a: tuple(bose_eos.solve_gap_isochore(*a)),
    "solve_gap_isobar": lambda *a: tuple(bose_eos.solve_gap_isobar(*a)),
    "pressure_at": bose_eos.pressure_at,
    "density_at": bose_eos.density_at,
    "grand_potential": bose_eos.grand_potential,
    "run_sweep": _sweep,
    "landau_C_f": lambda spec, rho, t: bose_eos.landau_model(spec, rho, t).C_f,
    "finite_density": lambda spec, L, T, mu: bose_eos.finite_density(
        spec, BoxSpec(L=L, d=int(spec.d)), T, mu
    ),
}

BY_CALL = defaultdict(list)
for call, args, expected in PINS:
    BY_CALL[call].append((args, expected))


def _outcome(call, spec_args, rest):
    try:
        return repr(CALLS[call](GasSpec(*spec_args), *rest))
    except bose_eos.BoseEosError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_pins_cover_every_call_and_unit_system():
    assert set(BY_CALL) == set(CALLS)
    for call in CALLS:
        assert {args[0][3] for args, _ in BY_CALL[call]} == {"natural", "si"}, call
    for call in ("to_natural", "to_spec"):
        dims = {args[0][0] for args, _ in BY_CALL[call] if args[0][3] == "si"}
        assert dims == {1.0, 3.0, 13.7, 14.2, 27.0}, call
    assert {171.0, 400.0, 3000.0} <= {args[0][0] for args, _ in BY_CALL["run_sweep"]}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_unit_map_outputs_equal_their_pins(call):
    wrong = [
        (args, expected, got)
        for args, expected in BY_CALL[call]
        if (got := _outcome(call, args[0], args[1:])) != expected
    ]
    assert not wrong, f"{len(wrong)} of {len(BY_CALL[call])} differ, first: {wrong[0]}"
