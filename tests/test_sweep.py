"""Sweep grids, row order and serialization stability."""

import json
import math
import os
import subprocess
import sys

import pytest

import bose_eos.gas
import bose_eos.isobar
import bose_eos.isochore
import bose_eos.sweep
from bose_eos import (
    COLUMNS,
    CondensedRegion,
    DomainError,
    GasSpec,
    SweepRequest,
    ZeroTemperatureBEC,
    critical_temperature_density,
    critical_temperature_pressure,
    pressure_at,
    run_sweep,
    solve_gap_isobar,
    solve_gap_isochore,
    temperature_grid,
)

SPEC32 = GasSpec(d=3.0, sigma=2.0)


def density_request(**overrides) -> SweepRequest:
    kwargs = dict(
        spec=SPEC32,
        constraint="density",
        value=1.0,
        T_min=0.5,
        T_max=2.0,
        points=7,
    )
    kwargs.update(overrides)
    return SweepRequest(**kwargs)


@pytest.mark.parametrize(
    "overrides",
    [
        {"constraint": "volume"},
        {"value": 0.0},
        {"T_min": 0.0},
        {"T_min": 2.0, "T_max": 1.0},
        {"points": 1},
        {"spacing": "quadratic"},
        {"columns": ("T", "speed")},
        {"columns": ()},
        {"T_max": math.inf},
    ],
)
def test_request_validation(overrides):
    with pytest.raises(DomainError):
        density_request(**overrides)


def test_temperature_grids():
    linear = temperature_grid(density_request(T_min=1.0, T_max=3.0, points=5))
    assert linear == [1.0, 1.5, 2.0, 2.5, 3.0]
    logg = temperature_grid(
        density_request(T_min=0.01, T_max=100.0, points=5, spacing="log")
    )
    assert logg == pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0], rel=1e-12)


# numpy's AVX-512 loops round some geomspace cells differently from its
# baseline loops, so numpy's grids depend on the CPU; the baseline path is
# the host-independent reference the plain-float grids are held to.
NUMPY_BASELINE = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
NUMPY_GRIDS = """
import json, sys
import numpy as np
grids = [(np.linspace if s == "linear" else np.geomspace)(a, b, n).tolist()
         for a, b, n, s in json.load(sys.stdin)]
json.dump(grids, sys.stdout)
"""


def test_temperature_grid_is_numpy_bit_for_bit():
    pytest.importorskip("numpy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = []

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
    @hypothesis.given(
        T_min=st.floats(1e-300, 1e290),
        ratio=st.floats(1.0, 1e8, exclude_min=True),
        points=st.integers(2, 600),
        spacing=st.sampled_from(["linear", "log"]),
    )
    def collect(T_min, ratio, points, spacing):
        T_max = T_min * ratio
        hypothesis.assume(T_max > T_min)
        cases.append((T_min, T_max, points, spacing))

    collect()
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_GRIDS],
        input=json.dumps(cases),
        env={**os.environ, **NUMPY_BASELINE},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = json.loads(proc.stdout)
    assert len(expected) == len(cases) >= 400
    for (T_min, T_max, points, spacing), numpy_grid in zip(cases, expected):
        request = density_request(T_min=T_min, T_max=T_max, points=points, spacing=spacing)
        assert temperature_grid(request) == numpy_grid, (T_min, T_max, points, spacing)


def test_isochore_sweep_crosses_transition():
    tc = critical_temperature_density(SPEC32, 1.0)
    table = run_sweep(density_request(T_min=0.5 * tc, T_max=1.5 * tc, points=11))
    assert len(table.rows) == 11
    regimes = [row["regime"] for row in table.rows]
    assert regimes[0] == "condensed"
    assert regimes[-1] == "normal"
    for row in table.rows:
        assert row["rho"] == pytest.approx(1.0, rel=1e-9)
        if row["regime"] == "condensed":
            assert row["r"] == 0.0 and row["psi2"] > 0.0
        elif row["regime"] == "normal":
            assert row["r"] > 0.0 and row["psi2"] == 0.0
    temperatures = [row["T"] for row in table.rows]
    assert temperatures == sorted(temperatures)


def test_isobar_sweep_emits_sentinel_rows():
    tc = critical_temperature_pressure(SPEC32, 1.0)
    request = SweepRequest(
        spec=SPEC32,
        constraint="pressure",
        value=1.0,
        T_min=0.5 * tc,
        T_max=2.0 * tc,
        points=8,
    )
    table = run_sweep(request)
    sentinel = [r for r in table.rows if r["regime"] == "condensed_boundary"]
    normal = [r for r in table.rows if r["regime"] == "normal"]
    assert sentinel and normal
    assert len(sentinel) + len(normal) == 8
    for row in sentinel:
        assert row["T"] < tc and row["t"] < 0.0
        assert row["P"] == 1.0
        assert row["r"] is None and row["mu"] is None
        assert row["psi2"] is None and row["rho"] is None
    for row in normal:
        assert row["T"] >= tc and row["r"] > 0.0 and row["psi2"] == 0.0


def test_csv_header_and_shape():
    table = run_sweep(density_request(points=3))
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# bose-eos v1 columns: T,t,r,mu,psi2,rho,P,regime"
    assert len(lines) == 4
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert len(first) == len(COLUMNS)
    assert first[-1] in ("normal", "condensed", "critical")


def test_csv_no_negative_zero_cells():
    tc = critical_temperature_density(SPEC32, 1.0)
    table = run_sweep(density_request(T_min=0.5 * tc, T_max=tc, points=4))
    for line in table.to_csv().splitlines()[1:]:
        assert "-0," not in line and not line.startswith("-0,")


def test_csv_column_subset():
    table = run_sweep(density_request(points=3, columns=("T", "psi2")))
    lines = table.to_csv().splitlines()
    assert lines[0] == "# bose-eos v1 columns: T,psi2"
    assert all(line.count(",") == 1 for line in lines[1:])


def test_json_round_trips():
    table = run_sweep(density_request(points=3))
    doc = json.loads(table.to_json())
    assert doc["schema"] == "bose-eos v1"
    assert doc["columns"] == list(COLUMNS)
    assert len(doc["rows"]) == 3
    row = doc["rows"][0]
    assert row["T"] == table.rows[0]["T"]
    assert isinstance(row["regime"], str)


def _table_strategies(st):
    """Columns (the empty subset included) and rows of every cell type a table may hold."""
    cells = st.one_of(
        st.none(),
        st.text(max_size=8),
        st.sampled_from(["normal", "condensed", "condensed_boundary"]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 1e-320, 5e-324]),
        st.integers(min_value=-(2**53), max_value=2**53),
    )
    return {
        "columns": st.lists(st.sampled_from(COLUMNS), unique=True, max_size=len(COLUMNS)),
        "rows": st.lists(st.fixed_dictionaries({c: cells for c in COLUMNS}), max_size=5),
    }


def test_json_equals_the_indented_dump_byte_for_byte():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(**_table_strategies(hypothesis.strategies))
    def check(columns, rows):
        table = bose_eos.sweep.SweepTable(columns=tuple(columns), rows=tuple(rows))
        doc = {
            "schema": "bose-eos v1",
            "columns": columns,
            "rows": [{c: bose_eos.sweep._json_cell(row[c]) for c in columns} for row in rows],
        }
        assert table.to_json() == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    check()


def test_csv_equals_the_per_cell_formula_byte_for_byte():
    hypothesis = pytest.importorskip("hypothesis")

    def cell(value):  # empty for None, text as it is, 17 digits with -0.0 folded into 0
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        return format(float(value) + 0.0, ".17g")

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(**_table_strategies(hypothesis.strategies))
    def check(columns, rows):
        table = bose_eos.sweep.SweepTable(columns=tuple(columns), rows=tuple(rows))
        lines = [f"# bose-eos v1 columns: {','.join(columns)}"]
        lines += [",".join(cell(row[c]) for c in columns) for row in rows]
        assert table.to_csv() == "\n".join(lines) + "\n"

    check()


def test_json_serializes_infinite_density_as_string():
    # d <= sigma isobars condense only at T=0; density diverges at the
    # boundary and must survive strict (allow_nan=False) JSON
    spec = GasSpec(d=2.0, sigma=2.0)
    request = SweepRequest(
        spec=spec, constraint="pressure", value=1.0, T_min=0.2, T_max=1.0, points=3
    )
    table = run_sweep(request)
    doc = json.loads(table.to_json())
    for row in doc["rows"]:
        assert row["rho"] is None or isinstance(row["rho"], (float, str))
        if isinstance(row["rho"], str):
            assert row["rho"] == "inf"
    json.dumps(doc, allow_nan=False)


def test_serialization_deterministic_across_runs():
    request = density_request(T_min=0.3, T_max=3.0, points=24)
    assert run_sweep(request).to_csv() == run_sweep(request).to_csv()
    assert run_sweep(request).to_json() == run_sweep(request).to_json()


def test_run_sweep_rows_follow_grid_order():
    request = density_request(points=6)
    table = run_sweep(request)
    temperatures = [row["T"] for row in table.rows]
    assert temperatures == sorted(temperatures)
    assert temperatures == temperature_grid(request)
    assert len(table.rows) == 6


ROW_SPECS = [
    (SPEC32, 1.0, 1.0),
    (GasSpec(d=3.0, sigma=2.0, mass=1.44e-25, units="si"), 1e19, 1e-5),
]


@pytest.mark.parametrize("spec, rho, P", ROW_SPECS)
def test_isochore_rows_equal_solver_points(spec, rho, P):
    # 21 points from 0.5 T_c to 1.5 T_c: condensed rows, one critical row
    # at T_c (within CRITICAL_WINDOW) and normal rows
    tc = critical_temperature_density(spec, rho)
    request = SweepRequest(
        spec=spec,
        constraint="density",
        value=rho,
        T_min=0.5 * tc,
        T_max=1.5 * tc,
        points=21,
    )
    rows = run_sweep(request).rows
    assert {row["regime"] for row in rows} == {"condensed", "critical", "normal"}
    for T, row in zip(temperature_grid(request), rows):
        pt = solve_gap_isochore(spec, T, rho)
        assert row == {
            "T": pt.T, "t": pt.t, "r": pt.r, "mu": pt.mu, "psi2": pt.psi2,
            "rho": pt.rho, "P": pt.P, "regime": pt.regime,
        }
        assert pt.P == pytest.approx(pressure_at(spec, T, pt.r), rel=1e-15)


@pytest.mark.parametrize("spec, rho, P", ROW_SPECS)
def test_isobar_rows_equal_solver_points(spec, rho, P):
    # condensed sentinels below T_c(P), the boundary row at T_c(P), normal above
    tc = critical_temperature_pressure(spec, P)
    request = SweepRequest(
        spec=spec,
        constraint="pressure",
        value=P,
        T_min=0.5 * tc,
        T_max=1.5 * tc,
        points=21,
    )
    rows = run_sweep(request).rows
    regimes = [row["regime"] for row in rows]
    assert regimes.count("condensed_boundary") == 11 and "normal" in regimes
    for T, row in zip(temperature_grid(request), rows):
        try:
            pt = solve_gap_isobar(spec, T, P)
        except CondensedRegion:
            assert row == {
                "T": T, "t": T / tc - 1.0, "r": None, "mu": None, "psi2": None,
                "rho": None, "P": P, "regime": "condensed_boundary",
            }
            continue
        assert row == {
            "T": pt.T, "t": pt.t_P, "r": pt.r, "mu": pt.mu, "psi2": 0.0,
            "rho": pt.rho, "P": pt.P, "regime": pt.regime,
        }


@pytest.mark.parametrize(
    "constraint, tc_name",
    [("density", "critical_temperature_density"), ("pressure", "critical_temperature_pressure")],
)
def test_run_sweep_computes_tc_once_per_request(monkeypatch, constraint, tc_name):
    calls = []
    transition = bose_eos.sweep._transition

    def counted(*args):
        calls.append(args)
        return transition(*args)

    monkeypatch.setattr(bose_eos.sweep, "_transition", counted)
    request = SweepRequest(
        spec=SPEC32, constraint=constraint, value=1.0, T_min=0.2, T_max=8.0, points=40
    )
    rows = run_sweep(request).rows
    assert len(rows) == 40 and rows[0]["regime"] != rows[-1]["regime"] == "normal"
    assert calls == [(SPEC32, 1.0, ("density", "pressure").index(constraint))]
    # that one T_c is the public function's, and the rows' t is measured from it
    tc = getattr(bose_eos, tc_name)(SPEC32, 1.0)
    assert rows[-1]["t"] == (rows[-1]["T"] - tc) / tc


@pytest.mark.parametrize("solve", [solve_gap_isochore, solve_gap_isobar])
def test_point_solve_computes_a_and_the_natural_value_once(monkeypatch, solve):
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def spy(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, spy)

    for module in (bose_eos.gas, bose_eos.isochore, bose_eos.isobar):
        for name in ("prefactor_A", "_natural_constraint"):
            if hasattr(module, name):  # wherever the solve's modules look the name up
                counted(module, name)
    point = solve(SPEC32, 5.0, 1.0)
    assert point.regime == "normal" and point.r > 0.0
    assert sorted(calls) == ["_natural_constraint", "prefactor_A"]


def test_formatting_uses_17_significant_digits():
    table = run_sweep(density_request(points=2))
    cell = table.to_csv().splitlines()[1].split(",")[0]
    assert float(cell) == table.rows[0]["T"]
    assert cell == format(table.rows[0]["T"], ".17g")


def test_zero_temperature_condensers_surface_domain_error():
    # d <= sigma at fixed density: no finite-T transition exists, and the
    # sweep must propagate the signal rather than emit half a table
    request = SweepRequest(
        spec=GasSpec(d=2.0, sigma=2.0),
        constraint="density",
        value=1.0,
        T_min=0.5,
        T_max=2.0,
        points=3,
    )
    with pytest.raises(ZeroTemperatureBEC):
        run_sweep(request)
