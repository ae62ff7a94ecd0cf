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
import bose_eos.rootfind
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
SI_RB87 = GasSpec(3.0, 2.0, 1.443160648e-25, "si")


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
        {"points": 2.5},
        {"points": math.nan},
        {"points": "7"},
        {"columns": ("T", "r", "T")},
    ],
)
def test_request_validation(overrides):
    with pytest.raises(DomainError):
        density_request(**overrides)


def test_request_points_take_any_integer_type():
    # operator.index: a numpy integer is a grid size, a float is not
    numpy = pytest.importorskip("numpy")
    request = density_request(points=numpy.int64(5))
    assert request.points == 5 and type(request.points) is int
    assert len(run_sweep(request).rows) == 5
    with pytest.raises(DomainError, match="grid points must be an integer, got 5.0"):
        density_request(points=5.0)
    with pytest.raises(DomainError, match="duplicate columns in T,T"):
        density_request(columns=("T", "T"))


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


def _per_cell_texts(table) -> tuple[str, str]:
    """(CSV, JSON) of a table by the per-cell rules: the bytes to_csv and to_json must give.

    A CSV cell is empty for None, text as it is, and otherwise 17 digits with
    -0.0 folded into 0. A JSON cell is None or text as it is, and otherwise a
    float with -0.0 folded into 0 and nan, +-inf as their 17-digit text; the
    document is json.dumps(indent=2) of schema, columns and rows.
    """

    def csv_cell(value):
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        return format(float(value) + 0.0, ".17g")

    def json_cell(value):
        if value is None or isinstance(value, str):
            return value
        value = float(value) + 0.0
        return value if math.isfinite(value) else format(value, ".17g")

    columns, rows = list(table.columns), table.rows
    lines = [f"# bose-eos v1 columns: {','.join(columns)}"]
    lines += [",".join(csv_cell(row[c]) for c in columns) for row in rows]
    doc = {
        "schema": "bose-eos v1",
        "columns": columns,
        "rows": [{c: json_cell(row[c]) for c in columns} for row in rows],
    }
    return "\n".join(lines) + "\n", json.dumps(doc, indent=2, allow_nan=False) + "\n"


def test_json_equals_the_indented_dump_byte_for_byte():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(**_table_strategies(hypothesis.strategies))
    def check(columns, rows):
        table = bose_eos.sweep.SweepTable(columns=tuple(columns), rows=tuple(rows))
        assert table.to_json() == _per_cell_texts(table)[1]

    check()


def test_csv_equals_the_per_cell_formula_byte_for_byte():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(**_table_strategies(hypothesis.strategies))
    def check(columns, rows):
        table = bose_eos.sweep.SweepTable(columns=tuple(columns), rows=tuple(rows))
        assert table.to_csv() == _per_cell_texts(table)[0]

    check()


@pytest.mark.parametrize(
    "spec, constraint, value, spacing, columns",
    [
        (SPEC32, "density", 1.0, "linear", COLUMNS),  # condensed rows hold mu = -0.0
        (SPEC32, "pressure", 1.0, "linear", COLUMNS),  # sentinel rows below T_c(P)
        (SI_RB87, "density", 1e19, "log", COLUMNS),
        (SI_RB87, "pressure", 1e-11, "log", COLUMNS),
        (SPEC32, "density", 1.0, "linear", ("rho",)),  # the only column holds one value
    ],
)
def test_sweep_tables_equal_the_per_cell_rules(spec, constraint, value, spacing, columns):
    isochore = constraint == "density"
    tc = (critical_temperature_pressure, critical_temperature_density)[isochore](spec, value)
    request = SweepRequest(spec=spec, constraint=constraint, value=value, T_min=0.25 * tc,
                           T_max=4.0 * tc, points=256, spacing=spacing, columns=columns)
    table = run_sweep(request)
    if isochore:  # across T_c; mu = -0.0 where condensed
        assert {"condensed", "normal"} <= {row["regime"] for row in table.rows}
        assert any(math.copysign(1.0, row["mu"]) < 0.0 == row["mu"] for row in table.rows)
    else:  # sentinel rows below T_c(P), solved rows above it
        assert {row["r"] is None for row in table.rows} == {True, False}
    assert (table.to_csv(), table.to_json()) == _per_cell_texts(table)


def test_tables_whose_every_column_holds_one_value_equal_the_per_cell_rules():
    # also a repeated column, one key of a JSON row, and a key holding "%"
    row = {"rho": 1.5, "P": -0.0, "psi2": 0.0, "regime": "normal", "r": None, "%s": 2}
    for columns in (("rho",), ("P", "psi2", "regime"), ("r", "%s"), ("rho", "P", "rho")):
        table = bose_eos.sweep.SweepTable(columns=columns, rows=(row,) * 6)
        assert (table.to_csv(), table.to_json()) == _per_cell_texts(table)


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
    (GasSpec(d=3.0, sigma=1.0), 0.3, 2.0),  # integer orders 3 and 4
    (GasSpec(d=4.0, sigma=2.0), 5.0, 0.2),  # integer orders 2 and 3
    (GasSpec(d=2.2, sigma=1.5), 1.0, 1.0),  # d/sigma = 1.4667
    (GasSpec(d=3000.0, sigma=1.0), 1.0, 1.0),  # A(3000, 1) = e^15346 leaves the doubles
    (GasSpec(d=1.5, sigma=2.0), 1.0, 1.0),  # d <= sigma: no T_c(rho), inf boundary density
]


def _check_rows_equal_point_solves(request, solve, state_row):
    """Every row of run_sweep(request), by repr, is state_row(T, point solve at T).

    state_row(T, None) is the row of a T whose point solve raises
    CondensedRegion. Where the sweep raises, the first point solve that fails
    otherwise raises the same type and text. Returns the rows, () on failure.
    """
    spec, value = request.spec, request.value
    grid = temperature_grid(request)
    try:
        rows = run_sweep(request).rows
    except bose_eos.BoseEosError as exc:
        for T in grid:
            try:
                solve(spec, T, value)
            except CondensedRegion:
                continue
            except bose_eos.BoseEosError as point_exc:
                assert (type(point_exc), str(point_exc)) == (type(exc), str(exc))
                return ()
        raise AssertionError(f"the sweep raised {exc!r}; every point solve answered") from exc
    assert len(rows) == len(grid)
    for T, row in zip(grid, rows):
        try:
            expected = state_row(T, solve(spec, T, value))
        except CondensedRegion:
            expected = state_row(T, None)
        assert [repr(row[c]) for c in COLUMNS] == [repr(cell) for cell in expected], T
    return rows


def _rows_equal_solver_points(spec, constraint, value, tc_name, solve, state_row):
    """Drawn grids through T_c: both spacings, 2 to 40 points, ends within 3x of T_c.

    Returns the (regime, r is None) pairs of every row compared.
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    try:
        tc = getattr(bose_eos, tc_name)(spec, value)
    except ZeroTemperatureBEC:
        tc = 1.0  # every request fails; the point solves must fail alike
    seen = set()

    @hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
    @hypothesis.given(
        lo=st.floats(min_value=1.0 / 3.0, max_value=1.0),
        hi=st.floats(min_value=1.0, max_value=3.0, exclude_min=True),
        points=st.integers(min_value=2, max_value=40),
        spacing=st.sampled_from(["linear", "log"]),
    )
    @hypothesis.example(lo=0.5, hi=1.5, points=21, spacing="linear")  # a row at T_c
    def check(lo, hi, points, spacing):
        request = SweepRequest(
            spec=spec, constraint=constraint, value=value, T_min=lo * tc, T_max=hi * tc,
            points=points, spacing=spacing,
        )
        rows = _check_rows_equal_point_solves(request, solve, state_row)
        seen.update((row["regime"], row["r"] is None) for row in rows)

    check()
    return seen


@pytest.mark.parametrize("spec, rho, P", ROW_SPECS)
def test_isochore_rows_equal_solver_points(spec, rho, P):
    def state_row(T, pt):
        assert pt.P == pytest.approx(pressure_at(spec, T, pt.r), rel=1e-15)
        return pt.T, pt.t, pt.r, pt.mu, pt.psi2, pt.rho, pt.P, pt.regime

    seen = _rows_equal_solver_points(
        spec, "density", rho, "critical_temperature_density", solve_gap_isochore, state_row
    )
    regimes = {"condensed", "critical", "normal"}
    assert seen == (set() if spec.d <= spec.sigma else {(regime, False) for regime in regimes})


@pytest.mark.parametrize("spec, rho, P", ROW_SPECS)
def test_isobar_rows_equal_solver_points(spec, rho, P):
    tc = critical_temperature_pressure(spec, P)

    def state_row(T, pt):
        if pt is None:  # no state below T_c(P): the row is a sentinel
            return T, T / tc - 1.0, None, None, None, None, P, "condensed_boundary"
        return pt.T, pt.t_P, pt.r, pt.mu, 0.0, pt.rho, pt.P, pt.regime

    seen = _rows_equal_solver_points(
        spec, "pressure", P, "critical_temperature_pressure", solve_gap_isobar, state_row
    )
    # sentinels below T_c(P), the boundary state at T_c(P), normal states above
    assert seen == {("condensed_boundary", True), ("condensed_boundary", False), ("normal", False)}


@pytest.mark.parametrize(
    "constraint, solve, tc_of",
    [
        ("density", solve_gap_isochore, critical_temperature_density),
        ("pressure", solve_gap_isobar, critical_temperature_pressure),
    ],
)
def test_rows_equal_point_solves_that_build_their_start_table_anew(constraint, solve, tc_of):
    # The gap solve starts from a per-order table cached once per process. Each
    # point solve here builds it again, after the sweep, and must give the row's
    # bits: normal rows from 1.01 to 40 T_c, on both routes of the Bose function.
    spec = GasSpec(d=2.5, sigma=1.7)
    tc = tc_of(spec, 1.0)
    request = SweepRequest(spec=spec, constraint=constraint, value=1.0, T_min=1.01 * tc,
                           T_max=40.0 * tc, points=24, spacing="log")
    rows = run_sweep(request).rows
    for T, row in zip(temperature_grid(request), rows):
        bose_eos.rootfind._start_table.cache_clear()
        pt = solve(spec, T, 1.0)
        assert [repr(row[c]) for c in ("T", "r", "rho", "P", "regime")] == [
            repr(cell) for cell in (pt.T, pt.r, pt.rho, pt.P, pt.regime)
        ], T
    assert {row["regime"] for row in rows} == {"normal"}
    assert min(row["r"] / row["T"] for row in rows) < 0.5 < max(row["r"] / row["T"] for row in rows)


@pytest.mark.parametrize(
    "constraint, value, solve, tc_of",
    [
        ("density", 1e19, solve_gap_isochore, critical_temperature_density),
        ("pressure", 1e-5, solve_gap_isobar, critical_temperature_pressure),
    ],
)
def test_a_failing_sweep_raises_its_first_failing_point_solve(constraint, value, solve, tc_of):
    # SI at d = 28, where L0^(d/2) leaves the doubles: a state at r = 0 fails with the
    # unit conversion's text, one above T_c with its solve's; the isobar's first rows
    # are sentinels, so that sweep fails mid-grid
    spec = GasSpec(d=28.0, sigma=2.0, mass=1.44e-25, units="si")
    tc = tc_of(spec, value)
    for lo, hi, points in ((0.5, 1.5, 5), (1.2, 2.0, 3)):
        request = SweepRequest(
            spec=spec, constraint=constraint, value=value, T_min=lo * tc, T_max=hi * tc,
            points=points,
        )
        assert _check_rows_equal_point_solves(request, solve, None) == ()


def test_sweep_takes_the_request_constants_once(monkeypatch):
    # the unit scales and factors, zeta and A are the same for every row of a request
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def spy(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, spy)

    for module in (bose_eos.gas, bose_eos.isochore, bose_eos.isobar, bose_eos.sweep,
                   bose_eos.special):
        for name in ("_scales", "_unit_map", "zeta", "prefactor_A"):
            if hasattr(module, name):
                counted(module, name)
    for spec, rho, P in ROW_SPECS[:2]:
        for constraint, value, tc_of in (("density", rho, critical_temperature_density),
                                         ("pressure", P, critical_temperature_pressure)):
            tc = tc_of(spec, value)
            counts = []
            for points in (256, 8, 256):  # the first fills the Bose routes' per-order caches
                calls.clear()
                request = SweepRequest(
                    spec=spec, constraint=constraint, value=value, T_min=0.25 * tc,
                    T_max=4.0 * tc, points=points,
                )
                rows = run_sweep(request).rows
                assert {"condensed", "condensed_boundary"} & {row["regime"] for row in rows}
                counts.append(sorted(calls))
            assert counts[1] == counts[2], (spec.units, constraint, counts)


@pytest.mark.parametrize(
    "constraint, tc_name",
    [("density", "critical_temperature_density"), ("pressure", "critical_temperature_pressure")],
)
def test_run_sweep_computes_tc_once_per_request(monkeypatch, constraint, tc_name):
    calls = []
    transition = bose_eos.isochore._transition

    def counted(*args):
        calls.append(args)
        return transition(*args)

    monkeypatch.setattr(bose_eos.isochore, "_transition", counted)
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
