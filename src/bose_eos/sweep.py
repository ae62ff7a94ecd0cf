"""Temperature sweeps along isochores and isobars, with stable serialization.

Rows are solved one after another in grid order, ascending in temperature,
and floats are formatted with 17 significant digits, so identical requests
produce byte-identical output. The grids are built in plain floats by
``linspace`` and ``geomspace``, numpy's formulas without numpy's
CPU-dependent SIMD rounding, so the bytes do not depend on the host either.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .errors import DomainError
from .gas import GasSpec, _constraint_constants
from .isobar import REGIME_BOUNDARY, _isobar_state, critical_temperature_pressure
from .isochore import _isochore_state, critical_temperature_density

SCHEMA_VERSION = "bose-eos v1"
COLUMNS = ("T", "t", "r", "mu", "psi2", "rho", "P", "regime")

CONSTRAINT_DENSITY = "density"
CONSTRAINT_PRESSURE = "pressure"
_CONSTRAINTS = (CONSTRAINT_DENSITY, CONSTRAINT_PRESSURE)
_SPACINGS = ("linear", "log")
# Encodes one sweep row with the item separator json.dumps(..., indent=2)
# puts between a row's items, which sit at depth 3 inside the "rows" list;
# SweepTable.to_json replaces the braces with indented ones.
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "), allow_nan=False)


class _SweepRequest(NamedTuple):
    spec: GasSpec
    constraint: str
    value: float
    T_min: float
    T_max: float
    points: int
    spacing: str
    columns: tuple[str, ...]


class SweepRequest(_SweepRequest):
    """One sweep: a gas, a held constraint, and a temperature grid.

    A named tuple that validates its fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        spec: GasSpec,
        constraint: str,
        value: float,
        T_min: float,
        T_max: float,
        points: int,
        spacing: str = "linear",
        columns: tuple[str, ...] = COLUMNS,
    ):
        if constraint not in _CONSTRAINTS:
            raise DomainError(f"constraint must be one of {_CONSTRAINTS}, got {constraint!r}")
        if not (value > 0.0):
            raise DomainError(f"constraint value must be positive, got {value!r}")
        if not (0.0 < T_min < T_max):
            raise DomainError(f"need 0 < T_min < T_max, got T_min={T_min!r}, T_max={T_max!r}")
        if T_max == math.inf:
            raise DomainError(f"T_max must be finite, got T_max={T_max!r}")
        if points < 2:
            raise DomainError(f"need at least 2 grid points, got {points!r}")
        if spacing not in _SPACINGS:
            raise DomainError(f"spacing must be one of {_SPACINGS}, got {spacing!r}")
        unknown = [c for c in columns if c not in COLUMNS]
        if unknown or not columns:
            raise DomainError(f"unknown columns {unknown}; available: {COLUMNS}")
        return super().__new__(cls, spec, constraint, value, T_min, T_max, points, spacing, columns)

    @classmethod
    def _make(cls, iterable) -> "SweepRequest":
        """Through __new__, so that _replace validates too."""
        return cls(*iterable)


class SweepTable(NamedTuple):
    """Ordered sweep rows plus the column schema they were built under."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...] = ()

    def to_csv(self) -> str:
        lines = [f"# {SCHEMA_VERSION} columns: {','.join(self.columns)}"]
        for row in self.rows:
            lines.append(",".join(_format_cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """json.dumps(doc, indent=2, allow_nan=False) of the table, byte for byte.

        indent=2 would take json's pure-Python encoder; the rows go through
        the C encoder instead, one flat dict each, and get the indented
        frame around them here.
        """
        head = json.dumps({"schema": SCHEMA_VERSION, "columns": list(self.columns)}, indent=2)
        if not self.rows:
            return head[:-2] + ',\n  "rows": []\n}\n'
        encode = _ROW_ENCODER.encode
        rows = []
        for row in self.rows:
            text = encode({c: _json_cell(row[c]) for c in self.columns})
            rows.append(f"    {{\n      {text[1:-1]}\n    }}" if len(text) > 2 else "    {}")
        return head[:-2] + ',\n  "rows": [\n' + ",\n".join(rows) + "\n  ]\n}\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value) + 0.0, ".17g")  # + 0.0 folds -0.0 into 0


def _json_cell(value):
    if value is None or isinstance(value, str):
        return value
    value = float(value) + 0.0
    if not math.isfinite(value):
        return format(value, ".17g")
    return value


def linspace(start: float, stop: float, points: int) -> list[float]:
    """numpy.linspace(start, stop, points) bit for bit, for points >= 2."""
    step = (stop - start) / (points - 1)
    return [i * step + start for i in range(points - 1)] + [stop]


def geomspace(start: float, stop: float, points: int) -> list[float]:
    """Log-uniform grid from start to stop > 0, points >= 2, ends pinned.

    numpy.geomspace's formula (log10 of the ends, linspace in the exponent,
    10 ** e) in plain floats. It equals numpy's baseline path bit for bit;
    numpy's SIMD paths round some cells differently, so numpy's grids depend
    on the CPU and these do not.
    """
    exponents = linspace(math.log10(start), math.log10(stop), points)
    return [start] + [10.0**e for e in exponents[1:-1]] + [stop]


def temperature_grid(request: SweepRequest) -> list[float]:
    """The sweep's temperature values, ascending."""
    spaced = geomspace if request.spacing == "log" else linspace
    return spaced(request.T_min, request.T_max, request.points)


def run_sweep(request: SweepRequest) -> SweepTable:
    """Solve the sweep grid and return rows ordered by temperature.

    T_c and the other constants the held density or pressure fixes are
    computed once per request; each row then takes the same solver core as
    solve_gap_isochore or solve_gap_isobar, so it equals that point solve.
    """
    spec, value = request.spec, request.value
    isobar = request.constraint == CONSTRAINT_PRESSURE
    if isobar:
        tc, state_at = critical_temperature_pressure(spec, value), _isobar_state
    else:
        tc, state_at = critical_temperature_density(spec, value), _isochore_state
    constants = _constraint_constants(spec, value, int(isobar))
    rows = []
    for T in temperature_grid(request):
        pt = state_at(spec, T, value, tc, *constants)
        if pt is None:  # no isobar state below T_c(P): the grid row is a sentinel
            rows.append({
                "T": T,
                "t": T / tc - 1.0,
                "r": None,
                "mu": None,
                "psi2": None,
                "rho": None,
                "P": value,
                "regime": REGIME_BOUNDARY,
            })
            continue
        rows.append({
            "T": pt.T,
            "t": pt.t_P if isobar else pt.t,
            "r": pt.r,
            "mu": pt.mu,
            "psi2": 0.0 if isobar else pt.psi2,
            "rho": pt.rho,
            "P": pt.P,
            "regime": pt.regime,
        })
    return SweepTable(columns=tuple(request.columns), rows=tuple(rows))
