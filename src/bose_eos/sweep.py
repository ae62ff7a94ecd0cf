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
import operator
from typing import NamedTuple

from .errors import DomainError
from .gas import GasSpec
from .isochore import REGIME_BOUNDARY, _states

SCHEMA_VERSION = "bose-eos v1"
COLUMNS = ("T", "t", "r", "mu", "psi2", "rho", "P", "regime")

CONSTRAINT_DENSITY = "density"
CONSTRAINT_PRESSURE = "pressure"
_CONSTRAINTS = (CONSTRAINT_DENSITY, CONSTRAINT_PRESSURE)
_SPACINGS = ("linear", "log")
# Encodes the list of sweep rows with the item separator json.dumps(...,
# indent=2) puts between a row's items, which sit at depth 3 inside the
# "rows" list; SweepTable.to_json indents the braces and the joins of rows.
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
        try:  # numpy ints pass; 2.5 and nan do not
            points = operator.index(points)
        except TypeError:
            raise DomainError(f"grid points must be an integer, got {points!r}") from None
        if points < 2:
            raise DomainError(f"need at least 2 grid points, got {points!r}")
        if spacing not in _SPACINGS:
            raise DomainError(f"spacing must be one of {_SPACINGS}, got {spacing!r}")
        unknown = [c for c in columns if c not in COLUMNS]
        if unknown or not columns:
            raise DomainError(f"unknown columns {','.join(unknown)}; available: {','.join(COLUMNS)}")
        if len(set(columns)) < len(columns):
            raise DomainError(f"duplicate columns in {','.join(columns)}")
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
        columns = self.columns
        lines = [f"# {SCHEMA_VERSION} columns: {','.join(columns)}"]
        for row in self.rows:  # a float cell inline, as _format_cell formats it
            cells = [f"{v + 0.0:.17g}" if v.__class__ is float else _format_cell(v)
                     for v in map(row.__getitem__, columns)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        r"""json.dumps(doc, indent=2, allow_nan=False) of the table, byte for byte.

        indent=2 would take json's pure-Python encoder; the rows go through
        the C encoder instead, in one call on the list of flat row dicts, and
        get the indented frame here. A newline appears only in the encoder's
        separators, never inside an encoded string, and no encoded cell ends
        in a brace, so "},\n      {" occurs exactly where two rows join.
        """
        head = json.dumps({"schema": SCHEMA_VERSION, "columns": list(self.columns)}, indent=2)
        if not self.rows:
            return head[:-2] + ',\n  "rows": []\n}\n'
        columns = self.columns
        body = _ROW_ENCODER.encode([{c: _json_cell(row[c]) for c in columns} for row in self.rows])
        start, end = ("{\n      ", "\n    }") if columns else ("{", "}")  # an empty row stays "{}"
        rows = body[2:-2].replace("},\n      {", f"{end},\n    {start}")
        return f'{head[:-2]},\n  "rows": [\n    {start}{rows}{end}\n  ]\n}}\n'


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

    The rows are the states of isochore._states, the core behind
    solve_gap_isochore and solve_gap_isobar, which takes T_c and the other
    constants the held density or pressure fixes once per request; so each
    row equals that point solve.
    """
    value = request.value
    isobar = request.constraint == CONSTRAINT_PRESSURE
    grid = temperature_grid(request)
    tc, states = _states(request.spec, value, int(isobar), grid)
    rows = []
    for T, state in zip(grid, states):
        if state is None:  # no isobar state below T_c(P): the grid row is a sentinel
            rows.append({"T": T, "t": T / tc - 1.0, "r": None, "mu": None, "psi2": None,
                         "rho": None, "P": value, "regime": REGIME_BOUNDARY})
            continue
        T, t, r, psi2, conjugate, regime = state
        rho, P = (conjugate, value) if isobar else (value, conjugate)
        rows.append({"T": T, "t": t, "r": r, "mu": -r, "psi2": psi2, "rho": rho, "P": P,
                     "regime": regime})
    return SweepTable(columns=tuple(request.columns), rows=tuple(rows))
