"""Temperature sweeps along isochores and isobars, with stable serialization.

Rows are solved one after another in grid order, ascending in temperature,
and serialized a column at a time, a float column in one map of its format
(17 significant digits in CSV, json's repr in JSON), so identical requests
produce byte-identical output. The grids are built in plain floats by
``linspace`` and ``geomspace``, numpy's formulas without numpy's
CPU-dependent SIMD rounding, so the bytes do not depend on the host either.
"""

from __future__ import annotations

import json
import math
import operator
from json.encoder import encode_basestring_ascii
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
        lines = map(",".join, self._cells(self.columns, "%.17g".__mod__, "", _format_cell))
        return "\n".join([f"# {SCHEMA_VERSION} columns: {','.join(self.columns)}", *lines]) + "\n"

    def to_json(self) -> str:
        """json.dumps(doc, indent=2, allow_nan=False) of the table, byte for byte.

        indent=2 would take json's pure-Python encoder; here the cells are
        encoded a column at a time and each row fills one template of the
        encoded keys, so a row costs one string formatting.
        """
        head = json.dumps({"schema": SCHEMA_VERSION, "columns": list(self.columns)}, indent=2)
        if not self.rows:
            return head[:-2] + ',\n  "rows": []\n}\n'
        columns = tuple(dict.fromkeys(self.columns))  # a repeated column is one key of a row
        keys = (encode_basestring_ascii(c).replace("%", "%%") for c in columns)
        items = ",\n".join(f"      {key}: %s" for key in keys)
        template = f"    {{\n{items}\n    }}" if columns else "    {}"
        cells = self._cells(columns, float.__repr__, "null", _json_text)
        rows = ",\n".join(map(template.__mod__, cells))
        return f'{head[:-2]},\n  "rows": [\n{rows}\n  ]\n}}\n'

    def _cells(self, columns, fmt, none: str, cell):
        """Each row's tuple of cell texts, built a column at a time by _column_texts."""
        texts = [_column_texts(list(map(operator.itemgetter(c), self.rows)), fmt, none, cell)
                 for c in columns]
        return zip(*texts) if texts else [()] * len(self.rows)


def _column_texts(values: list, fmt, none: str, cell) -> list[str]:
    """One column's cell texts: none for None, fmt of each finite float with -0.0 folded.

    A column with any other cell, nan and +-inf included, takes the per-cell rule ``cell``.
    """
    kinds = set(map(type, values))
    floats = [v for v in values if v is not None] if kinds == {float, type(None)} else values
    if kinds - {type(None)} != {float} or not math.isfinite(sum(floats)):
        return list(map(cell, values))
    if floats.count(floats[0]) == len(floats):  # one value, such as the held density
        texts = [fmt(floats[0] + 0.0)] * len(floats)
    else:
        texts = list(map(fmt, map(0.0.__add__, floats)))
    if floats is values:
        return texts
    texts = iter(texts)
    return [none if v is None else next(texts) for v in values]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value) + 0.0, ".17g")  # + 0.0 folds -0.0 into 0


def _json_text(value) -> str:
    """A cell as json.dumps writes it, after folding -0.0 into 0 and nan, +-inf into text."""
    if value is None:
        return "null"
    if not isinstance(value, str):
        value = float(value) + 0.0
        if math.isfinite(value):
            return repr(value)
        value = format(value, ".17g")
    return encode_basestring_ascii(value)


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
