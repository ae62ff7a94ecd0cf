"""Command-line front end: critical temperatures, sweeps, free-energy tables,
and the self-verification suite.

stdout carries data (JSON or CSV), stderr carries diagnostics. Exit codes:
0 success, 1 verification-check failure, 2 domain error, 3 convergence
error, 4 configuration error (flags, config file, an unwritable --output).
Settings may come from a flat `key = value` config file holding the
subcommand's own flags; explicit flags win on conflict. All numeric I/O is
in natural units (hbar = k_B = 1) unless --units si is given.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BoseEosError,
    ConfigError,
    ConvergenceError,
    ZeroTemperatureBEC,
)
from .gas import GasSpec
from .isobar import critical_temperature_pressure
from .isochore import critical_temperature_density
from .sweep import COLUMNS, SweepRequest, SweepTable, run_sweep

# criticality and verify are imported by the subcommands that use them, so
# that `tc`, `sweep` and the error exits do not pay for them.

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_CONFIG = 4

_LANDAU_COLUMNS = ("t", "C_f", "psi2", "f_ordered", "f_disordered", "mu_asym")

# Every setting, as a flag and as a config-file key: (type, choices, help).
_SETTINGS = {
    "d": (float, None, "spatial dimension (real, > 0)"),
    "sigma": (float, None, "dispersion exponent (0, 2]"),
    "mass": (float, None, "particle mass (default 1)"),
    "units": (str, ("natural", "si"), "unit system"),
    "density": (float, None, "number density (> 0)"),
    "pressure": (float, None, "pressure (> 0)"),
    "tmin": (float, None, "lowest temperature"),
    "tmax": (float, None, "highest temperature"),
    "points": (int, None, "grid size (default 50)"),
    "spacing": (str, ("linear", "log"), "grid spacing"),
    "columns": (str, None, f"comma-separated subset of {','.join(COLUMNS)}"),
    "format": (str, ("csv", "json"), "output format"),
    "output": (str, None, "write to file instead of stdout"),
    "t": (str, None, "comma-separated reduced temperatures"),
    # verify.LEVELS, which the parser reads without the suite
    "level": (str, ("quick", "full"), "quick (default) or full"),
}
_GAS_SETTINGS = ("d", "sigma", "mass", "units")  # every subcommand's, after --config


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 4)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bose-eos",
        description="Equilibrium thermodynamics of the ideal Bose gas with "
        "dispersion eps(k) = hbar^2 k^sigma / 2m in d dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, own) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        cmd.add_argument("--config", help="flat key = value settings file")
        for key in _GAS_SETTINGS + own:
            kind, choices, help_text = _SETTINGS[key]
            cmd.add_argument(f"--{key}", type=kind, choices=choices, help=help_text)
    return parser


def _load_config(path: str, command: str) -> dict:
    """Settings from a flat `key = value` file; each key must be one of `command`'s flags."""
    scope = _GAS_SETTINGS + _COMMANDS[command][2]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    settings = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        if key not in scope:
            raise ConfigError(f"{path}:{lineno}: {command} has no setting {key!r}")
        kind, choices, _ = _SETTINGS[key]
        try:
            settings[key] = kind(value)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad value {value!r} for {key!r}"
            ) from None
        if choices and settings[key] not in choices:
            raise ConfigError(
                f"{path}:{lineno}: invalid choice {value!r} for {key!r} "
                f"(choose from {', '.join(choices)})"
            )
    return settings


def _setting(args, config: dict, key: str, default=None, required: bool = False):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        if required:
            raise ConfigError(f"missing required setting --{key}")
        value = default
    return value


def _build_spec(args, config: dict) -> GasSpec:
    return GasSpec(
        d=_setting(args, config, "d", required=True),
        sigma=_setting(args, config, "sigma", required=True),
        mass=_setting(args, config, "mass", default=1.0),
        units=_setting(args, config, "units", default="natural"),
    )


def _constraint(args, config: dict) -> tuple[str, float]:
    density = _setting(args, config, "density")
    pressure = _setting(args, config, "pressure")
    if (density is None) == (pressure is None):
        raise ConfigError("exactly one of --density / --pressure is required")
    if density is not None:
        return "density", density
    return "pressure", pressure


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from None


def _cmd_tc(args, config: dict) -> int:
    spec = _build_spec(args, config)
    kind, value = _constraint(args, config)
    payload = {"constraint": kind, "value": value, "units": spec.units}
    if kind == "pressure":
        payload["T_c"] = critical_temperature_pressure(spec, value)
        payload["regime"] = "finite_temperature_BEC"
    else:
        try:
            payload["T_c"] = critical_temperature_density(spec, value)
            payload["regime"] = "finite_temperature_BEC"
        except ZeroTemperatureBEC as exc:
            payload["T_c"] = 0.0
            payload["regime"] = "zero_temperature_BEC"
            payload["note"] = str(exc)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_sweep(args, config: dict) -> int:
    spec = _build_spec(args, config)
    kind, value = _constraint(args, config)
    columns_raw = _setting(args, config, "columns")
    if columns_raw is None:
        columns = COLUMNS
    else:
        columns = tuple(c.strip() for c in columns_raw.split(","))
        unknown = [c for c in columns if c not in COLUMNS]
        if unknown:
            raise ConfigError(f"unknown columns {unknown}; available: {','.join(COLUMNS)}")
        if len(set(columns)) < len(columns):
            raise ConfigError(f"duplicate columns in {columns_raw!r}")
    request = SweepRequest(
        spec=spec,
        constraint=kind,
        value=value,
        T_min=_setting(args, config, "tmin", required=True),
        T_max=_setting(args, config, "tmax", required=True),
        points=_setting(args, config, "points", default=50),
        spacing=_setting(args, config, "spacing", default="linear"),
        columns=columns,
    )
    table = run_sweep(request)
    fmt = _setting(args, config, "format", default="csv")
    text = table.to_csv() if fmt == "csv" else table.to_json()
    _write_output(text, _setting(args, config, "output"))
    return EXIT_OK


def _landau_rows(spec: GasSpec, rho: float, t_values: list[float]) -> list[dict]:
    from .criticality import chemical_potential_asymptotic, landau_free_energy, landau_model

    rows = []
    for t in t_values:
        model = landau_model(spec, rho, t)
        shift = model.d_over_sigma * t
        psi2 = max(0.0, -shift)
        # f is exactly 0 at the ordered root (the bracket vanishes there);
        # for t >= 0 the only root is psi = 0 and the columns coincide.
        if t < 0.0:
            f_ordered = 0.0
            f_disordered = None  # psi = 0 lies outside the real branch
            mu_asym = None
        else:
            f_ordered = landau_free_energy(model, 0.0)
            f_disordered = f_ordered
            mu_asym = chemical_potential_asymptotic(model, 0.0)
        rows.append(
            {
                "t": t,
                "C_f": model.C_f,
                "psi2": psi2,
                "f_ordered": f_ordered,
                "f_disordered": f_disordered,
                "mu_asym": mu_asym,
            }
        )
    return rows


def _cmd_landau(args, config: dict) -> int:
    spec = _build_spec(args, config)
    rho = _setting(args, config, "density", required=True)
    t_raw = _setting(args, config, "t", required=True)
    try:
        t_values = [float(part) for part in str(t_raw).split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--t must be comma-separated numbers, got {t_raw!r}") from None
    if not t_values:
        raise ConfigError("--t must contain at least one reduced temperature")
    table = SweepTable(columns=_LANDAU_COLUMNS, rows=tuple(_landau_rows(spec, rho, t_values)))
    fmt = _setting(args, config, "format", default="csv")
    text = table.to_csv() if fmt == "csv" else table.to_json()
    _write_output(text, _setting(args, config, "output"))
    return EXIT_OK


def _cmd_verify(args, config: dict) -> int:
    from .verify import all_passed, run_checks, verdict

    level = _setting(args, config, "level", default="quick")
    results = run_checks(level)
    for res in results:
        print(verdict(res.name, res.passed, res.summary))
    passed = sum(res.passed for res in results)
    print(f"{passed}/{len(results)} checks passed at level {level}")
    return EXIT_OK if all_passed(results) else EXIT_CHECK_FAILED


# Each subcommand's handler, help and own settings, which follow the gas's.
_COMMANDS = {
    "tc": (_cmd_tc, "critical temperature at fixed density or pressure", ("density", "pressure")),
    "sweep": (
        _cmd_sweep,
        "temperature sweep along an isochore or isobar",
        ("density", "pressure", "tmin", "tmax", "points", "spacing", "columns", "format", "output"),
    ),
    "landau": (
        _cmd_landau,
        "effective free-energy table over reduced temperatures",
        ("density", "t", "format", "output"),
    ),
    "verify": (_cmd_verify, "run the cross-module verification suite", ("level",)),
}

# Any other BoseEosError is a domain error.
_EXIT_CODES = {ConfigError: EXIT_CONFIG, ConvergenceError: EXIT_CONVERGENCE}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args.config, args.command) if args.config else {}
        return _COMMANDS[args.command][0](args, config)
    except BoseEosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_DOMAIN)


if __name__ == "__main__":
    sys.exit(main())
