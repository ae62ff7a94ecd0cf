"""Command-line front end: critical temperatures, sweeps, free-energy tables,
and the self-verification suite.

stdout carries data (JSON or CSV), stderr carries diagnostics. Exit codes:
0 success, 1 verification-check failure, 2 domain error, 3 convergence
error, 4 configuration error (flags, config file, an unwritable --output).
Each subcommand takes only the settings it reads, as flags spelled out in
full or as keys of a flat `key = value` config file; `main` merges them
once, a flag over the file over the default. All numeric I/O is in natural
units (hbar = k_B = 1) unless --units si is given.
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

# Every setting, as a flag and as a config-file key: (type, choices, default, help).
_SETTINGS = {
    "d": (float, None, None, "spatial dimension (real, > 0)"),
    "sigma": (float, None, None, "dispersion exponent (0, 2]"),
    "mass": (float, None, 1.0, "particle mass (default 1)"),
    "units": (str, ("natural", "si"), "natural", "unit system"),
    "density": (float, None, None, "number density (> 0)"),
    "pressure": (float, None, None, "pressure (> 0)"),
    "tmin": (float, None, None, "lowest temperature"),
    "tmax": (float, None, None, "highest temperature"),
    "points": (int, None, 50, "grid size (default 50)"),
    "spacing": (str, ("linear", "log"), "linear", "grid spacing"),
    "columns": (str, None, ",".join(COLUMNS), f"comma-separated subset of {','.join(COLUMNS)}"),
    "format": (str, ("csv", "json"), "csv", "output format"),
    "output": (str, None, None, "write to file instead of stdout"),
    "t": (str, None, None, "comma-separated reduced temperatures"),
    # verify.LEVELS, which the parser reads without the suite
    "level": (str, ("quick", "full"), "quick", "quick (default) or full"),
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 4)."""

    def __init__(self, **kwargs):
        # no prefixes of flags, as there are none of config keys; subparsers are _Parsers too
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bose-eos",
        description="Equilibrium thermodynamics of the ideal Bose gas with "
        "dispersion eps(k) = hbar^2 k^sigma / 2m in d dimensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, keys) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        cmd.add_argument("--config", help="flat key = value settings file")
        for key in keys:
            kind, choices, _, help_text = _SETTINGS[key]
            cmd.add_argument(f"--{key}", type=kind, choices=choices, help=help_text)
    return parser


def _load_config(path: str, command: str) -> dict:
    """Settings from a flat `key = value` file; each key must be one of `command`'s flags."""
    scope = _COMMANDS[command][2]
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
        kind, choices, _, _ = _SETTINGS[key]
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


def _required(args, key: str):
    value = getattr(args, key)
    if value is None:
        raise ConfigError(f"missing required setting {key} (flag --{key} or config key {key})")
    return value


def _build_spec(args) -> GasSpec:
    return GasSpec(
        d=_required(args, "d"), sigma=_required(args, "sigma"), mass=args.mass, units=args.units
    )


def _constraint(args) -> tuple[str, float]:
    if (args.density is None) == (args.pressure is None):
        raise ConfigError(
            "exactly one of density / pressure is required, as a flag or a config key"
        )
    if args.density is not None:
        return "density", args.density
    return "pressure", args.pressure


def _write_table(table: SweepTable, args) -> None:
    text = table.to_csv() if args.format == "csv" else table.to_json()
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {args.output!r}: {exc}") from None


def _cmd_tc(args) -> int:
    spec = _build_spec(args)
    kind, value = _constraint(args)
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


def _cmd_sweep(args) -> int:
    spec = _build_spec(args)
    kind, value = _constraint(args)
    request = SweepRequest(
        spec=spec,
        constraint=kind,
        value=value,
        T_min=_required(args, "tmin"),
        T_max=_required(args, "tmax"),
        points=args.points,
        spacing=args.spacing,
        columns=tuple(c.strip() for c in args.columns.split(",")),
    )
    _write_table(run_sweep(request), args)
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
        cells = (t, model.C_f, psi2, f_ordered, f_disordered, mu_asym)
        rows.append(dict(zip(_LANDAU_COLUMNS, cells)))
    return rows


def _cmd_landau(args) -> int:
    spec = _build_spec(args)
    rho = _required(args, "density")
    t_raw, name = _required(args, "t"), "setting t (flag --t or config key t)"
    try:
        t_values = [float(part) for part in t_raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{name} must be comma-separated numbers, got {t_raw!r}") from None
    if not t_values:
        raise ConfigError(f"{name} must contain at least one reduced temperature")
    rows = tuple(_landau_rows(spec, rho, t_values))
    _write_table(SweepTable(columns=_LANDAU_COLUMNS, rows=rows), args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import all_passed, run_checks, verdict

    results = run_checks(args.level)
    for res in results:
        print(verdict(res.name, res.passed, res.summary))
    passed = sum(res.passed for res in results)
    print(f"{passed}/{len(results)} checks passed at level {args.level}")
    return EXIT_OK if all_passed(results) else EXIT_CHECK_FAILED


# Each subcommand's handler, help and settings: exactly those the handler reads.
_COMMANDS = {
    "tc": (_cmd_tc, "critical temperature at fixed density or pressure",
           ("d", "sigma", "mass", "units", "density", "pressure")),
    "sweep": (_cmd_sweep, "temperature sweep along an isochore or isobar",
              ("d", "sigma", "mass", "units", "density", "pressure", "tmin", "tmax", "points",
               "spacing", "columns", "format", "output")),
    "landau": (_cmd_landau, "effective free-energy table over reduced temperatures",
               ("d", "sigma", "mass", "units", "density", "t", "format", "output")),
    "verify": (_cmd_verify, "run the cross-module verification suite", ("level",)),
}

# Any other BoseEosError is a domain error.
_EXIT_CODES = {ConfigError: EXIT_CONFIG, ConvergenceError: EXIT_CONVERGENCE}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _load_config(args.config, args.command) if args.config else {}
        handler, _, keys = _COMMANDS[args.command]
        for key in keys:  # flag over config file over default
            if getattr(args, key) is None:
                setattr(args, key, config.get(key, _SETTINGS[key][2]))
        return handler(args)
    except BoseEosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_DOMAIN)


if __name__ == "__main__":
    sys.exit(main())
