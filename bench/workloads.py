"""Workload inputs, public calls and output checks for the bose-eos benchmark.

Input generation uses the standard library only, so a cycle's inputs (and
their digest) can be produced before ``bose_eos`` is imported. Every cycle
of a workload has the same composition; the seed only jitters values inside
each stratum (a density or pressure, a parameter of an error call), so every
seed does the same kinds and amounts of work.

Each workload is a class with

* ``cycle(seed, index)``: the JSON-able inputs of one cycle;
* ``prepare(op)``: untimed work that turns inputs into call arguments
  (critical temperatures, temporary file names);
* ``call(prep)``: the timed public calls, returning their output;
* ``check(prep, out)``: untimed verification, raising :class:`WrongAnswer`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

# Half-decade ladder of reduced temperatures, 1e-2 down to 1e-6.
LADDER = tuple(10.0 ** (-2.0 - 0.5 * k) for k in range(9))

RB87_MASS_KG = 1.443160648e-25

# Relative accuracy a solved gap must reproduce its constraint with.
CONSTRAINT_RTOL = 1e-10
CONDENSATE_ATOL = 1e-12
CRITICAL_WINDOW = 1e-8

# Bounds `bose-eos verify --level full` holds fitted exponents to.
EXPONENT_RTOL = 0.02
ETA_ATOL = 1e-3

SCHEMA_TAG = "bose-eos v1"


class WrongAnswer(Exception):
    """A public call returned an output that fails its check."""


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _rng(name: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{index}")


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


def input_digest(workload: type, seed: int, cycles: int = 4) -> str:
    """sha256 over the inputs of the first ``cycles`` cycles."""
    h = hashlib.sha256()
    for index in range(cycles):
        h.update(json.dumps(workload.cycle(seed, index), sort_keys=True).encode())
    return h.hexdigest()[:16]


def composition(ops: list[dict]) -> dict[str, int]:
    """Count of ops per kind label in one cycle."""
    counts: dict[str, int] = {}
    for op in ops:
        counts[op["label"]] = counts.get(op["label"], 0) + 1
    return counts


def _spec(be, spec: list):
    d, sigma, mass, units = spec
    return be.GasSpec(d=d, sigma=sigma, mass=mass, units=units)


def _tc(be, spec, constraint: str, value: float) -> float:
    if constraint == "density":
        return be.critical_temperature_density(spec, value)
    return be.critical_temperature_pressure(spec, value)


def check_rows(be, spec, constraint: str, value: float, tc: float, rows: list[dict]):
    """Verify sweep rows against the constraint they were solved under.

    Normal rows must reproduce the held density or pressure through
    ``density_at``/``pressure_at``; condensed isochore rows must carry
    Psi^2 = 1 - (T/T_c)^(d/sigma); isobar rows below T_c(P) must be sentinels.
    """
    nu = spec.d / spec.sigma
    temps = [row["T"] for row in rows]
    _require(temps == sorted(temps), "rows not ordered by temperature")
    for row in rows:
        T, regime = row["T"], row["regime"]
        if constraint == "density":
            if regime == "normal":
                err = _rel(be.density_at(spec, T, row["r"]), value)
                _require(err <= CONSTRAINT_RTOL, f"density residual {err:.2e} at T={T!r}")
            elif regime == "condensed":
                expected = 1.0 - (T / tc) ** nu
                _require(row["r"] == 0.0, f"condensed row with r={row['r']!r}")
                _require(abs(row["psi2"] - expected) <= CONDENSATE_ATOL,
                         f"psi2 {row['psi2']!r} != {expected!r} at T={T!r}")
            else:
                _require(regime == "critical" and abs(T / tc - 1.0) <= CRITICAL_WINDOW,
                         f"unexpected regime {regime!r} at T/T_c={T / tc!r}")
        elif T < tc * (1.0 - CRITICAL_WINDOW):
            _require(regime == "condensed_boundary" and row["r"] is None
                     and row["rho"] is None, f"isobar row below T_c(P) is not a sentinel: {row}")
        elif regime == "normal":
            err = _rel(be.pressure_at(spec, T, row["r"]), value)
            _require(err <= CONSTRAINT_RTOL, f"pressure residual {err:.2e} at T={T!r}")
            err = _rel(be.density_at(spec, T, row["r"]), row["rho"])
            _require(err <= CONSTRAINT_RTOL, f"isobar density off by {err:.2e} at T={T!r}")
        else:
            _require(regime == "condensed_boundary" and row["r"] == 0.0,
                     f"unexpected isobar regime {regime!r} at T/T_c={T / tc!r}")


def _cell(text: str):
    """Inverse of the CSV cell format: '' -> None, numbers -> float."""
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(text: str, fmt: str) -> tuple[list[str], list[dict]]:
    """Parse `bose-eos v1` CSV or JSON output into columns and rows."""
    if fmt == "csv":
        header, _, body = text.partition("\n")
        prefix = f"# {SCHEMA_TAG} columns: "
        _require(header.startswith(prefix), f"bad CSV header {header!r}")
        columns = header[len(prefix):].split(",")
        rows = [dict(zip(columns, map(_cell, rec))) for rec in csv.reader(io.StringIO(body))]
        return columns, rows
    doc = json.loads(text)
    _require(doc.get("schema") == SCHEMA_TAG, f"bad JSON schema tag {doc.get('schema')!r}")
    rows = [{c: (float(v) if v == "inf" else v) for c, v in row.items()} for row in doc["rows"]]
    return doc["columns"], rows


class Workload:
    name = ""
    WARMUP: tuple[str, ...] | None = None  # labels to warm up with; None: every label
    # Ops run in child processes: peak memory is theirs, and op times are their
    # CPU times, because reference samples taken in this process do not track
    # the speed of whichever CPU a child runs on. Otherwise op wall times are
    # scaled by reference samples taken between the ops.
    OPS_IN_CHILDREN = False
    # Fixed per workload, so the tail means the same on every run; chosen to
    # leave at least ten samples beyond it in a run of the default length.
    TAIL_PERCENTILE = 90
    MIN_CYCLES = 1

    def __init__(self, be, tmp_dir: str):
        self.be = be
        self.tmp_dir = tmp_dir

    def rows(self, out) -> int:
        """Sweep rows an op's output holds."""
        return 0

    def serialize_s(self, out) -> float:
        """Seconds of an op's time spent serializing."""
        return 0.0


class EosTables(Workload):
    """One op: a 256-row `run_sweep` at its default worker count, then CSV or JSON."""

    name = "eos-tables"
    TAIL_PERCENTILE = 95  # 24 ops a cycle, 10 or more cycles a run
    POINTS = 256
    # Grid ends in units of T_c, so every seed solves the same reduced temperatures.
    T_LO, T_HI = 0.25, 4.0
    # (d, sigma, mass, units): integer and non-integer d/sigma, and SI at sigma = 2.
    SPECS = (
        (3.0, 2.0, 1.0, "natural"),
        (2.5, 1.7, 1.0, "natural"),
        (3.0, 1.5, 1.0, "natural"),
        (3.0, 1.0, 1.0, "natural"),
        (3.0, 2.0, RB87_MASS_KG, "si"),
        (4.0, 2.0, RB87_MASS_KG, "si"),
    )
    # Log-uniform constraint ranges over four decades, per unit system.
    RANGES = {
        ("natural", "density"): (1e-2, 1e2),
        ("natural", "pressure"): (1e-2, 1e2),
        ("si", "density"): (1e17, 1e21),
        ("si", "pressure"): (1e-13, 1e-9),
    }

    @classmethod
    def cycle(cls, seed: int, index: int) -> list[dict]:
        rng = _rng(cls.name, seed, index)
        ops = []
        for spec in cls.SPECS:
            for ci, constraint in enumerate(("density", "pressure")):
                value = _log_uniform(rng, *cls.RANGES[(spec[3], constraint)])
                for si, spacing in enumerate(("linear", "log")):
                    fmt = "csv" if (ci + si) % 2 == 0 else "json"
                    kind = "isochore" if constraint == "density" else "isobar"
                    ops.append({
                        "label": f"{kind}-{spacing}-{fmt}",
                        "spec": list(spec), "constraint": constraint, "value": value,
                        "spacing": spacing, "format": fmt,
                    })
        return ops

    def prepare(self, op: dict) -> dict:
        be = self.be
        spec = _spec(be, op["spec"])
        tc = _tc(be, spec, op["constraint"], op["value"])
        request = be.SweepRequest(
            spec=spec, constraint=op["constraint"], value=op["value"],
            T_min=self.T_LO * tc, T_max=self.T_HI * tc, points=self.POINTS,
            spacing=op["spacing"],
        )
        return {"op": op, "spec": spec, "tc": tc, "request": request}

    def call(self, prep: dict):
        table = self.be.run_sweep(prep["request"])
        t0 = time.perf_counter()
        text = table.to_csv() if prep["op"]["format"] == "csv" else table.to_json()
        return table, text, time.perf_counter() - t0

    def check(self, prep: dict, out) -> None:
        table, text, _ = out
        op = prep["op"]
        rows = list(table.rows)
        _require(len(rows) == self.POINTS, f"{len(rows)} rows, expected {self.POINTS}")
        check_rows(self.be, prep["spec"], op["constraint"], op["value"], prep["tc"], rows)
        columns, parsed = parse_table(text, op["format"])
        _require(tuple(columns) == tuple(table.columns), f"serialized columns {columns}")
        _require(parsed == [{c: row[c] for c in columns} for row in rows],
                 "serialized rows differ from the table")

    def rows(self, out) -> int:
        return len(out[0].rows)

    def serialize_s(self, out) -> float:
        return out[2]


class CriticalScan(Workload):
    """One op: a near-critical solve, an exponent fit, or a Landau table."""

    name = "critical-scan"
    # 126 ops a cycle, 7 of them failing integer-order rungs; over two cycles
    # p95 lands on the fastest of the failing rungs, the defect the tail shows.
    TAIL_PERCENTILE = 95
    MIN_CYCLES = 2  # a cycle's time is a dozen slow ops; average two of each
    # (d, sigma, constraint): integer order of the solved Bose function, once per cycle.
    INTEGER_SPECS = (
        (3.0, 1.5, "density"),
        (2.0, 2.0, "pressure"),
        (3.0, 1.0, "density"),
    )
    # Non-integer order inside sigma < d < 2 sigma, where the Landau form and the
    # analytic exponents hold; WINDOW_REPEATS independent draws per cycle, so the
    # fast ops that set the median are sampled as often as the slow ones allow.
    WINDOW_SPECS = (
        (3.0, 2.0, "density"),
        (2.5, 1.7, "density"),
        (3.0, 1.8, "pressure"),
    )
    WINDOW_REPEATS = 3
    RANGE = (1e-2, 1e2)

    @classmethod
    def cycle(cls, seed: int, index: int) -> list[dict]:
        rng = _rng(cls.name, seed, index)
        ladders = [(spec, "int") for spec in cls.INTEGER_SPECS]
        ladders += [(spec, "nonint") for _ in range(cls.WINDOW_REPEATS) for spec in cls.WINDOW_SPECS]
        values = [_log_uniform(rng, *cls.RANGE) for _ in ladders]
        ops = []
        for _ in range(cls.WINDOW_REPEATS):
            for d, sigma, _ in cls.WINDOW_SPECS:
                spec, rho = [d, sigma, 1.0, "natural"], _log_uniform(rng, *cls.RANGE)
                ops.append({"label": "exponents", "spec": spec, "rho": rho})
                ops.append({"label": "landau", "spec": spec, "rho": rho, "ts": list(LADDER)})
        for t in LADDER:
            for ((d, sigma, constraint), order), value in zip(ladders, values):
                kind = "isochore" if constraint == "density" else "isobar"
                ops.append({
                    "label": f"{kind}-{order}", "spec": [d, sigma, 1.0, "natural"],
                    "constraint": constraint, "value": value, "t": t,
                })
        return ops

    def prepare(self, op: dict) -> dict:
        be = self.be
        spec = _spec(be, op["spec"])
        if op["label"] in ("exponents", "landau"):
            return {"op": op, "spec": spec}
        tc = _tc(be, spec, op["constraint"], op["value"])
        return {"op": op, "spec": spec, "T": tc * (1.0 + op["t"])}

    def call(self, prep: dict):
        be, op, spec = self.be, prep["op"], prep["spec"]
        if op["label"] == "exponents":
            return be.extract_exponents(spec, op["rho"])
        if op["label"] == "landau":
            table = []
            for t in op["ts"]:
                model = be.landau_model(spec, op["rho"], t)
                c2, c4 = be.landau_taylor_coefficients(model)
                mu = be.chemical_potential_asymptotic(model, 0.0)
                table.append((t, model, c2, c4, mu))
            return table
        if op["constraint"] == "density":
            return be.solve_gap_isochore(spec, prep["T"], op["value"])
        return be.solve_gap_isobar(spec, prep["T"], op["value"])

    def check(self, prep: dict, out) -> None:
        be, op, spec = self.be, prep["op"], prep["spec"]
        label = op["label"]
        if label == "exponents":
            self._check_exponents(spec, out)
        elif label == "landau":
            self._check_landau(spec, op["rho"], out)
        else:
            _require(out.regime == "normal" and out.r > 0.0, f"regime {out.regime!r}, r={out.r!r}")
            if op["constraint"] == "density":
                err = _rel(be.density_at(spec, prep["T"], out.r), op["value"])
            else:
                err = _rel(be.pressure_at(spec, prep["T"], out.r), op["value"])
            _require(err <= CONSTRAINT_RTOL, f"{label} residual {err:.2e} at t={op['t']:g}")

    @staticmethod
    def _check_exponents(spec, es) -> None:
        d, sigma = spec.d, spec.sigma
        gamma_, nu_ = sigma / (d - sigma), 1.0 / (d - sigma)
        _require(_rel(es.fitted_gamma.exponent, gamma_) <= EXPONENT_RTOL, f"gamma fit {es.fitted_gamma}")
        _require(_rel(es.fitted_nu.exponent, nu_) <= EXPONENT_RTOL, f"nu fit {es.fitted_nu}")
        combined = es.fitted_gamma.std_error + sigma * es.fitted_nu.std_error
        _require(abs(es.fitted_gamma.exponent - sigma * es.fitted_nu.exponent) <= max(combined, 1e-12),
                 "scaling relation gamma = sigma nu broken")
        _require(abs(es.fitted_eta - (2.0 - sigma)) <= ETA_ATOL, f"eta fit {es.fitted_eta!r}")

    def _check_landau(self, spec, rho: float, table) -> None:
        be = self.be
        nu = spec.d / spec.sigma
        tc = be.critical_temperature_density(spec, rho)
        mu_coeff = (be.zeta(nu) / abs(math.gamma(1.0 - nu))) ** (1.0 / (nu - 1.0))
        cf = (nu - 1.0) * mu_coeff * tc * rho
        for t, model, c2, c4, mu in table:
            b = nu * t
            _require(_rel(model.C_f, cf) <= 1e-12, f"C_f {model.C_f!r} != {cf!r}")
            mu_exact = -tc * (1.0 + t) * mu_coeff * b ** (1.0 / (nu - 1.0))
            _require(_rel(mu, mu_exact) <= 1e-12, f"mu_asym {mu!r} != {mu_exact!r} at t={t:g}")
            c2_exact = cf * nu / (nu - 1.0) * b ** (1.0 / (nu - 1.0))
            _require(_rel(c2, c2_exact) <= 1e-2, f"Psi^2 coefficient {c2!r} vs {c2_exact!r}")
            _require(math.isfinite(c4), f"Psi^4 coefficient {c4!r}")


class CliCalls(Workload):
    """One op: one `python -m bose_eos` child process, in a fixed rotation."""

    name = "cli-calls"
    TAIL_PERCENTILE = 66  # 10 ops a cycle, 3 or more cycles a run
    WARMUP = ("tc",)  # one child process; the rest would dominate set-up
    OPS_IN_CHILDREN = True
    SWEEP_POINTS = 50

    @classmethod
    def cycle(cls, seed: int, index: int) -> list[dict]:
        rng = _rng(cls.name, seed, index)

        def draw() -> str:  # a density or pressure in natural units
            return format(_log_uniform(rng, 1e-2, 1e2), ".6g")

        common = ["--d", "3", "--sigma", "2"]
        return [
            {"label": "tc", "kind": "tc", "argv": ["tc", *common, "--density", draw()]},
            {"label": "tc", "kind": "tc_si",
             "argv": ["tc", *common, "--units", "si", "--mass", repr(RB87_MASS_KG),
                      "--pressure", format(_log_uniform(rng, 1e-13, 1e-9), ".6g")]},
            {"label": "tc", "kind": "tc_zero_T",
             "argv": ["tc", "--d", format(rng.uniform(0.5, 1.4), ".4f"), "--sigma", "1.5",
                      "--density", draw()]},
            {"label": "sweep", "kind": "sweep_csv", "constraint": "density",
             "argv": ["sweep", *common, "--density", draw(), "--points", str(cls.SWEEP_POINTS)]},
            {"label": "sweep", "kind": "sweep_json", "constraint": "pressure",
             "argv": ["sweep", "--d", "3", "--sigma", "1.8", "--pressure", draw(),
                      "--points", str(cls.SWEEP_POINTS), "--spacing", "log", "--format", "json"]},
            {"label": "landau", "kind": "landau",
             "argv": ["landau", *common, "--density", draw(), "--t=-0.1,0,0.1"]},
            {"label": "verify_quick", "kind": "verify", "argv": ["verify", "--level", "quick"]},
            {"label": "verify_full", "kind": "verify", "argv": ["verify", "--level", "full"]},
            {"label": "error", "kind": "domain_error",
             "argv": ["tc", "--d", "3", "--sigma", format(rng.uniform(2.1, 3.0), ".4f"),
                      "--density", draw()]},
            {"label": "error", "kind": "config_error",
             "argv": ["tc", *common, "--density", draw(), "--pressure", draw()]},
        ]

    EXIT = {"domain_error": 2, "config_error": 4}

    def __init__(self, be, tmp_dir: str):
        super().__init__(be, tmp_dir)
        self.env = hermetic_env()
        self._n = 0

    def _value(self, argv: list[str], flag: str) -> float:
        return float(argv[argv.index(flag) + 1])

    def _spec_of(self, argv: list[str]):
        units = argv[argv.index("--units") + 1] if "--units" in argv else "natural"
        mass = self._value(argv, "--mass") if "--mass" in argv else 1.0
        return self.be.GasSpec(d=self._value(argv, "--d"), sigma=self._value(argv, "--sigma"),
                               mass=mass, units=units)

    def prepare(self, op: dict) -> dict:
        argv = list(op["argv"])
        prep = {"op": op, "argv": argv, "output": None}
        if op["kind"].startswith("sweep"):
            spec = self._spec_of(argv)
            flag = "--density" if op["constraint"] == "density" else "--pressure"
            value = self._value(argv, flag)
            tc = _tc(self.be, spec, op["constraint"], value)
            argv += ["--tmin", repr(0.5 * tc), "--tmax", repr(2.0 * tc)]
            prep.update(spec=spec, value=value, tc=tc)
            if op["kind"] == "sweep_json":
                self._n += 1
                prep["output"] = os.path.join(self.tmp_dir, f"sweep-{self._n}.json")
                argv += ["--output", prep["output"]]
        return prep

    def call(self, prep: dict):
        return subprocess.run(
            [sys.executable, "-m", "bose_eos", *prep["argv"]], env=self.env,
            capture_output=True, text=True, timeout=120,
        )

    def check(self, prep: dict, proc) -> None:
        be, op, argv = self.be, prep["op"], prep["argv"]
        kind = op["kind"]
        expected = self.EXIT.get(kind, 0)
        _require(proc.returncode == expected,
                 f"{kind}: exit {proc.returncode}, expected {expected}: {proc.stderr.strip()[-200:]}")
        if expected:
            _require(proc.stderr.startswith("error: ") and not proc.stdout,
                     f"{kind}: stderr {proc.stderr!r}")
        elif kind.startswith("tc"):
            payload = json.loads(proc.stdout)
            if kind == "tc_zero_T":
                _require(payload["regime"] == "zero_temperature_BEC" and payload["T_c"] == 0.0,
                         f"d <= sigma answered {payload}")
            else:
                spec = self._spec_of(argv)
                constraint = "pressure" if "--pressure" in argv else "density"
                tc = _tc(be, spec, constraint, payload["value"])
                _require(_rel(payload["T_c"], tc) <= 1e-12, f"T_c {payload['T_c']!r} != {tc!r}")
        elif kind.startswith("sweep"):
            if prep["output"]:
                _require(not proc.stdout, "sweep --output also wrote to stdout")
                with open(prep["output"], encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(prep["output"])
                _, rows = parse_table(text, "json")
            else:
                _, rows = parse_table(proc.stdout, "csv")
            _require(len(rows) == self.SWEEP_POINTS, f"{len(rows)} sweep rows")
            check_rows(be, prep["spec"], op["constraint"], prep["value"], prep["tc"], rows)
        elif kind == "landau":
            _, rows = parse_table(proc.stdout, "csv")
            spec, rho = self._spec_of(argv), self._value(argv, "--density")
            _require([row["t"] for row in rows] == [-0.1, 0.0, 0.1], "landau t column")
            for row in rows:
                cf = be.landau_model(spec, rho, row["t"]).C_f
                _require(_rel(row["C_f"], cf) <= 1e-12, f"landau C_f {row['C_f']!r} != {cf!r}")
        else:
            last = proc.stdout.strip().splitlines()[-1]
            passed, _, rest = last.partition(" checks passed")
            n_pass, _, n_all = passed.partition("/")
            _require(rest and n_pass == n_all and int(n_all) > 0, f"verify says {last!r}")



WORKLOADS = {w.name: w for w in (EosTables, CriticalScan, CliCalls)}

# Inherited settings that would change the measured path of a child process.
_DROP_ENV = (
    "PYTHONOPTIMIZE", "PYTHONDONTWRITEBYTECODE", "PYTHONPROFILEIMPORTTIME", "PYTHONDEVMODE",
    "PYTHONMALLOC", "PYTHONTRACEMALLOC", "PYTHONWARNINGS", "PYTHONVERBOSE", "PYTHONINSPECT",
    "PYTHONHOME", "PYTHONSTARTUP",
)


def src_dir() -> str:
    """The `src` directory of the checkout this benchmark file lives in."""
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def hermetic_env() -> dict[str, str]:
    """Environment for workers and CLI children.

    BOSE_EOS_* settings are removed so the library runs at its defaults,
    PYTHONPATH points at this checkout's sources only, and BLAS pools are
    held to one thread so the process uses at most the sweep's own threads.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BOSE_EOS_") and k not in _DROP_ENV}
    env["PYTHONPATH"] = src_dir()
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env
