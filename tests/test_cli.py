"""End-to-end command-line checks through real subprocesses."""

import functools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bose_eos
import bose_eos.cli
import bose_eos.isochore
from bose_eos import DomainError, GasSpec, SweepRequest, critical_temperature_density
from bose_eos.verify import LEVELS, REGISTRY


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "bose_eos", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


def test_tc_at_density_json():
    proc = run_cli("tc", "--d", "3", "--sigma", "2", "--density", "1.0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["constraint"] == "density"
    assert doc["regime"] == "finite_temperature_BEC"
    expected = critical_temperature_density(GasSpec(d=3.0, sigma=2.0), 1.0)
    assert doc["T_c"] == pytest.approx(expected, rel=1e-12)


def test_tc_zero_temperature_case_still_succeeds():
    proc = run_cli("tc", "--d", "2", "--sigma", "2", "--density", "1.0")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["T_c"] == 0.0
    assert doc["regime"] == "zero_temperature_BEC"
    assert doc["note"]


def test_tc_at_pressure():
    proc = run_cli("tc", "--d", "3", "--sigma", "2", "--pressure", "0.5")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["constraint"] == "pressure"
    assert doc["T_c"] > 0.0


def test_tc_where_gamma_overflows_prints_strict_json():
    # A(400, 2) = 1 exactly, but Gamma(200) / Gamma(200) once printed NaN
    proc = run_cli("tc", "--d", "400", "--sigma", "2", "--density", "1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
    assert doc["T_c"] == pytest.approx(2.0 * math.pi, rel=1e-14)  # zeta(200) = 1


def test_tc_where_lambda0_power_overflows_prints_strict_json():
    # (2 pi)^750 leaves the doubles; T_c is taken in log form (mpmath, 40 digits)
    proc = run_cli("tc", "--d", "1500", "--sigma", "2", "--pressure", "1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout, parse_constant=lambda name: pytest.fail(f"{name} in JSON"))
    assert doc["T_c"] == pytest.approx(6.2678276458253185, rel=1e-12)


def test_tc_refuses_a_non_finite_value():
    proc = run_cli("tc", "--d", "3", "--sigma", "2", "--mass", "1e-300", "--density", "1e100")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: T_c = inf") and not proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["-c", "import bose_eos"],
        ["-m", "bose_eos", "tc", "--d", "3", "--sigma", "2", "--density", "1.0"],
        ["-m", "bose_eos", "landau", "--d", "3", "--sigma", "2", "--density", "1.0", "--t=-0.1,0,0.1"],
        ["-m", "bose_eos", "sweep", "--d", "3", "--sigma", "2", "--density", "1.0",
         "--tmin", "0.2", "--tmax", "2.0", "--points", "50"],
        ["-m", "bose_eos", "sweep", "--d", "3", "--sigma", "2", "--density", "1.0",
         "--tmin", "0.2", "--tmax", "2.0", "--points", "50", "--spacing", "log"],
        ["-m", "bose_eos", "verify", "--level", "quick"],
        ["-m", "bose_eos", "verify", "--level", "full"],
    ],
    ids=["import", "tc", "landau", "linear-sweep", "log-sweep", "verify-quick", "verify-full"],
)
def test_start_up_loads_neither_numpy_nor_scipy(argv):
    code, loaded = imported_modules(argv)
    assert code == 0
    assert not (loaded - bare_interpreter_modules()) & {"dataclasses", "inspect"}
    loaded = {name.split(".")[0] for name in loaded}
    assert "bose_eos" in loaded
    assert not loaded & {"numpy", "scipy"}


def imported_modules(argv):
    """(exit code, names of the modules imported) of a `python -X importtime` run."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=120
    )
    loaded = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, loaded


@functools.cache
def bare_interpreter_modules():
    """Modules `python -c pass` imports here, such as those a site .pth file loads."""
    return imported_modules(["-c", "pass"])[1]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["tc", "--d", "3", "--sigma", "2", "--density", "1.0"], 0),
        (["sweep", "--d", "3", "--sigma", "2", "--density", "1.0",
          "--tmin", "0.2", "--tmax", "2.0", "--points", "50"], 0),
        (["tc", "--d", "3", "--sigma", "2.5", "--density", "1.0"], 2),
        (["tc", "--d", "3", "--sigma", "2"], 4),
        (["verify", "--level", "bogus"], 4),
    ],
    ids=["tc", "sweep", "domain-error", "config-error", "bad-level"],
)
def test_subcommands_load_neither_the_suite_nor_the_oracles(argv, code):
    exit_code, loaded = imported_modules(["-m", "bose_eos", *argv])
    assert exit_code == code
    assert "bose_eos.cli" in loaded
    assert not loaded & {"bose_eos.verify", "bose_eos.oracle", "bose_eos.criticality"}
    # every record is a named tuple, and dataclasses would bring inspect
    assert not (loaded - bare_interpreter_modules()) & {"dataclasses", "inspect"}


def test_level_choices_are_the_suites_levels(capsys):
    # the parser spells the levels out, so that it need not import the suite
    with pytest.raises(SystemExit):
        bose_eos.cli.main(["verify", "--help"])
    assert f"--level {{{','.join(LEVELS)}}}" in capsys.readouterr().out


# The README's examples, by the file under tests/data that holds their stdout.
README_EXAMPLES = {
    "tc_density.json": ["tc", "--d", "3", "--sigma", "2", "--density", "1.0"],
    "tc_pressure.json": ["tc", "--d", "3", "--sigma", "1.5", "--pressure", "0.5"],
    "sweep_density.csv": [
        "sweep", "--d", "3", "--sigma", "2", "--density", "1.0",
        "--tmin", "0.2", "--tmax", "2.0", "--points", "50",
    ],
    "sweep_pressure_log.json": [
        "sweep", "--d", "3", "--sigma", "2", "--pressure", "1.0", "--tmin", "0.3", "--tmax", "3.0",
        "--points", "80", "--spacing", "log", "--columns", "T,r,rho,regime", "--format", "json",
    ],
    "sweep_density_log.csv": [
        "sweep", "--d", "3", "--sigma", "2", "--density", "1.0",
        "--tmin", "4", "--tmax", "40", "--points", "40", "--spacing", "log",
    ],
    "landau.csv": ["landau", "--d", "3", "--sigma", "2", "--density", "1.0", "--t=-0.1,0,0.1"],
    "sweep_pressure_si.csv": [
        "sweep", "--d", "3", "--sigma", "2", "--mass", "1.443160648e-25", "--units", "si",
        "--pressure", "1e-11", "--tmin", "1e-7", "--tmax", "1e-5", "--points", "12",
        "--spacing", "log",
    ],
    "sweep_density_si.csv": [
        "sweep", "--d", "3", "--sigma", "2", "--mass", "1.443160648e-25", "--units", "si",
        "--density", "1e19", "--tmin", "2e-8", "--tmax", "2e-7", "--points", "12",
        "--spacing", "log",
    ],
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_output_is_byte_stable(name):
    proc = subprocess.run(
        [sys.executable, "-m", "bose_eos", *README_EXAMPLES[name]], capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (Path(__file__).parent / "data" / name).read_bytes()


def test_sweep_csv_is_byte_deterministic():
    args = (
        "sweep", "--d", "3", "--sigma", "2", "--density", "1.0",
        "--tmin", "0.2", "--tmax", "2.0", "--points", "25",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert lines[0] == "# bose-eos v1 columns: T,t,r,mu,psi2,rho,P,regime"
    assert len(lines) == 26


def test_sweep_json_and_output_file(tmp_path):
    out = tmp_path / "table.json"
    proc = run_cli(
        "sweep", "--d", "3", "--sigma", "2", "--pressure", "1.0",
        "--tmin", "0.3", "--tmax", "1.5", "--points", "6",
        "--format", "json", "--output", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["schema"] == "bose-eos v1"
    assert len(doc["rows"]) == 6


def test_sweep_column_subset():
    proc = run_cli(
        "sweep", "--d", "3", "--sigma", "2", "--density", "1.0",
        "--tmin", "0.5", "--tmax", "1.0", "--points", "3",
        "--columns", "T,psi2,regime",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "# bose-eos v1 columns: T,psi2,regime"


def test_landau_table_values():
    proc = run_cli(
        "landau", "--d", "3", "--sigma", "2", "--density", "1.0", "--t=-0.1,0,0.1"
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("# bose-eos v1 columns: t,")
    below = dict(zip(lines[0].split(": ")[1].split(","), lines[1].split(",")))
    assert float(below["t"]) == -0.1
    assert float(below["psi2"]) == pytest.approx(0.15, rel=1e-12)
    assert float(below["f_ordered"]) == 0.0
    assert below["f_disordered"] == ""
    at_tc = lines[2].split(",")
    assert float(at_tc[0]) == 0.0
    transition_cols = [v for v in at_tc[1:] if v != ""]
    assert all(float(v) >= 0.0 for v in transition_cols)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "gas.cfg"
    cfg.write_text(
        "# base gas\nd = 3\nsigma = 2\ndensity = 1.0\ntmin = 0.5\ntmax = 1.5\npoints = 4\n"
    )
    proc = run_cli("sweep", "--config", str(cfg), "--points", "3")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4  # header + 3 rows, flag wins


def test_unknown_config_key_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d = 3\nsigmaa = 2\n")
    proc = run_cli("tc", "--config", str(cfg), "--density", "1")
    assert proc.returncode == 4
    assert "error:" in proc.stderr
    assert "sigmaa" in proc.stderr


def test_malformed_config_line_reports_location(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("d = 3\nsigma 2\n")
    proc = run_cli("tc", "--config", str(cfg), "--density", "1")
    assert proc.returncode == 4
    assert "2" in proc.stderr  # line number in the message


SWEEP_ARGS = ["--d", "3", "--sigma", "2", "--density", "1", "--tmin", "4", "--tmax", "5",
              "--points", "2"]
# Every setting with a type that can reject a value, and one value it rejects.
TYPED_SETTINGS = dict.fromkeys(("d", "sigma", "mass", "density", "pressure", "tmin", "tmax"), "float")
TYPED_SETTINGS["points"] = "int"
TYPE_REJECTS = (("d", "three"), ("sigma", "2,0"), ("mass", "1e"), ("density", "x"), ("pressure", "-"),
                ("tmin", "4K"), ("tmax", "five"), ("points", "2.5"))


@pytest.mark.parametrize(
    "command, key, value",
    [
        (["sweep", *SWEEP_ARGS], "format", "xml"),
        (["landau", "--d", "3", "--sigma", "2", "--density", "1", "--t", "0.1"], "format", "xml"),
        (["tc", "--d", "3", "--sigma", "2", "--density", "1"], "units", "kelvin"),
        (["sweep", *SWEEP_ARGS], "spacing", "quadratic"),
        (["verify"], "level", "deep"),
        *((["sweep", *SWEEP_ARGS], key, value) for key, value in TYPE_REJECTS),
    ],
)
def test_config_settings_take_the_flags_choices(tmp_path, capsys, command, key, value):
    # from a config file, format = xml once wrote JSON and exited 0, and a bad
    # units, spacing or level exited 2; the same value as a flag exits 4, as
    # does a value that the setting's type rejects
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# settings\n{key} = {value}\n")
    assert bose_eos.cli.main([*command, "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    kind = TYPED_SETTINGS.get(key)
    if kind:
        assert err == f"error: {cfg}:2: bad value {value!r} for {key!r}\n"
    else:
        assert err.startswith(f"error: {cfg}:2: invalid choice {value!r} for {key!r} (choose from ")
    assert bose_eos.cli.main([*command, f"--{key}", value]) == 4
    assert (f"invalid {kind} value: {value!r}" if kind else "invalid choice") in capsys.readouterr().err


def test_config_settings_inside_the_choices_are_taken(tmp_path, capsys):
    cfg = tmp_path / "gas.cfg"
    cfg.write_text("units = natural\nspacing = log\nformat = json\n")
    assert bose_eos.cli.main(["sweep", *SWEEP_ARGS, "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["T"] for row in doc["rows"]] == [4.0, 5.0]


@pytest.mark.parametrize(
    "command, key, value",
    [
        (["tc", "--d", "3", "--sigma", "2", "--density", "1"], "level", "full"),
        (["sweep", *SWEEP_ARGS], "t", "0.1"),
        (["verify"], "d", "3"),  # verify reads no gas setting
        (["verify"], "units", "si"),
    ],
)
def test_config_keys_outside_the_subcommand_are_a_config_error(tmp_path, capsys, command, key, value):
    # once ignored and exit 0, while the same setting as a flag exits 4
    cfg = tmp_path / "other.cfg"
    cfg.write_text(f"# settings\n{key} = {value}\n")
    assert bose_eos.cli.main([*command, "--config", str(cfg)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {cfg}:2: {command[0]} has no setting {key!r}\n"
    assert bose_eos.cli.main([*command, f"--{key}", value]) == 4
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", *SWEEP_ARGS],
        ["landau", "--d", "3", "--sigma", "2", "--density", "1", "--t", "0.1"],
    ],
    ids=["sweep", "landau"],
)
def test_unwritable_output_is_a_config_error(tmp_path, capsys, command):
    # once a FileNotFoundError traceback and exit 1, the code of a failed check
    path = tmp_path / "missing" / "x.csv"
    assert bose_eos.cli.main([*command, "--output", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write output file {str(path)!r}: ")
    assert len(err.splitlines()) == 1


def test_duplicate_columns_are_a_domain_error(capsys):
    # once accepted: the JSON named "T" twice while each row held one "T"
    assert bose_eos.cli.main(["sweep", *SWEEP_ARGS, "--columns", "T,r,T", "--format", "json"]) == 2
    assert capsys.readouterr().err == "error: duplicate columns in T,r,T\n"


@pytest.mark.parametrize("columns", ["T,r,T", "T, x", ""])
def test_bad_columns_get_the_sweep_requests_answer(tmp_path, capsys, columns):
    # the CLI once checked them too, with exit 4 and its own text
    listed = tuple(c.strip() for c in columns.split(","))
    with pytest.raises(DomainError) as exc:
        SweepRequest(GasSpec(3.0, 2.0), "density", 1.0, 4.0, 5.0, 2, columns=listed)
    assert bose_eos.cli.main(["sweep", *SWEEP_ARGS, f"--columns={columns}"]) == 2
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")
    cfg = tmp_path / "columns.cfg"
    cfg.write_text(f"columns = {columns}\n")
    assert bose_eos.cli.main(["sweep", *SWEEP_ARGS, "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {exc.value}\n")


@pytest.mark.parametrize(
    "command, rest",
    [
        (["tc", "--d", "3", "--sig", "2", "--dens", "1"], "--sig 2 --dens 1"),
        (["sweep", *SWEEP_ARGS, "--t", "0.1"], "--t 0.1"),
    ],
    ids=["prefixes", "ambiguous-prefix"],
)
def test_abbreviated_flags_are_a_config_error(capsys, command, rest):
    # once taken as --sigma and --density (exit 0), as config keys never were,
    # or reported as "ambiguous option: --t could match --tmin, --tmax"
    assert bose_eos.cli.main(command) == 4
    assert capsys.readouterr() == ("", f"error: unrecognized arguments: {rest}\n")


def test_both_constraints_from_a_config_file_name_no_flag(tmp_path, capsys):
    cfg = tmp_path / "both.cfg"
    cfg.write_text("density = 1\npressure = 1\n")
    assert bose_eos.cli.main(["tc", "--d", "3", "--sigma", "2", "--config", str(cfg)]) == 4
    assert capsys.readouterr() == (
        "", "error: exactly one of density / pressure is required, as a flag or a config key\n"
    )


def test_missing_setting_names_its_flag_and_its_config_key(capsys):
    # once "missing required setting --tmin", naming the flag only
    tmin = SWEEP_ARGS.index("--tmin")
    assert bose_eos.cli.main(["sweep", *SWEEP_ARGS[:tmin], *SWEEP_ARGS[tmin + 2:]]) == 4
    assert capsys.readouterr() == (
        "", "error: missing required setting tmin (flag --tmin or config key tmin)\n"
    )


def test_bad_landau_t_names_its_flag_and_its_config_key(capsys):
    assert bose_eos.cli.main(["landau", "--d", "3", "--sigma", "2", "--density", "1", "--t=a"]) == 4
    assert capsys.readouterr() == (
        "", "error: setting t (flag --t or config key t) must be comma-separated numbers, got 'a'\n"
    )


def test_missing_constraint_is_a_config_error():
    proc = run_cli("tc", "--d", "3", "--sigma", "2")
    assert proc.returncode == 4
    proc = run_cli("tc", "--d", "3", "--sigma", "2", "--density", "1", "--pressure", "1")
    assert proc.returncode == 4


def test_bad_flag_exits_config_code():
    proc = run_cli("tc", "--d", "3", "--sigma", "2", "--density", "1", "--bogus")
    assert proc.returncode == 4


def test_domain_failures_exit_code_two():
    proc = run_cli("landau", "--d", "5", "--sigma", "2", "--density", "1", "--t", "0.1")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    proc = run_cli("tc", "--d", "3", "--sigma", "2", "--density", "-1")
    assert proc.returncode == 2


@pytest.mark.parametrize("t", ["nan", "-2"])
def test_landau_outside_t_above_minus_one_exits_two(capsys, t):
    # once a row of nan, or psi2 = 3 from a negative thermal energy, and exit 0
    assert bose_eos.cli.main(["landau", "--d", "3", "--sigma", "2", "--density", "1", f"--t={t}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: reduced temperature must be finite and > -1")


def test_sweep_past_the_double_range_exits_two(capsys):
    # lambda_T^-d A overflows from T ~ 2e206 on, where y* ~ 12 is not classical and
    # P needs it; the first row (T = 1e15, condensed, P ~ 2.7e36) solves
    code = bose_eos.cli.main(
        ["sweep", "--d", "3", "--sigma", "2", "--density", "1e307",
         "--tmin", "1e15", "--tmax", "1.001e209", "--points", "3"]
    )
    assert code == 2
    err = capsys.readouterr().err
    # the gap solve converged: the state, not the solve, leaves the doubles
    assert err.startswith("error: isochore state at d=3.0, sigma=2.0, T=5.005e+208")
    assert "rho=1e+307" in err and "double range" in err


@pytest.mark.parametrize(
    "args, state",
    [
        # P grows with T: the first row (T = 1e100) solves, the second overflows
        (["--d", "3", "--density", "1e200", "--tmin", "1e100", "--tmax", "1e200"],
         "isochore state at d=3.0, sigma=2.0, T=5e+199, rho=1e+200"),
        (["--d", "3", "--density", "1e300", "--tmin", "1e100", "--tmax", "1e200"],
         "isochore state at d=3.0, sigma=2.0, T=5e+199, rho=1e+300"),
        # rho = P / k_B T falls with T: the first row overflows
        (["--d", "20", "--mass", "1e-26", "--units", "si", "--pressure", "1e300",
          "--tmin", "1e13", "--tmax", "1e20"],
         "isobar state at d=20.0, sigma=2.0, T=10000000000000.0, P=1e+300"),
    ],
    ids=["normal-pressure", "condensed-pressure", "density"],
)
def test_sweep_into_an_overflowing_state_exits_two(capsys, args, state):
    code = bose_eos.cli.main(["sweep", "--sigma", "2", *args, "--points", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {state} has a") and "double range" in err


def test_verify_quick_passes():
    proc = run_cli("verify", "--level", "quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert "checks passed at level quick" in lines[-1]
    assert not any(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize("level, count", [("quick", 10), ("full", 15)])
def test_verify_prints_registry_checks_in_order(level, count):
    proc = run_cli("verify", "--level", level)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *verdicts, summary = proc.stdout.splitlines()
    expected = [c.name for c in REGISTRY if level == "full" or c.level == "quick"]
    assert [line.partition(": ")[0] for line in verdicts] == [f"PASS {n}" for n in expected]
    assert summary == f"{count}/{count} checks passed at level {level}"


def _run_tc_via(exe, label, env=None):
    proc = subprocess.run(
        [str(exe), "tc", "--d", "3", "--sigma", "1.5", "--density", "2.0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, f"{label} failed:\n{proc.stderr}"
    assert math.isfinite(json.loads(proc.stdout)["T_c"])


def test_console_script_installed(tmp_path):
    """The `bose-eos` command declared in pyproject.toml runs `tc`.

    The launcher is the one a console-scripts installer writes for the
    declared entry, so the check runs from a checkout without installing.
    An installed `bose-eos` on PATH gets the same check.
    """
    installed = shutil.which("bose-eos")
    if installed:
        _run_tc_via(installed, f"installed console script {installed}")

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    target = scripts.get("bose-eos")
    assert target, f"{pyproject} declares no [project.scripts] entry 'bose-eos'"
    module, _, qualname = target.partition(":")

    launcher = tmp_path / "bin" / "bose-eos"
    launcher.parent.mkdir()
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {qualname.split('.')[0]}\n"
        f"sys.exit({qualname}())\n"
    )
    launcher.chmod(0o755)
    # The launcher imports the bose_eos this test module imported.
    pkg_root = str(Path(bose_eos.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    _run_tc_via(
        launcher, f"launcher for pyproject entry bose-eos = {target!r}", env=env
    )


def test_si_units_accepted():
    proc = run_cli(
        "tc", "--d", "3", "--sigma", "2", "--units", "si",
        "--mass", "1.44e-25", "--density", "1e19",
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["units"] == "si"
    assert 0.0 < doc["T_c"] < 1e-3  # dilute gas condenses at sub-mK kelvin


def test_convergence_failure_exits_three_and_names_the_solve(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise bose_eos.ConvergenceError("root finder did not converge")

    monkeypatch.setattr(bose_eos.isochore, "solve_bose_equation", fail)
    code = bose_eos.cli.main(
        ["sweep", "--d", "3", "--sigma", "2", "--density", "1.0",
         "--tmin", "4.0", "--tmax", "5.0", "--points", "2"]  # T_c = 3.31
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: isochore gap solve failed at d=3.0, sigma=2.0, T=")
    assert "rho=1.0" in err
