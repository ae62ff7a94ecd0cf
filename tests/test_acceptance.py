"""Acceptance suite: one test and one printed PASS/FAIL verdict per criterion.

`test_check` runs every entry of `bose_eos.verify.REGISTRY`, the same checks
`bose-eos verify` runs, with ids equal to the check names; bounds and time
budgets live only in the registry. Each test prints a single line
    PASS <name>: measured=<worst> tol=<bound> (<detail>), <seconds> s (budget <b> s)
and then asserts, so a plain `pytest -v` run shows every verdict (stdout of
passing tests is echoed by the -rP option set in pyproject.toml).
"""

import subprocess
import sys
import time

import pytest

from bose_eos.verify import REGISTRY, SharedWork, verdict

# One run across the parametrized tests, as in `bose-eos verify`: work that
# several checks read is done by whichever of them runs first.
_SHARED = SharedWork()


def _report(name: str, ok: bool, detail: str) -> None:
    line = verdict(name, ok, detail)
    print(line)
    assert ok, line


@pytest.mark.parametrize("check", REGISTRY, ids=lambda check: check.name)
def test_check(check):
    start = time.perf_counter()
    result = check.run(_SHARED)
    elapsed = time.perf_counter() - start
    text = f"{result.summary}, {elapsed:.2f} s"
    in_budget = check.budget_s is None or elapsed < check.budget_s
    if check.budget_s is not None:
        text += f" (budget {check.budget_s:g} s)"
    _report(check.name, result.passed and in_budget, text)


def test_11_cli_determinism_and_verify():
    args = [
        sys.executable, "-m", "bose_eos", "sweep",
        "--d", "3", "--sigma", "2", "--density", "1.0",
        "--tmin", "0.2", "--tmax", "2.0", "--points", "40",
    ]
    first = subprocess.run(args, capture_output=True, text=True, timeout=120)
    second = subprocess.run(args, capture_output=True, text=True, timeout=120)
    identical = first.returncode == 0 and first.stdout == second.stdout

    start = time.perf_counter()
    verify = subprocess.run(
        [sys.executable, "-m", "bose_eos", "verify", "--level", "quick"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    ok = identical and verify.returncode == 0 and elapsed < 10.0
    _report(
        "cli-determinism-and-self-check",
        ok,
        f"sweep outputs byte-identical={identical}, verify exit={verify.returncode}, "
        f"{elapsed:.2f} s (budget 10 s)",
    )
