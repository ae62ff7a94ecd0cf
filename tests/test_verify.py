"""The check registry itself: its checks fail on a wrong solver, and the README counts it."""

import re
from pathlib import Path

import pytest

import bose_eos.verify
from bose_eos import critical_temperature_density
from bose_eos.verify import LEVELS, REGISTRY, SPECS, SharedWork

README = Path(__file__).resolve().parents[1] / "README.md"


def _gamma(spec):
    return spec.sigma / (spec.d - spec.sigma)


@pytest.mark.parametrize("case, factor", [
    # r off by t^(0.02 gamma): a 2% error in gamma, the bound the exponent fits are held to
    ("exponent-off-by-2pct", lambda spec, t: t ** (0.02 * _gamma(spec))),
    # r off by a constant 1%, which no log-log slope can see
    ("amplitude-off-by-1pct", lambda spec, t: 1.01),
])
def test_law_ratio_checks_fail_where_the_fits_failed(monkeypatch, case, factor):
    solve = bose_eos.verify.solve_gap_isochore

    def perturbed(spec, T, rho):
        point = solve(spec, T, rho)
        t = T / critical_temperature_density(spec, rho) - 1.0
        return point._replace(r=point.r * factor(spec, t))

    monkeypatch.setattr(bose_eos.verify, "solve_gap_isochore", perturbed)
    shared = SharedWork()
    results = {c.name: c.run(shared) for c in REGISTRY if c.name.startswith("asymptotic-mu-")}
    assert len(results) == 3 * len(SPECS)
    # the rung at the smallest t fails for both specs, whatever the others read
    for suffix in ("", "-d3-sigma1.8"):
        result = results[f"asymptotic-mu-at-t-1e-5{suffix}"]
        assert not result.passed, (case, result)


def test_readme_verify_counts_match_the_registry():
    counts = dict(re.findall(r"^bose-eos verify --level (\w+) +# (\d+)\b", README.read_text(),
                             re.MULTILINE))
    assert counts == {
        level: str(sum(level == "full" or c.level == "quick" for c in REGISTRY))
        for level in LEVELS
    }
