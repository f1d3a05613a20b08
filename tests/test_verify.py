"""Verification-suite plumbing and the randomized generators."""

import random

import pytest

from knotrho import verify
from knotrho.verify import (
    CheckResult,
    SUITE_NAMES,
    bounds_suite,
    gap_suite,
    gilmer_suite,
    litherland_suite,
    property_suite,
    published_values_suite,
    random_knot_seifert,
    random_root,
    run_suites,
)

from clirun import run_cli


def test_check_result_line_format():
    ok = CheckResult("demo", "works", True, "42 cases")
    assert ok.line() == "[PASS] demo/works - 42 cases"
    assert CheckResult("demo", "broken", False).line() == "[FAIL] demo/broken"


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suites("everything")


@pytest.mark.parametrize("suite", [s for s in SUITE_NAMES if s != "all"])
def test_each_suite_passes_at_small_caps(suite):
    results = run_suites(suite, n_max=5, d_max=10)
    assert results
    assert all(r.passed for r in results)


def test_all_suite_covers_every_family():
    results = run_suites("all", n_max=4, d_max=8, count=5)
    suites = {r.suite for r in results}
    assert suites == {"litherland", "gilmer", "bounds", "published", "gap", "properties"}
    assert all(r.passed for r in results)


def test_the_seed_reaches_the_property_suite(monkeypatch):
    # `knotrho verify all --seed 3` used to run the property suite at its
    # default seed 7.
    seen = []

    def spy(count=60, size_max=12, seed=7, d_max=36):
        seen.append((count, seed))
        return []

    monkeypatch.setattr(verify, "property_suite", spy)
    run_suites("all", n_max=2, d_max=4, count=3, seed=3)
    run_suites("all", n_max=2, d_max=4, count=3)
    code, _ = run_cli(["verify", "all", "--n-max", "2", "--d-max", "4", "--count", "3", "--seed", "11"])
    assert code == 0
    assert seen == [(3, 3), (3, 7), (3, 11)]


def test_singular_report_mentions_both_values():
    results = litherland_suite(n_max=1, d_max=6)
    report = [r for r in results if r.name == "singular-points-report"][0]
    assert "sigma=1" in report.detail and "closed form=0" in report.detail


def test_random_root_bounds():
    rng = random.Random(0)
    for _ in range(50):
        root = random_root(rng, d_max=20)
        assert 2 <= root.d <= 20
        assert not root.is_one


def test_property_suite_deterministic():
    a = property_suite(count=10, seed=3)
    b = property_suite(count=10, seed=3)
    assert [(r.name, r.passed, r.detail) for r in a] == [
        (r.name, r.passed, r.detail) for r in b
    ]


def test_zero_caps_pass_vacuously():
    assert all(r.passed for r in gilmer_suite(n_max=1))
    assert all(r.passed for r in gap_suite(n_max=2))
    assert all(r.passed for r in property_suite(count=0))
