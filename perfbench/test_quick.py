"""Quick tests of the benchmark itself: each workload end to end on reduced
inputs, and each check rejecting a wrong answer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The cheapest queries of a round, enough to reach every check.
REDUCED = {
    "prime-avg": lambda s: (s["mode"] == "exact" and s["d"] < 400) or (s["mode"] == "float" and s["d"] < 15_000),
    "scrambled-scan": lambda s: s["n"] <= 4,
    "twist-table": lambda s: s["n"] <= 45,
}


class Reduced:
    def __init__(self, wl):
        self.wl = wl
        self.name, self.with_cli = wl.name, wl.with_cli
        self.prepare, self.query = wl.prepare, wl.query

    def specs(self, seed, r):
        return [s for s in self.wl.specs(seed, r) if REDUCED[self.name](s)]


def answers(name: str, seed: int = 5):
    wl = workloads.WORKLOADS[name]
    kr = workloads.load_program(wl.with_cli)
    specs = Reduced(wl).specs(seed, 0)
    return [(s, wl.query(kr, wl.prepare(kr, s))) for s in specs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_and_checks_out(name, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, name, Reduced(workloads.WORKLOADS[name]))
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert os.path.exists(tmp_path / f"{name}-seed3-trace1-spans.npz")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_rounds_do_not_repeat_a_knot_or_conductor():
    for name, wl in workloads.WORKLOADS.items():
        for r in range(3):
            specs = wl.specs(9, r)
            assert len(specs) == workloads.ROUND_SIZE
            assert specs == wl.specs(9, r), "generation must be deterministic"
    keys = [(s["family"], s["n"], s["d"]) for s in workloads.WORKLOADS["prime-avg"].specs(9, 0)]
    assert len({d for _, _, d in keys}) == len(keys)
    assert all(workloads.is_prime(d) for _, _, d in keys)
    twist = workloads.WORKLOADS["twist-table"].specs(9, 0)
    assert len({s["n"] for s in twist}) == len(twist)


def test_reference_routes_agree(monkeypatch):
    """The torus closed form, the float eigenvalues and the mpmath eigenvalues
    give the same signatures."""
    for n in (1, 3, 6):
        for d in (7, 25, 311):
            assert reference.torus_average(n, d) == reference.eigen_average(workloads.family_rows("torus2", n), d)
    rows = workloads.family_rows("jn", 5)
    ks = [1, 2, 3, 178]
    floats = reference.eigen_signatures(rows, 449, ks)
    monkeypatch.setattr(reference, "SEPARATION", 1.0)  # every point falls back to mpmath
    assert reference.eigen_signatures(rows, 449, ks) == floats
    # A jump point of the trefoil: the zero eigenvalue is found on both routes.
    trefoil = workloads.family_rows("torus2", 1)
    assert reference.eigen_signatures(trefoil, 6, [1]) == [(1, 1, 0)]


def test_prime_avg_check_rejects_wrong_answers():
    spec, (value, certified) = answers("prime-avg")[0]
    memo = {}
    assert reference.check_prime_avg(spec, (value, certified), memo) == []
    # One signature off by 2 moves the average by 2/d.
    assert reference.check_prime_avg(spec, (value + Fraction(2, spec["d"]), certified), memo)
    assert reference.check_prime_avg(spec, (value, False), memo)


def test_scrambled_check_rejects_wrong_answers():
    got = answers("scrambled-scan")
    spec, profile = next((s, a) for s, a in got if s["d"] % 2 == 0)
    assert reference.check_scrambled(spec, profile, {}) == []
    k = next(i for i, (_, _, sing) in enumerate(profile) if sing)
    sigma, (p, z, q), sing = profile[k]
    for wrong in (
        (sigma + 2, (p + 1, z, q - 1), sing),   # signature off by 2
        (sigma, (p, z, q), not sing),           # singular flag flipped
        (sigma + 1, (p + 1, 0, q), sing),       # nullity lost
    ):
        bad = list(profile)
        bad[k] = wrong
        assert reference.check_scrambled(spec, bad, {})
    assert reference.check_scrambled(spec, profile[:-1], {})


def test_twist_check_rejects_wrong_answers():
    got = answers("twist-table")
    memo = {}
    for spec, (code, out) in got:
        assert reference.check_twist(spec, (code, out), memo) == []
    spec, (code, out) = next((s, a) for s, a in got if s["cmd"] == "rho")
    d = abs(spec["slope"])
    rec = json.loads(out)
    off = dict(rec, rho=str(Fraction(rec["rho"]) + Fraction(1, d)))
    assert reference.check_twist(spec, (0, json.dumps(off)), memo)
    levels = rec["per_level"].split(";")
    levels[1] = str(Fraction(levels[1]) + 2)
    assert reference.check_twist(spec, (0, json.dumps(dict(rec, per_level=";".join(levels)))), memo)
    assert reference.check_twist(spec, (2, out), memo)
    spec, (code, out) = next((s, a) for s, a in got if s["cmd"] == "bounds")
    rec = json.loads(out)
    off = dict(rec, avg_sig=str(Fraction(rec["avg_sig"]) + Fraction(2, abs(spec["slope"]))))
    assert reference.check_twist(spec, (0, json.dumps(off)), memo)
    off = dict(rec, lower_signature=str(Fraction(rec["lower_signature"]) * 2))
    assert reference.check_twist(spec, (0, json.dumps(off)), memo)


def test_missing_program_fails_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "prime-avg", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
