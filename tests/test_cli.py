"""CLI behavior: formats, exit codes, round-trips, env-var mode."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import knotrho
from knotrho.cli import parse_knot_spec
from knotrho.exceptions import InvalidParameterError, KnotSpecError
from knotrho.seifert import KNOT_FAMILIES, KnotFamilyId, SeifertMatrix, jn_seifert
from knotrho.signature import alexander_polynomial

from clirun import run_cli


def last_json(output: str) -> dict:
    lines = [ln for ln in output.strip().splitlines() if ln]
    return json.loads(lines[-1])


def all_json(output: str) -> list[dict]:
    return [json.loads(ln) for ln in output.strip().splitlines() if ln]


def parse_csv(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


# -- sig -----------------------------------------------------------------


def test_sig_trefoil_half():
    code, output = run_cli(["sig", "torus2:1", "--omega", "1/2", "--format", "json"])
    assert code == 0
    rec = last_json(output)
    assert rec["sigma"] == 2
    assert rec["singular"] is False
    assert rec["certified"] is True


def test_sig_unknot():
    code, output = run_cli(["sig", "unknot", "--omega", "1/3", "--format", "json"])
    assert code == 0
    assert last_json(output)["sigma"] == 0


def test_sig_singular_point():
    code, output = run_cli(["sig", "torus2:1", "--omega", "1/6", "--format", "json"])
    rec = last_json(output)
    assert rec["sigma"] == 1
    assert rec["singular"] is True


def test_sig_records_read_singularity_from_the_engine(tmp_path):
    # The singularity flag is the engine's zero count, det H = 0 exactly
    # where Delta(w) = 0, for knots and for a link with Delta = 0 alike.
    link = tmp_path / "link.json"
    link.write_text(
        SeifertMatrix(((2, 0, 0, 1), (0, 0, 0, 0), (1, 0, -1, 1), (0, 0, 2, 1)), kind="link").to_json()
    )
    cases = (
        ("torus2:1", "1/6", (1, 1, 1, 0, True)),
        ("torus2:1", "1/5", (2, 2, 0, 0, False)),
        ("jn:3", "1/7", (2, 4, 0, 2, False)),
        (f"file:{link}", "1/3", (1, 2, 1, 1, True)),
        (f"file:{link}", "1/2", (1, 2, 1, 1, True)),
        (f"file:{link}", "0/1", (0, 0, 4, 0, True)),
    )
    for spec, omega, (sigma, positive, zero, negative, singular) in cases:
        for mode in ("exact", "float"):
            code, output = run_cli(["sig", spec, "--omega", omega, "--mode", mode, "--format", "json"])
            assert code == 0
            assert last_json(output) == {
                "spec": spec, "omega": omega, "sigma": sigma, "positive": positive, "zero": zero,
                "negative": negative, "singular": singular, "certified": True, "mode": mode,
            }


def test_sig_on_a_tridiagonal_knot_builds_no_alexander_polynomial():
    before = alexander_polynomial.cache_info().misses
    for omega in ("1/7", "3/100003"):
        code, _ = run_cli(["sig", "jn:40", "--omega", omega])
        assert code == 0
    assert alexander_polynomial.cache_info().misses == before


def test_sig_bad_spec_exits_2():
    code, output = run_cli(["sig", "torus3:1", "--omega", "1/2"])
    assert code == 2
    code, output = run_cli(["sig", "torus2:x", "--omega", "1/2"])
    assert code == 2
    assert "position" in output


def test_knot_specs_and_family_ids_read_one_table():
    assert set(KNOT_FAMILIES) == {"torus2", "jn"}
    for name in KNOT_FAMILIES:
        assert parse_knot_spec(f"{name}:3") == (f"{name}:3", KnotFamilyId(name, 3).seifert())
        assert str(KnotFamilyId(name, 3)) == f"{name}:3"
    for spec, message, position in (
        ("torus3:1", "unknown family 'torus3'", 0),
        ("jn:x", "family 'jn' needs an integer parameter, got 'x'", 3),
        ("torus2", "unknown knot spec 'torus2'; expected a family prefix", 0),
    ):
        with pytest.raises(KnotSpecError) as info:
            parse_knot_spec(spec)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position
    with pytest.raises(InvalidParameterError, match="family parameter must be >= 1, got 0"):
        parse_knot_spec("torus2:0")


def test_sig_require_certified_exits_3():
    code, output = run_cli(
        [
            "sig", "torus2:1",
            "--omega", f"{10**11 + 2}/{6 * 10**11}",
            "--mode", "float",
            "--require-certified",
        ],
    )
    assert code == 3


def test_sig_env_var_sets_mode(monkeypatch):
    monkeypatch.setenv("RHO_MODE", "float")
    code, output = run_cli(["sig", "torus2:1", "--omega", "1/2", "--format", "json"])
    assert last_json(output)["mode"] == "float"
    code2, output2 = run_cli(["sig", "torus2:1", "--omega", "1/2", "--mode", "exact", "--format", "json"])
    assert last_json(output2)["mode"] == "exact"


def test_sig_from_json_file(tmp_path):
    path = tmp_path / "knot.json"
    path.write_text(jn_seifert(1).to_json())
    code, output = run_cli(["sig", f"file:{path}", "--omega", "1/2", "--format", "json"])
    assert code == 0
    assert last_json(output)["sigma"] == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code2, output2 = run_cli(["sig", f"file:{bad}", "--omega", "1/2"])
    assert code2 == 2


# -- avg-sig -----------------------------------------------------------------


def test_avg_sig():
    code, output = run_cli(["avg-sig", "torus2:1", "--d", "3", "--format", "json"])
    rec = last_json(output)
    assert Fraction(rec["avg_sig"]) == Fraction(4, 3)
    assert rec["avg_sig_decimal"] == "1.33333333333"


# -- rho ------------------------------------------------------------------


def test_rho_trefoil():
    code, output = run_cli(["rho", "torus2:1", "--slope", "3", "--format", "json"])
    rec = last_json(output)
    assert Fraction(rec["rho"]) == Fraction(14, 9)


def test_rho_levels():
    code, output = run_cli(["rho", "torus2:1", "--slope", "3", "--levels", "--format", "json"])
    rec = last_json(output)
    assert [Fraction(x) for x in rec["per_level"].split(";")] == [
        0, Fraction(7, 3), Fraction(7, 3)
    ]


def test_rho_unknot_and_jn():
    for spec, slope in (("unknot", 1), ("jn:1", 2)):
        code, output = run_cli(["rho", spec, "--slope", str(slope), "--format", "json"])
        assert Fraction(last_json(output)["rho"]) == 0


def test_rho_zero_slope_exits_2():
    code, output = run_cli(["rho", "unknot", "--slope", "0"])
    assert code == 2


# -- bounds ------------------------------------------------------------------


def test_bounds_trefoil():
    code, output = run_cli(["bounds", "torus2:1", "--slope", "3", "--crossing", "3", "--format", "json"])
    rec = last_json(output)
    assert Fraction(rec["lower_signature"]) == Fraction(2, 627419520)
    assert rec["upper"] == 672
    assert rec["vacuous"] is False


# -- gap-table --------------------------------------------------------------


def test_gap_table_csv():
    code, output = run_cli(["gap-table", "--d", "2", "--n-max", "5"])
    assert code == 0
    lines = output.strip().splitlines()
    assert lines[0] == "n,d,avg_sig,thmB_lower,gap_lower"
    rows = parse_csv(output)
    assert len(rows) == 3
    gaps = [Fraction(r["gap_lower"]) for r in rows]
    assert gaps == sorted(gaps)
    assert gaps[0] < gaps[1] < gaps[2]


def test_gap_table_row_bound():
    code, output = run_cli(["gap-table", "--d", "3", "--n-max", "10", "--format", "json"])
    rows = all_json(output)
    row = [r for r in rows if r["n"] == 10][0]
    assert Fraction(row["avg_sig"]) >= Fraction(8, 9) * 10 - Fraction(14, 6)


def test_gap_table_d1_exits_2():
    code, output = run_cli(["gap-table", "--d", "1", "--n-max", "5"])
    assert code == 2


def test_gap_table_csv_json_identical_values():
    as_csv = run_cli(["gap-table", "--d", "2", "--n-max", "6"])[1]
    as_json = run_cli(["gap-table", "--d", "2", "--n-max", "6", "--format", "json"])[1]
    csv_rows = parse_csv(as_csv)
    json_rows = all_json(as_json)
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        for key in ("avg_sig", "thmB_lower", "gap_lower"):
            assert c[key] == str(j[key])


# -- slope-length -------------------------------------------------------------


def test_slope_length():
    code, output = run_cli(["slope-length", "6", "1", "--format", "json"])
    rec = last_json(output)
    assert abs(float(rec["length"]) - 6.7271) < 5e-4
    assert rec["exceeds_two_pi"] is True
    code2, output2 = run_cli(["slope-length", "0", "1", "--format", "json"])
    assert last_json(output2)["exceeds_two_pi"] is False


# -- verify --------------------------------------------------------------------


def test_verify_small_pass():
    code, output = run_cli(["verify", "gap", "--n-max", "6"])
    assert code == 0
    assert "[PASS]" in output


def test_verify_unknown_suite_exits_2():
    code, output = run_cli(["verify", "everything"])
    assert code == 2


def test_version_is_the_package_version():
    code, output = run_cli(["--version"])
    assert code == 0
    assert output == f"knotrho, version {knotrho.__version__}\n"


def test_module_run_names_itself_in_usage():
    src = os.path.dirname(os.path.dirname(os.path.abspath(knotrho.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "knotrho.cli", "rho"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("Usage: python -m knotrho.cli rho [OPTIONS] SPEC\n")


def usage_error(command: str, message: str, usage: str = "[OPTIONS] SPEC") -> str:
    prog = f"knotrho {command}".rstrip()
    return f"Usage: {prog} {usage}\nTry '{prog} --help' for help.\n\nError: {message}\n"


BOUNDS = ["bounds", "jn:2", "--slope", "3"]
SUITES = "{litherland|gilmer|bounds|gap|all}"
MODE_ERROR = "Invalid value for '--mode' (env var: 'RHO_MODE'): 'fast' is not one of 'exact', 'float'."
GROUP_HELP = """\
Usage: knotrho [OPTIONS] COMMAND [ARGS]...

  Exact knot signatures, rho invariants, and surgery complexity bounds.

  Knot specs: 'unknot', 'torus2:<n>' (the (2,2n+1) torus knot), 'jn:<n>' (the
  2n-twist 2-bridge knot), or 'file:<path>' with a JSON Seifert matrix
  {"kind": "knot"|"link", "size": m, "entries": [[...]]}.

Options:
  --version  Show the version and exit.
  --help     Show this message and exit.

Commands:
  avg-sig       Signature average over the d-th roots of unity (excluding...
  bounds        All applicable complexity bounds for one surgery.
  gap-table     Per-n gap bounds for the twist family: columns...
  rho           Rho invariant of the surgery manifold over its cyclic...
  sig           Levine-Tristram signature at a root of unity.
  slope-length  Length of the slope p*meridian + q*longitude on the cusp...
  verify        Run a verification suite; exit 0 iff every check passes.
"""

SIG_HELP = """\
Usage: knotrho sig [OPTIONS] SPEC

  Levine-Tristram signature at a root of unity.

Options:
  --omega TEXT               Root of unity as k/d.  [required]
  --mode [exact|float]       Computation mode.  [env var: RHO_MODE]
  --require-certified        Exit 3 on uncertified float results.
  --format [human|csv|json]  Output format.
  --help                     Show this message and exit.
"""


@pytest.mark.parametrize(
    "args, rho_mode, code, expected",
    [
        ([*BOUNDS, "--mode", "fast"], None, 2, usage_error("bounds", MODE_ERROR)),
        ([*BOUNDS, "--mode", "fast"], "float", 2, usage_error("bounds", MODE_ERROR)),
        (BOUNDS, "fast", 2, usage_error("bounds", MODE_ERROR)),
        (
            [*BOUNDS, "--format", "xml"], None, 2,
            usage_error(
                "bounds", "Invalid value for '--format': 'xml' is not one of 'human', 'csv', 'json'."
            ),
        ),
        (["bounds", "jn:2"], "fast", 2, usage_error("bounds", "Missing option '--slope'.")),
        (
            ["rho", "jn:2", "--slope", "x"], None, 2,
            usage_error("rho", "Invalid value for '--slope': 'x' is not a valid integer."),
        ),
        (["rho", "--levels"], None, 2, usage_error("rho", "Missing argument 'SPEC'.")),
        ([*BOUNDS, "extra"], None, 2, usage_error("bounds", "Got unexpected extra argument (extra)")),
        (
            [*BOUNDS, "--frmat", "json"], None, 2,
            usage_error("bounds", "No such option '--frmat'. Did you mean '--format'?"),
        ),
        (["bounds", "jn:2", "--slope"], None, 2, "Error: Option '--slope' requires an argument.\n"),
        (["rho", "jn:2", "--levels=1"], None, 2, "Error: Option '--levels' does not take a value.\n"),
        (["nope"], None, 2, usage_error("", "No such command 'nope'.", "[OPTIONS] COMMAND [ARGS]...")),
        (
            ["verify", "everything"], None, 2,
            usage_error(
                "verify",
                f"Invalid value for '{SUITES}': 'everything' is not one of "
                "'litherland', 'gilmer', 'bounds', 'gap', 'all'.",
                f"[OPTIONS] {SUITES}",
            ),
        ),
        (["rho", "jn:2", "--slope", "0"], "float", 2, "error: surgery slope must be nonzero\n"),
        (["--version"], None, 0, f"knotrho, version {knotrho.__version__}\n"),
        (["sig", "--help"], None, 0, SIG_HELP),
        ([], None, 2, GROUP_HELP),
    ],
)
def test_usage_errors_keep_their_text(monkeypatch, args, rho_mode, code, expected):
    if rho_mode is None:
        monkeypatch.delenv("RHO_MODE", raising=False)
    else:
        monkeypatch.setenv("RHO_MODE", rho_mode)
    assert run_cli(args) == (code, expected)


# -- rational round-trips ----------------------------------------------------------


def test_emitted_rationals_round_trip():
    code, output = run_cli(["bounds", "jn:2", "--slope", "7", "--crossing", "8", "--format", "json"])
    rec = last_json(output)
    for key in ("avg_sig", "lower_signature", "lower_crossing", "best_lower"):
        value = Fraction(rec[key])
        assert str(value) == rec[key]
        assert rec[f"{key}_decimal"] == format(float(value), ".12g")
