"""CLI behavior: formats, exit codes, round-trips, env-var mode."""

import csv
import io
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

import knotrho
from knotrho.cli import cli, parse_knot_spec
from knotrho.exceptions import InvalidParameterError, KnotSpecError
from knotrho.seifert import KNOT_FAMILIES, KnotFamilyId, jn_seifert


@pytest.fixture
def runner():
    return CliRunner()


def last_json(output: str) -> dict:
    lines = [ln for ln in output.strip().splitlines() if ln]
    return json.loads(lines[-1])


def all_json(output: str) -> list[dict]:
    return [json.loads(ln) for ln in output.strip().splitlines() if ln]


def parse_csv(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


# -- sig -----------------------------------------------------------------


def test_sig_trefoil_half(runner):
    res = runner.invoke(cli, ["sig", "torus2:1", "--omega", "1/2", "--format", "json"])
    assert res.exit_code == 0
    rec = last_json(res.output)
    assert rec["sigma"] == 2
    assert rec["singular"] is False
    assert rec["certified"] is True


def test_sig_unknot(runner):
    res = runner.invoke(cli, ["sig", "unknot", "--omega", "1/3", "--format", "json"])
    assert res.exit_code == 0
    assert last_json(res.output)["sigma"] == 0


def test_sig_singular_point(runner):
    res = runner.invoke(cli, ["sig", "torus2:1", "--omega", "1/6", "--format", "json"])
    rec = last_json(res.output)
    assert rec["sigma"] == 1
    assert rec["singular"] is True


def test_sig_bad_spec_exits_2(runner):
    res = runner.invoke(cli, ["sig", "torus3:1", "--omega", "1/2"])
    assert res.exit_code == 2
    res = runner.invoke(cli, ["sig", "torus2:x", "--omega", "1/2"])
    assert res.exit_code == 2
    assert "position" in res.output


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


def test_sig_require_certified_exits_3(runner):
    res = runner.invoke(
        cli,
        [
            "sig", "torus2:1",
            "--omega", f"{10**11 + 2}/{6 * 10**11}",
            "--mode", "float",
            "--require-certified",
        ],
    )
    assert res.exit_code == 3


def test_sig_env_var_sets_mode(runner):
    res = runner.invoke(
        cli, ["sig", "torus2:1", "--omega", "1/2", "--format", "json"],
        env={"RHO_MODE": "float"},
    )
    assert last_json(res.output)["mode"] == "float"
    res2 = runner.invoke(
        cli, ["sig", "torus2:1", "--omega", "1/2", "--mode", "exact", "--format", "json"],
        env={"RHO_MODE": "float"},
    )
    assert last_json(res2.output)["mode"] == "exact"


def test_sig_from_json_file(runner, tmp_path):
    path = tmp_path / "knot.json"
    path.write_text(jn_seifert(1).to_json())
    res = runner.invoke(cli, ["sig", f"file:{path}", "--omega", "1/2", "--format", "json"])
    assert res.exit_code == 0
    assert last_json(res.output)["sigma"] == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    res2 = runner.invoke(cli, ["sig", f"file:{bad}", "--omega", "1/2"])
    assert res2.exit_code == 2


# -- avg-sig -----------------------------------------------------------------


def test_avg_sig(runner):
    res = runner.invoke(cli, ["avg-sig", "torus2:1", "--d", "3", "--format", "json"])
    rec = last_json(res.output)
    assert Fraction(rec["avg_sig"]) == Fraction(4, 3)
    assert rec["avg_sig_decimal"] == "1.33333333333"


# -- rho ------------------------------------------------------------------


def test_rho_trefoil(runner):
    res = runner.invoke(cli, ["rho", "torus2:1", "--slope", "3", "--format", "json"])
    rec = last_json(res.output)
    assert Fraction(rec["rho"]) == Fraction(14, 9)


def test_rho_levels(runner):
    res = runner.invoke(
        cli, ["rho", "torus2:1", "--slope", "3", "--levels", "--format", "json"]
    )
    rec = last_json(res.output)
    assert [Fraction(x) for x in rec["per_level"].split(";")] == [
        0, Fraction(7, 3), Fraction(7, 3)
    ]


def test_rho_unknot_and_jn(runner):
    for spec, slope in (("unknot", 1), ("jn:1", 2)):
        res = runner.invoke(cli, ["rho", spec, "--slope", str(slope), "--format", "json"])
        assert Fraction(last_json(res.output)["rho"]) == 0


def test_rho_zero_slope_exits_2(runner):
    res = runner.invoke(cli, ["rho", "unknot", "--slope", "0"])
    assert res.exit_code == 2


# -- bounds ------------------------------------------------------------------


def test_bounds_trefoil(runner):
    res = runner.invoke(
        cli,
        ["bounds", "torus2:1", "--slope", "3", "--crossing", "3", "--format", "json"],
    )
    rec = last_json(res.output)
    assert Fraction(rec["lower_signature"]) == Fraction(2, 627419520)
    assert rec["upper"] == 672
    assert rec["vacuous"] is False


# -- gap-table --------------------------------------------------------------


def test_gap_table_csv(runner):
    res = runner.invoke(cli, ["gap-table", "--d", "2", "--n-max", "5"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,d,avg_sig,thmB_lower,gap_lower"
    rows = parse_csv(res.output)
    assert len(rows) == 3
    gaps = [Fraction(r["gap_lower"]) for r in rows]
    assert gaps == sorted(gaps)
    assert gaps[0] < gaps[1] < gaps[2]


def test_gap_table_row_bound(runner):
    res = runner.invoke(cli, ["gap-table", "--d", "3", "--n-max", "10", "--format", "json"])
    rows = all_json(res.output)
    row = [r for r in rows if r["n"] == 10][0]
    assert Fraction(row["avg_sig"]) >= Fraction(8, 9) * 10 - Fraction(14, 6)


def test_gap_table_d1_exits_2(runner):
    res = runner.invoke(cli, ["gap-table", "--d", "1", "--n-max", "5"])
    assert res.exit_code == 2


def test_gap_table_csv_json_identical_values(runner):
    as_csv = runner.invoke(cli, ["gap-table", "--d", "2", "--n-max", "6"]).output
    as_json = runner.invoke(
        cli, ["gap-table", "--d", "2", "--n-max", "6", "--format", "json"]
    ).output
    csv_rows = parse_csv(as_csv)
    json_rows = all_json(as_json)
    assert len(csv_rows) == len(json_rows)
    for c, j in zip(csv_rows, json_rows):
        for key in ("avg_sig", "thmB_lower", "gap_lower"):
            assert c[key] == str(j[key])


# -- slope-length -------------------------------------------------------------


def test_slope_length(runner):
    res = runner.invoke(cli, ["slope-length", "6", "1", "--format", "json"])
    rec = last_json(res.output)
    assert abs(float(rec["length"]) - 6.7271) < 5e-4
    assert rec["exceeds_two_pi"] is True
    res2 = runner.invoke(cli, ["slope-length", "0", "1", "--format", "json"])
    assert last_json(res2.output)["exceeds_two_pi"] is False


# -- verify --------------------------------------------------------------------


def test_verify_small_pass(runner):
    res = runner.invoke(cli, ["verify", "gap", "--n-max", "6"])
    assert res.exit_code == 0
    assert "[PASS]" in res.output


def test_verify_unknown_suite_exits_2(runner):
    res = runner.invoke(cli, ["verify", "everything"])
    assert res.exit_code == 2


def test_version_is_the_package_version(runner):
    res = runner.invoke(cli, ["--version"])
    assert res.exit_code == 0
    assert res.output == f"knotrho, version {knotrho.__version__}\n"


# -- rational round-trips ----------------------------------------------------------


def test_emitted_rationals_round_trip(runner):
    res = runner.invoke(
        cli, ["bounds", "jn:2", "--slope", "7", "--crossing", "8", "--format", "json"]
    )
    rec = last_json(res.output)
    for key in ("avg_sig", "lower_signature", "lower_crossing", "best_lower"):
        value = Fraction(rec[key])
        assert str(value) == rec[key]
        assert rec[f"{key}_decimal"] == format(float(value), ".12g")
