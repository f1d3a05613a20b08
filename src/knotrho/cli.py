"""Command-line front end.

Rationals are the canonical output (serialized as exact "p/q" strings that
round-trip); decimal columns are 12-significant-digit approximations for
human convenience.  JSON output is one object per line; CSV always carries
a header row.  Exit codes: 0 success, 1 verification failure, 2 invalid
input, 3 certification failure.

The RHO_MODE environment variable (exact|float) sets the default
computation mode; the --mode flag overrides it.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from fractions import Fraction

import click

from .bounds import (
    PUBLISHED,
    CuspData,
    bound_report,
    gap_lower_bound,
    lower_bound_signature,
    slope_length,
    two_pi_check,
)
from .exceptions import CertificationError, KnotRhoError, KnotSpecError
from .cyclotomic import UnitRoot
from .rho import rho_knot_surgery_result
from .seifert import KNOT_FAMILIES, SeifertMatrix, jn_seifert, seifert_from_json, unknot_seifert
from .signature import (
    alexander_at,
    avg_signature_details,
    signature_details,
)
from .verify import SUITE_NAMES, run_suites

EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_UNCERTIFIED = 3


def parse_knot_spec(spec: str) -> tuple[str, SeifertMatrix]:
    """Resolve 'unknot' | 'torus2:<n>' | 'jn:<n>' | 'file:<path>'."""
    if spec == "unknot":
        return spec, unknot_seifert()
    head, sep, tail = spec.partition(":")
    if not sep:
        raise KnotSpecError(f"unknown knot spec {spec!r}; expected a family prefix", position=0)
    if head in KNOT_FAMILIES:
        try:
            n = int(tail)
        except ValueError:
            raise KnotSpecError(
                f"family {head!r} needs an integer parameter, got {tail!r}",
                position=len(head) + 1,
            ) from None
        return spec, KNOT_FAMILIES[head](n)
    if head == "file":
        try:
            with open(tail, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise KnotSpecError(f"cannot read {tail!r}: {exc}", position=len(head) + 1) from exc
        return spec, seifert_from_json(text)
    raise KnotSpecError(f"unknown family {head!r}", position=0)


def rational_str(x: Fraction) -> str:
    return str(Fraction(x))


def decimal12(x) -> str:
    return format(float(x), ".12g")


def add_rational(record: dict, key: str, value: Fraction) -> None:
    record[key] = rational_str(value)
    record[f"{key}_decimal"] = decimal12(value)


def emit_records(records: list[dict], fmt: str) -> None:
    if fmt == "json":
        for rec in records:
            click.echo(json.dumps(rec, sort_keys=False))
        return
    if fmt == "csv":
        fields: list[str] = []
        for rec in records:
            for key in rec:
                if key not in fields:
                    fields.append(key)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
        click.echo(buf.getvalue(), nl=False)
        return
    for rec in records:
        width = max(len(k) for k in rec)
        for key, value in rec.items():
            click.echo(f"  {key:<{width}}  {value}")
        click.echo()


def handle_domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CertificationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_UNCERTIFIED)
        except KnotRhoError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID_INPUT)

    return wrapper


format_option = click.option(
    "--format", "fmt", type=click.Choice(["human", "csv", "json"]), default="human",
    help="Output format.",
)
mode_option = click.option(
    "--mode", type=click.Choice(["exact", "float"]), default="exact",
    envvar="RHO_MODE", show_envvar=True, help="Computation mode.",
)


@click.group()
@click.version_option(version="0.1.0", prog_name="knotrho")
def cli():
    """Exact knot signatures, rho invariants, and surgery complexity bounds.

    Knot specs: 'unknot', 'torus2:<n>' (the (2,2n+1) torus knot),
    'jn:<n>' (the 2n-twist 2-bridge knot), or 'file:<path>' with a JSON
    Seifert matrix {"kind": "knot"|"link", "size": m, "entries": [[...]]}.
    """


@cli.command()
@click.argument("spec")
@click.option("--omega", required=True, help="Root of unity as k/d.")
@mode_option
@click.option("--require-certified", is_flag=True, help="Exit 3 on uncertified float results.")
@format_option
@handle_domain_errors
def sig(spec: str, omega: str, mode: str, require_certified: bool, fmt: str):
    """Levine-Tristram signature at a root of unity."""
    label, matrix = parse_knot_spec(spec)
    root = UnitRoot.parse(omega)
    res = signature_details(matrix, root, mode)
    if require_certified and not res.certified:
        raise CertificationError(
            f"float result at {omega} is uncertified; rerun with --mode exact"
        )
    if mode == "exact" and not root.is_one:
        singular = alexander_at(matrix, root).is_zero
    else:
        singular = res.singular
    record = {
        "spec": label,
        "omega": str(root),
        "sigma": res.value,
        "positive": res.inertia.positive,
        "zero": res.inertia.zero,
        "negative": res.inertia.negative,
        "singular": singular,
        "certified": res.certified,
        "mode": mode,
    }
    emit_records([record], fmt)


@cli.command(name="avg-sig")
@click.argument("spec")
@click.option("--d", "d", type=int, required=True, help="Order of the root-of-unity grid.")
@mode_option
@format_option
@handle_domain_errors
def avg_sig(spec: str, d: int, mode: str, fmt: str):
    """Signature average over the d-th roots of unity (excluding 1)."""
    label, matrix = parse_knot_spec(spec)
    res = avg_signature_details(matrix, d, mode)
    record = {"spec": label, "d": d}
    add_rational(record, "avg_sig", res.value)
    record["certified"] = res.certified
    record["mode"] = mode
    emit_records([record], fmt)


@cli.command()
@click.argument("spec")
@click.option("--slope", type=int, required=True, help="Integer surgery slope (nonzero).")
@click.option("--levels", is_flag=True, help="Include the per-level invariants sigma_k.")
@mode_option
@format_option
@handle_domain_errors
def rho(spec: str, slope: int, levels: bool, mode: str, fmt: str):
    """Rho invariant of the surgery manifold over its cyclic first homology."""
    label, matrix = parse_knot_spec(spec)
    res = rho_knot_surgery_result(matrix, slope, mode)
    record = {"spec": label, "slope": slope}
    add_rational(record, "rho", res.value)
    record["modulus"] = abs(slope)
    if levels:
        record["per_level"] = ";".join(rational_str(v) for v in res.per_level)
    record["mode"] = mode
    emit_records([record], fmt)


@cli.command()
@click.argument("spec")
@click.option("--slope", type=int, required=True, help="Integer surgery slope (nonzero).")
@click.option("--crossing", type=int, default=None, help="Crossing number of the knot.")
@click.option("--g4", type=int, default=None, help="Slice genus bound for the knot.")
@mode_option
@format_option
@handle_domain_errors
def bounds(spec: str, slope: int, crossing, g4, mode: str, fmt: str):
    """All applicable complexity bounds for one surgery."""
    label, matrix = parse_knot_spec(spec)
    rep = bound_report(matrix, slope, crossing=crossing, g4=g4, mode=mode)
    record = {"spec": label, "slope": slope}
    add_rational(record, "avg_sig", rep.avg_signature)
    add_rational(record, "lower_signature", rep.lower_signature)
    if rep.lower_crossing is not None:
        add_rational(record, "lower_crossing", rep.lower_crossing)
    if rep.lower_slice_genus is not None:
        add_rational(record, "lower_slice_genus", rep.lower_slice_genus)
    add_rational(record, "best_lower", rep.best_lower)
    if rep.upper is not None:
        record["upper"] = rep.upper
    record["vacuous"] = rep.vacuous
    record["mode"] = mode
    emit_records([record], fmt)


@cli.command(name="gap-table")
@click.option("--d", "d", type=int, required=True, help="Fixed order d > 1 of the cyclic cover.")
@click.option("--n-max", type=int, required=True, help="Largest twist parameter n (>= 3).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@handle_domain_errors
def gap_table(d: int, n_max: int, fmt: str):
    """Per-n gap bounds for the twist family: columns n,d,avg_sig,thmB_lower,gap_lower."""
    if d <= 1:
        raise KnotRhoError(f"need d > 1, got {d}")
    if n_max < 3:
        raise KnotRhoError(f"need n-max >= 3, got {n_max}")
    records = []
    for n in range(3, n_max + 1):
        a = jn_seifert(n)
        records.append(
            {
                "n": n,
                "d": d,
                "avg_sig": rational_str(avg_signature_details(a, d).value),
                "thmB_lower": rational_str(lower_bound_signature(a, d)),
                "gap_lower": rational_str(gap_lower_bound(n, d)),
            }
        )
    emit_records(records, fmt)


@cli.command(name="slope-length")
@click.argument("p", type=int)
@click.argument("q", type=int)
@click.option("--meridian-re", type=float, default=PUBLISHED.cusp.meridian.real, show_default=True)
@click.option("--meridian-im", type=float, default=PUBLISHED.cusp.meridian.imag, show_default=True)
@click.option("--longitude", type=float, default=PUBLISHED.cusp.longitude, show_default=True)
@format_option
@handle_domain_errors
def slope_length_cmd(p: int, q: int, meridian_re: float, meridian_im: float, longitude: float, fmt: str):
    """Length of the slope p*meridian + q*longitude on the cusp torus."""
    cusp = CuspData(complex(meridian_re, meridian_im), longitude)
    length = slope_length(cusp, p, q)
    record = {
        "p": p,
        "q": q,
        "length": decimal12(length),
        "exceeds_two_pi": two_pi_check(cusp, [(p, q)])[0],
        "meridian": f"{meridian_re}+{meridian_im}i",
        "longitude": longitude,
    }
    emit_records([record], fmt)


@cli.command()
@click.argument("suite", type=click.Choice(list(SUITE_NAMES)))
@click.option("--n-max", type=int, default=None, help="Cap on family parameters / slopes.")
@click.option("--d-max", type=int, default=None, help="Cap on root-of-unity orders.")
@click.option("--count", type=int, default=None, help="Randomized case count (suite 'all').")
@click.option("--seed", type=int, default=7, show_default=True)
@handle_domain_errors
def verify(suite: str, n_max, d_max, count, seed: int):
    """Run a verification suite; exit 0 iff every check passes."""
    results = run_suites(suite, n_max=n_max, d_max=d_max, count=count, seed=seed)
    for res in results:
        click.echo(res.line())
    failed = [r for r in results if not r.passed]
    click.echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


def main():
    cli()


if __name__ == "__main__":
    main()
