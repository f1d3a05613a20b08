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

import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import SUITE_NAMES, __version__
from .bounds import (
    PUBLISHED,
    CuspData,
    bound_report,
    gap_lower_bound,
    slope_length,
    two_pi_check,
)
from .exceptions import CertificationError, KnotRhoError, KnotSpecError
from .cyclotomic import UnitRoot
from .rho import rho_knot_surgery_result
from .seifert import KNOT_FAMILIES, SeifertMatrix, jn_seifert, seifert_from_json, unknot_seifert
from .signature import avg_signature_details, signature_details

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


def echo(text: str = "", err: bool = False) -> None:
    (sys.stderr if err else sys.stdout).write(f"{text}\n")


def emit_records(records: list[dict], fmt: str) -> None:
    if fmt == "json":
        for rec in records:
            echo(json.dumps(rec, sort_keys=False))
        return
    if fmt == "csv":
        import csv

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
        sys.stdout.write(buf.getvalue())
        return
    for rec in records:
        width = max(len(k) for k in rec)
        for key, value in rec.items():
            echo(f"  {key:<{width}}  {value}")
        echo()


def handle_domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CertificationError as exc:
            echo(f"error: {exc}", err=True)
            sys.exit(EXIT_UNCERTIFIED)
        except KnotRhoError as exc:
            echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INVALID_INPUT)

    return wrapper


# -- command-line parsing ---------------------------------------------------------
#
# The parser keeps the conventions and texts of earlier releases: options
# may come before, between or after the arguments, as `--name value` or
# `--name=value`, the last of a repeated option wins, and `--` ends the
# options.  Usage errors exit with code 2 and print the command's usage, a
# hint and `Error: <message>` to standard error.  The parameters are
# checked in this order: the options given, in the order they first
# appear, then the arguments, then the options not given, in declaration
# order; surplus arguments are reported last.


class UsageError(Exception):
    """A malformed command line.  `owner` is the command (or the group)
    whose usage the message follows, or None for a bare message; a message
    of None stands for the group's help, printed when no argument is given."""

    def __init__(self, message: str | None, owner=None):
        super().__init__(message)
        self.message, self.owner = message, owner

    def show(self, prog: str) -> None:
        owner = self.owner
        if self.message is None:
            text = owner.help(prog)
        elif owner is None:
            text = f"Error: {self.message}"
        else:
            hint = f"Try '{owner.path(prog)} --help' for help."
            text = f"{owner.usage(prog)}\n{hint}\n\nError: {self.message}"
        echo(text, err=True)


class Param:
    """An option (`name` starts with '--') or argument (`name` in capitals).
    `type` is int, float, str, a tuple of allowed strings, or bool for a
    flag."""

    __slots__ = ("name", "dest", "type", "required", "default", "help", "envvar", "show_default")

    def __init__(self, name: str, type=str, dest: str | None = None, *, required: bool = False,
                 default=None, help: str = "", envvar: str | None = None,
                 show_default: bool = False):
        self.name, self.type, self.help = name, type, help
        self.dest = dest or name.lstrip("-").replace("-", "_").lower()
        self.required = required or not name.startswith("-")
        self.default = False if type is bool else default
        self.envvar, self.show_default = envvar, show_default

    @property
    def metavar(self) -> str:
        if isinstance(self.type, tuple):
            choices = "|".join(self.type)
            return f"[{choices}]" if self.name.startswith("-") else f"{{{choices}}}"
        if not self.name.startswith("-"):
            return self.name
        return {int: "INTEGER", float: "FLOAT", str: "TEXT"}[self.type]

    @property
    def label(self) -> str:
        if not self.name.startswith("-"):
            return repr(self.metavar)
        return repr(self.name) + (f" (env var: {self.envvar!r})" if self.envvar else "")

    def value(self, raw, owner):
        """The value of this parameter from its command-line text (None if
        not given), its environment variable or its default."""
        if raw is None and self.envvar:
            raw = os.environ.get(self.envvar) or None
        if raw is None:
            if not self.required:
                return self.default
            if self.name.startswith("-"):
                raise UsageError(f"Missing option {self.name!r}.", owner)
            message = f"Missing argument {self.label}."
            if isinstance(self.type, tuple):
                message += " Choose from:\n\t" + ",\n\t".join(self.type)
            raise UsageError(message, owner)
        kind = self.type
        if kind is bool:
            return raw
        if isinstance(kind, tuple):
            if raw in kind:
                return raw
            why = f"{raw!r} is not one of {', '.join(map(repr, kind))}."
        else:
            try:
                return kind(raw)
            except ValueError:
                why = f"{raw!r} is not a valid {'integer' if kind is int else kind.__name__}."
        raise UsageError(f"Invalid value for {self.label}: {why}", owner)


HELP = Param("--help", bool, help="Show this message and exit.")
VERSION = Param("--version", bool, help="Show the version and exit.")


def parse_options(owner, tokens: list[str], interspersed: bool) -> tuple[dict, list[str]]:
    """({option: text, or True for a flag}, the other tokens).  Options are
    read up to `--`, or up to the first other token unless `interspersed`."""
    given: dict = {}
    rest: list[str] = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if token == "--":
            rest += tokens[i:]
            break
        if token[:1] != "-" or token == "-":
            rest.append(token)
            if not interspersed:
                rest += tokens[i:]
                break
            continue
        name, eq, raw = token.partition("=")
        param = owner.options.get(name)
        if param is None:
            if token[1] != "-":
                raise UsageError(f"No such option '-{token[1]}'.", owner)
            from difflib import get_close_matches

            close = sorted(get_close_matches(name, owner.options))
            message = f"No such option {name!r}."
            if len(close) == 1:
                message += f" Did you mean {close[0]!r}?"
            elif close:
                message += f" (Did you mean one of: {', '.join(map(repr, close))}?)"
            raise UsageError(message, owner)
        if param.type is bool:
            if eq:
                raise UsageError(f"Option {name!r} does not take a value.")
            raw = True
        elif not eq:
            if i == len(tokens):
                raise UsageError(f"Option {name!r} requires an argument.")
            raw = tokens[i]
            i += 1
        given[param] = raw
    return given, rest


class Command:
    """A subcommand: its function, parameter table and help text."""

    def __init__(self, name: str, fn, params: tuple[Param, ...]):
        self.name, self.fn, self.params = name, fn, params
        self.doc = fn.__doc__.strip()
        self.arguments = [p for p in params if not p.name.startswith("-")]
        self.options = {p.name: p for p in (*params, HELP) if p.name.startswith("-")}

    def path(self, prog: str) -> str:
        return f"{prog} {self.name}"

    def usage(self, prog: str) -> str:
        from .clihelp import format_usage

        args = " ".join(["[OPTIONS]", *(p.metavar for p in self.arguments)])
        return format_usage(self.path(prog), args)

    def help(self, prog: str) -> str:
        from .clihelp import format_help

        return format_help(self.usage(prog), self.doc, self.options.values())

    def run(self, tokens: list[str], prog: str):
        given, rest = parse_options(self, tokens, interspersed=True)
        if HELP in given:
            echo(self.help(prog))
            return 0
        raw = dict(zip(self.arguments, rest))
        raw.update(given)
        order = [*given, *self.arguments, *(p for p in self.params if p not in given)]
        kwargs = {p.dest: p.value(raw.get(p), self) for p in dict.fromkeys(order)}
        extra = rest[len(self.arguments):]
        if extra:
            s = "s" if len(extra) > 1 else ""
            raise UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})", self)
        return self.fn(**kwargs)


class Group:
    """The `knotrho` program: global options and the table of subcommands.
    `main` is its entry point, as `cli.main(args, prog_name,
    standalone_mode)`; calling the group calls `main`."""

    def __init__(self, doc: str):
        self.doc = doc
        self.commands: dict[str, Command] = {}
        self.options = {"--version": VERSION, "--help": HELP}

    def command(self, name: str, *params: Param):
        """Register the decorated function as subcommand `name`."""

        def register(fn):
            self.commands[name] = Command(name, fn, params)
            return fn

        return register

    def path(self, prog: str) -> str:
        return prog

    def usage(self, prog: str) -> str:
        from .clihelp import format_usage

        return format_usage(prog, "[OPTIONS] COMMAND [ARGS]...")

    def help(self, prog: str) -> str:
        from .clihelp import format_help

        docs = {name: command.doc for name, command in self.commands.items()}
        return format_help(self.usage(prog), self.doc, self.options.values(), docs)

    def run(self, tokens: list[str], prog: str):
        if not tokens:
            raise UsageError(None, self)
        given, rest = parse_options(self, tokens, interspersed=False)
        for option in given:  # eager options act in the order given
            echo(self.help(prog) if option is HELP else f"knotrho, version {__version__}")
            return 0
        if not rest:
            raise UsageError("Missing command.", self)
        command = self.commands.get(rest[0])
        if command is None:
            raise UsageError(f"No such command {rest[0]!r}.", self)
        return command.run(rest[1:], prog)

    def main(self, args=None, prog_name: str | None = None, standalone_mode: bool = True):
        """Run the command line `args` (default: sys.argv[1:]).  Standalone,
        exit the process with the command's exit code; otherwise return the
        command's result (0 after --help or --version) and raise
        UsageError for a malformed command line."""
        args = sys.argv[1:] if args is None else list(args)
        prog = program_name() if prog_name is None else prog_name
        if not standalone_mode:
            return self.run(args, prog)
        try:
            self.run(args, prog)
            sys.stdout.flush()
        except UsageError as exc:
            exc.show(prog)
            sys.exit(EXIT_INVALID_INPUT)
        except KeyboardInterrupt:
            echo("\nAborted!", err=True)
            sys.exit(1)
        except BrokenPipeError:
            # The reader has gone (`knotrho ... | head`): drop the unwritten rest.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        sys.exit(0)

    def __call__(self, *args, **kwargs):
        return self.main(*args, **kwargs)


def program_name() -> str:
    """How the shell ran this process: the script's name, or
    'python -m <module>'."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    base = os.path.basename(sys.argv[0])
    if not package:
        return base
    stem = os.path.splitext(base)[0]
    return "python -m " + (package if stem == "__main__" else f"{package}.{stem}").lstrip(".")


# -- the commands -----------------------------------------------------------------

SPEC = Param("SPEC")
FORMAT = Param("--format", ("human", "csv", "json"), "fmt", default="human", help="Output format.")
MODE = Param("--mode", ("exact", "float"), default="exact", envvar="RHO_MODE",
             help="Computation mode.")
SLOPE = Param("--slope", int, required=True, help="Integer surgery slope (nonzero).")

cli = Group(
    "Exact knot signatures, rho invariants, and surgery complexity bounds.\n\n"
    "Knot specs: 'unknot', 'torus2:<n>' (the (2,2n+1) torus knot),\n"
    "'jn:<n>' (the 2n-twist 2-bridge knot), or 'file:<path>' with a JSON\n"
    'Seifert matrix {"kind": "knot"|"link", "size": m, "entries": [[...]]}.'
)


@cli.command(
    "sig",
    SPEC,
    Param("--omega", required=True, help="Root of unity as k/d."),
    MODE,
    Param("--require-certified", bool, help="Exit 3 on uncertified float results."),
    FORMAT,
)
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
    record = {
        "spec": label,
        "omega": str(root),
        "sigma": res.value,
        "positive": res.inertia.positive,
        "zero": res.inertia.zero,
        "negative": res.inertia.negative,
        "singular": res.singular,
        "certified": res.certified,
        "mode": mode,
    }
    emit_records([record], fmt)


@cli.command(
    "avg-sig",
    SPEC,
    Param("--d", int, required=True, help="Order of the root-of-unity grid."),
    MODE,
    FORMAT,
)
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


@cli.command(
    "rho",
    SPEC,
    SLOPE,
    Param("--levels", bool, help="Include the per-level invariants sigma_k."),
    MODE,
    FORMAT,
)
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


@cli.command(
    "bounds",
    SPEC,
    SLOPE,
    Param("--crossing", int, help="Crossing number of the knot."),
    Param("--g4", int, help="Slice genus bound for the knot."),
    MODE,
    FORMAT,
)
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


@cli.command(
    "gap-table",
    Param("--d", int, required=True, help="Fixed order d > 1 of the cyclic cover."),
    Param("--n-max", int, required=True, help="Largest twist parameter n (>= 3)."),
    Param("--format", ("csv", "json"), "fmt", default="csv"),
)
@handle_domain_errors
def gap_table(d: int, n_max: int, fmt: str):
    """Per-n gap bounds for the twist family: columns n,d,avg_sig,thmB_lower,gap_lower."""
    if d <= 1:
        raise KnotRhoError(f"need d > 1, got {d}")
    if n_max < 3:
        raise KnotRhoError(f"need n-max >= 3, got {n_max}")
    records = []
    for n in range(3, n_max + 1):
        rep = bound_report(jn_seifert(n), d)
        records.append(
            {
                "n": n,
                "d": d,
                "avg_sig": rational_str(rep.avg_signature),
                "thmB_lower": rational_str(rep.lower_signature),
                "gap_lower": rational_str(gap_lower_bound(n, d)),
            }
        )
    emit_records(records, fmt)


@cli.command(
    "slope-length",
    Param("P", int),
    Param("Q", int),
    Param("--meridian-re", float, default=PUBLISHED.cusp.meridian.real, show_default=True),
    Param("--meridian-im", float, default=PUBLISHED.cusp.meridian.imag, show_default=True),
    Param("--longitude", float, default=PUBLISHED.cusp.longitude, show_default=True),
    FORMAT,
)
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


@cli.command(
    "verify",
    Param("SUITE", SUITE_NAMES),
    Param("--n-max", int, help="Cap on family parameters / slopes."),
    Param("--d-max", int, help="Cap on root-of-unity orders."),
    Param("--count", int, help="Randomized case count (suite 'all')."),
    Param("--seed", int, default=7, show_default=True),
)
@handle_domain_errors
def verify(suite: str, n_max, d_max, count, seed: int):
    """Run a verification suite; exit 0 iff every check passes."""
    from .verify import run_suites

    results = run_suites(suite, n_max=n_max, d_max=d_max, count=count, seed=seed)
    for res in results:
        echo(res.line())
    failed = [r for r in results if not r.passed]
    echo(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        sys.exit(EXIT_VERIFY_FAILED)


def main():
    cli()


if __name__ == "__main__":
    main()
