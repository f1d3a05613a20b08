"""Run the knotrho CLI in-process, the way the shell would see it."""

import contextlib
import io

from knotrho.cli import cli


def run_cli(args) -> tuple[int, str]:
    """(exit code, standard output and standard error as one text) of
    `knotrho <args>`.  An exception other than SystemExit propagates."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli.main(args=list(args), prog_name="knotrho")
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()
