"""Call the `dcil` command line in this process and keep what it printed."""

import contextlib
import io
from typing import NamedTuple

from dcil.cli import main


class Invocation(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(argv: list[str]) -> Invocation:
    """Exit code, stdout and stderr of `dcil *argv`; an uncaught exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv, prog_name="dcil")
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return Invocation(code, out.getvalue(), err.getvalue())
