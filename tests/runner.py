"""Run the command line in process and capture what it writes.

``CliRunner().invoke(main, args)`` calls ``main(args)`` with ``sys.stdout``
and ``sys.stderr`` replaced by UTF-8 streams, and returns a ``Result``.
An uncaught exception gives exit code 1 and is kept in ``exception``, so a
crash shows up as a failed exit-code assertion rather than escaping the test.
``python(*args)`` is the command line of a child interpreter that runs
under this one's flags.
"""

import io
import subprocess
import sys


def python(*args: str) -> list[str]:
    """A python command line with this interpreter's -O, -B, -W and -X flags.

    So a test run under ``-O`` or ``-X dev -X warn_default_encoding -W
    error`` runs its child interpreters under them too.  The standard
    library's list of flags leaves out ``-X warn_default_encoding``.
    """
    flags = subprocess._args_from_interpreter_flags()
    if sys.flags.warn_default_encoding:
        flags += ["-X", "warn_default_encoding"]
    return [sys.executable, *flags, *args]


class _Tee(io.BytesIO):
    """A byte buffer that also copies every write into a shared one."""

    def __init__(self, mixed: io.BytesIO):
        super().__init__()
        self.mixed = mixed

    def write(self, data) -> int:
        self.mixed.write(data)
        return super().write(data)


class Result:
    """One run: exit code, captured bytes, and the exception it ended in."""

    def __init__(self, exit_code: int, stdout_bytes: bytes, stderr_bytes: bytes,
                 output_bytes: bytes, exception: BaseException | None):
        self.exit_code = exit_code
        self.stdout_bytes = stdout_bytes
        self.stderr_bytes = stderr_bytes
        self.output_bytes = output_bytes
        self.exception = exception

    @staticmethod
    def _text(data: bytes) -> str:
        return data.decode("utf-8", "replace").replace("\r\n", "\n")

    @property
    def stdout(self) -> str:
        return self._text(self.stdout_bytes)

    @property
    def stderr(self) -> str:
        return self._text(self.stderr_bytes)

    @property
    def output(self) -> str:
        """Standard output and error in the order they were written, as a terminal shows them."""
        return self._text(self.output_bytes)


class CliRunner:
    def invoke(self, main, args) -> Result:
        mixed = io.BytesIO()
        out, err = _Tee(mixed), _Tee(mixed)
        saved = sys.stdout, sys.stderr
        sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
        sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
        exception = None
        try:
            main(list(args))
            exit_code = 0
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
            if exit_code:
                exception = exc
        except Exception as exc:
            exit_code, exception = 1, exc
        finally:
            for stream in (sys.stdout, sys.stderr):
                stream.flush()
                stream.detach()
            sys.stdout, sys.stderr = saved
        return Result(exit_code, out.getvalue(), err.getvalue(), mixed.getvalue(), exception)
