"""Run one ``qbag`` command with spans around the library's public functions.

    python3 bench/traced_cli.py SPANS_OUT <qbag arguments>

The command runs exactly as ``python -m qbag.cli <qbag arguments>`` would,
with the same output and exit status; the spans are written to
``SPANS_OUT`` as it exits.  ``qbag`` must be importable (``run.py`` sets
``PYTHONPATH``).
"""

import sys
from pathlib import Path

import qbag
import qbag.cli

import spans


def main() -> None:
    out, args = Path(sys.argv[1]), sys.argv[2:]
    tracer = spans.Tracer()
    try:
        with spans.instrument(tracer, qbag):
            qbag.cli.main(args, prog_name="qbag")
    finally:
        tracer.write(out)


if __name__ == "__main__":
    main()
