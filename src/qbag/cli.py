"""Command-line front door.

Subcommands: validate, eval, analyze, sweep, curve.  Input files are
UTF-8 documents in the format described in qbag.serialize; results go to
standard output, diagnostics to standard error.  Exit status is 0 on
success and 2, with one line on standard error, on any usage or input
problem.

Each subcommand takes one positional path and the options of its entry in
``_COMMANDS``.  An option that takes a value takes the next token, whatever
it is, or the text after ``=`` in ``--name=value``; a repeated option
keeps its last value; ``--`` ends the options; ``-h`` or ``--help`` prints
help to standard output.  Argument ids may begin with ``-``, so
``--topics -a`` names the topic ``-a``.

A subcommand imports the modules it runs at its top, before it reads
its input, so a call compiles only those: ``eval`` never loads the chain
or analysis modules.  It takes the library's functions from their
modules when it runs, so a wrapper set on a module's name, as
``bench/spans.py`` sets one, is the function it calls; the CSV and report
renderers are taken from ``qbag.serialize``, where the spans wrap them.
"""

from __future__ import annotations

import codecs
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .errors import QbagError

if TYPE_CHECKING:
    from .chain import Chain

# caps the grid, not memory: a sweep chain is built whole, at about 23 bytes
# per argument per step (45 with --csv, which also holds the strengths)
MAX_SWEEP_STEPS = 1_000_000
# characters per read of a chain file, which is decoded a window of whole steps at a time
_READ_CHUNK = 1 << 16


def _emit(texts: Iterable[str], err: bool = False) -> None:
    """Write each text to stdout or stderr as it comes, then flush.

    A stream whose encoding is ASCII is taken to be misconfigured: the
    texts go to its byte buffer in UTF-8 instead, so ids outside ASCII
    print the same bytes whatever the locale says.
    """
    stream = sys.stderr if err else sys.stdout
    if stream is None:  # the process started with that descriptor closed
        return
    buffer = getattr(stream, "buffer", None)
    if buffer is not None and codecs.lookup(stream.encoding or "ascii").name == "ascii":
        stream.flush()
        stream, texts = buffer, (text.encode("utf-8", "replace") for text in texts)
    stream.writelines(texts)
    stream.flush()


def _echo(message: str, err: bool = False) -> None:
    _emit((message + "\n",), err)


def _fail(message: str) -> None:
    _echo(message, err=True)
    sys.exit(2)


def _shown(path: str) -> str:
    """The path with control, line-break and lone surrogate characters escaped, for one line."""
    controls = (*range(32), *range(127, 160), 0x2028, 0x2029)
    escaped = path.translate({c: ascii(chr(c))[1:-1] for c in controls})
    return escaped.encode("utf-8", "backslashreplace").decode("utf-8")  # \udcfc, as stderr writes it


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {_shown(path)}: {exc}")


def _read_chain(path: str) -> Chain:
    """The chain document at path, read in chunks and decoded a step at a time.

    At any doubt the whole file is read again for the general path, which
    gives every error; a pipe, which cannot be read twice, goes to parse_chain.
    """
    from ._chain_reader import _canonical_steps
    from .serialize import _document_steps, _parse_steps, parse_chain

    if not os.path.isfile(path):
        return parse_chain(_read_text(path))
    try:
        with open(path, encoding="utf-8") as file:
            return _parse_steps(_canonical_steps(iter(lambda: file.read(_READ_CHUNK), "")))
    except Exception:  # off the layout, invalid or unreadable: the general path decides
        pass
    return _parse_steps(_document_steps(_read_text(path)))


def _query(chain_path: str, topics: str, threshold: float, semantics_name: str):
    """The strength matrix of the chain document and the query the options give."""
    from .analysis import SLFQuery
    from .chain import evaluate_chain
    from .semantics import semantics_by_name

    chain = _read_chain(chain_path)
    matrix = evaluate_chain(chain, semantics_by_name(semantics_name))
    ids = [t for t in topics.split(",") if t]
    if not ids:
        _fail("no topics given")
    return matrix, SLFQuery(topics=frozenset(ids), threshold=threshold)


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """Evenly spaced values from start to stop, both ends exact.

    Point i is start + i * (stop - start) / (steps - 1) in exact rationals
    from the float endpoints, rounded once, so no point drifts by
    accumulated rounding.  With start = a/b and stop = c/d that is one
    correctly rounded int division, as float() of the Fraction would do.
    """
    if steps == 1:
        return [start]
    (a, b), (c, d), n = start.as_integer_ratio(), stop.as_integer_ratio(), steps - 1
    base, step, scale = a * d * n, c * b - a * d, b * d * n
    return [(base + i * step) / scale for i in range(steps)]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def validate(chain_path: str) -> None:
    """Check a chain document and classify the chain."""
    from .chain import (
        _acyclic_steps,
        is_expansion_chain,
        is_normal_expansion_chain,
        is_weak_expansion_chain,
    )

    chain = _read_chain(chain_path)
    verdicts = _acyclic_steps(chain)
    for i, acyclic in enumerate(verdicts, start=1):
        _echo(f"step {i}: {'acyclic' if acyclic else 'cyclic'}")
    if not all(verdicts):
        _fail(f"CyclicGraph at step {verdicts.index(False) + 1}")
    _echo(f"expansion: {_yesno(is_expansion_chain(chain))}")
    _echo(f"normal: {_yesno(is_normal_expansion_chain(chain))}")
    _echo(f"weak: {_yesno(is_weak_expansion_chain(chain))}")


def eval_cmd(qbag_path: str, semantics_name: str) -> None:
    """Print final strengths of a single graph."""
    from .semantics import evaluate, semantics_by_name
    from .serialize import parse_qbag

    g = parse_qbag(_read_text(qbag_path))
    sem = semantics_by_name(semantics_name)
    assignment = evaluate(g, sem)
    _echo(" ".join(f"{x}={format(v, '.12g')}" for x, v in assignment.values.items()))


def analyze(
    chain_path: str,
    topics: str,
    threshold: float,
    checks: str,
    semantics_name: str,
    fmt: str,
) -> None:
    """Run safety, liveness, and fairness checks on a chain."""
    from .analysis import _report, _states, _verdicts
    from .export import _SCORE_PLACES
    from .serialize import report_to_dict

    states = _states(*_query(chain_path, topics, threshold, semantics_name))
    result: dict[str, object] = {}
    for group, verdicts in _verdicts(states).items():
        if checks in (group, "all"):
            result.update(verdicts)
    report = None
    if checks in ("fairness", "all"):
        report = _report(states)
        result["gini_score"] = report.gini_score
        result["shannon_score"] = report.shannon_score

    if fmt == "structured":
        payload = {k: round(v, _SCORE_PLACES) if isinstance(v, float) else v for k, v in result.items()}
        if report is not None:
            payload["fairness_report"] = report_to_dict(report)
        _echo(json.dumps(payload, indent=2))
        return
    sep = "," if fmt == "csv" else ": "
    for key, value in result.items():
        # a nested mapping is written as one key[x] line per entry
        entries = value.items() if isinstance(value, dict) else [(None, value)]
        for x, v in entries:
            name = key if x is None else f"{key}[{x}]"
            if isinstance(v, bool):
                v = _yesno(v)
            elif isinstance(v, float):
                v = format(v, f".{_SCORE_PLACES}f")
            _echo(f"{name}{sep}{v}")


def sweep(
    qbag_path: str,
    argument_id: str,
    start: float,
    stop: float,
    steps: int,
    out_path: str | None,
    as_csv: bool,
    semantics_name: str,
) -> None:
    """Generate (and optionally evaluate) an initial-strength sweep chain."""
    from .chain import evaluate_chain, sweep_chain
    from .semantics import semantics_by_name
    from .serialize import parse_qbag

    if as_csv:
        from .export import _strength_rows
    else:
        from ._chain_writer import _chain_parts
    g = parse_qbag(_read_text(qbag_path))
    sem = semantics_by_name(semantics_name)
    if steps < 1:
        _fail(f"steps must be >= 1, got {steps}")
    if steps > MAX_SWEEP_STEPS:
        _fail(f"steps must be <= {MAX_SWEEP_STEPS}, got {steps}")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        _fail(f"sweep range [{start}, {stop}] outside [0, 1]")
    chain = sweep_chain(g, argument_id, _grid(start, stop, steps))
    if as_csv:
        # evaluated whole first, so an evaluation error leaves stdout empty
        _emit(_strength_rows(evaluate_chain(chain, sem)))
        return
    step_texts = map("".join, _chain_parts(chain))
    if out_path is None:
        _emit(step_texts)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as out:
            out.writelines(step_texts)
    except OSError as exc:
        _fail(f"cannot write {_shown(out_path)}: {exc}")
    _echo(f"wrote {_shown(out_path)}")


def curve(chain_path: str, topics: str, threshold: float, semantics_name: str) -> None:
    """Print the safety-curve / fairness-line breakpoints as CSV."""
    from .analysis import fairness_report
    from .serialize import export_curve_csv

    matrix, query = _query(chain_path, topics, threshold, semantics_name)
    _emit((export_curve_csv(fairness_report(matrix, query)),))


# -- the command line --------------------------------------------------------


class _Option(NamedTuple):
    """One ``--name`` option of a subcommand; its value is passed as ``dest``."""

    name: str
    dest: str
    kind: object = str  # str, float, int, bool for a flag, or a tuple of choices
    default: object = None
    required: bool = False
    help: str = ""


class _Command(NamedTuple):
    """A subcommand: its function, called with the positional path and the options."""

    run: Callable[..., None]
    positional: str
    summary: str
    options: tuple[_Option, ...]


_SEMANTICS = _Option("--semantics", "semantics_name", default="dfquad", help="Semantics to evaluate with.")
_TOPICS = _Option("--topics", "topics", required=True, help="Comma-separated topic argument ids.")
_THRESHOLD = _Option(
    "--threshold", "threshold", float, required=True, help="Justification threshold in [0, 1]."
)

_COMMANDS = {
    "validate": _Command(
        validate, "chain_path", "Check a chain document and classify the chain.", ()
    ),
    "eval": _Command(
        eval_cmd, "qbag_path", "Print final strengths of a single graph.", (_SEMANTICS,)
    ),
    "analyze": _Command(
        analyze,
        "chain_path",
        "Run safety, liveness, and fairness checks on a chain.",
        (
            _TOPICS,
            _THRESHOLD,
            _Option("--checks", "checks", ("safety", "liveness", "fairness", "all"), "all"),
            _SEMANTICS,
            _Option("--format", "fmt", ("text", "structured", "csv"), "text"),
        ),
    ),
    "sweep": _Command(
        sweep,
        "qbag_path",
        "Generate (and optionally evaluate) an initial-strength sweep chain.",
        (
            _Option("--argument", "argument_id", required=True, help="Argument whose strength varies."),
            _Option("--from", "start", float, required=True, help="First strength of the sweep."),
            _Option("--to", "stop", float, required=True, help="Last strength of the sweep."),
            _Option(
                "--steps", "steps", int, required=True,
                help=f"Number of grid points, 1 to {MAX_SWEEP_STEPS}.",
            ),
            _Option("--out", "out_path", help="Write the chain document here instead of stdout."),
            _Option("--csv", "as_csv", bool, False, help="Evaluate the sweep and print the strength CSV."),
            _SEMANTICS,
        ),
    ),
    "curve": _Command(
        curve,
        "chain_path",
        "Print the safety-curve / fairness-line breakpoints as CSV.",
        (_TOPICS, _THRESHOLD, _SEMANTICS),
    ),
}
_SUMMARY = "Evaluate argumentation graphs and analyze dialogue chains."
_HELP = _Option("--help", "help", bool)
_TYPE_NAMES = {str: "TEXT", float: "FLOAT", int: "INTEGER", bool: ""}


def _usage(where: str, problem: str) -> None:
    """A usage error: one line on stderr, exit 2."""
    _fail(f"Error: {problem}. Try '{where} --help'.")


def _help(usage: str, summary: str, heading: str, rows: list[tuple[str, str]]) -> None:
    """Print help, with the rows in two columns, to stdout and exit 0."""
    width = max(len(left) for left, _ in rows)
    table = "\n".join(f"  {left:<{width}}  {right}".rstrip() for left, right in rows)
    _echo(f"Usage: {usage}\n\n{summary}\n\n{heading}:\n{table}")
    sys.exit(0)


def _command_help(where: str, command: _Command) -> None:
    rows = []
    for option in command.options:
        kind = option.kind
        value = f"[{'|'.join(kind)}]" if isinstance(kind, tuple) else _TYPE_NAMES[kind]
        notes = [option.help] if option.help else []
        if option.required:
            notes.append("[required]")
        elif option.default not in (None, False):
            notes.append(f"[default: {option.default}]")
        rows.append((f"{option.name} {value}".rstrip(), "  ".join(notes)))
    rows.append(("-h, --help", "Show this message and exit."))
    usage = f"{where} {command.positional.upper()} [OPTIONS]"
    _help(usage, command.summary, "Options", rows)


def _parse(where: str, command: _Command, tokens: list[str]) -> tuple[str, dict[str, object]]:
    """The positional path and the keyword options a subcommand's tokens give.

    An unknown option, a flag given a value or an option missing its value
    is a usage error as soon as it is met; help, asked for anywhere else,
    comes before the positional, required and type checks.
    """
    options = {option.name: option for option in command.options}
    options["-h"] = options["--help"] = _HELP
    given: dict[str, object] = {}
    positional: list[str] = []
    tokens = iter(tokens)
    for token in tokens:
        if token == "--":
            positional.extend(tokens)
            break
        if token[:1] != "-" or token == "-":
            positional.append(token)
            continue
        name, has_value, value = token.partition("=")
        option = options.get(name)
        if option is None:
            _usage(where, f"No such option {name!r}")
        elif option.kind is bool:
            if has_value:
                _usage(where, f"Option {name!r} does not take a value")
            given[option.dest] = True
        elif has_value:
            given[option.dest] = value
        else:
            value = next(tokens, None)
            if value is None:
                _usage(where, f"Option {name!r} requires an argument")
            given[option.dest] = value
    if given.pop(_HELP.dest, False):
        _command_help(where, command)
    if not positional:
        _usage(where, f"Missing argument {command.positional.upper()!r}")
    if len(positional) > 1:
        _usage(where, f"Got unexpected extra argument {positional[1]!r}")
    values: dict[str, object] = {}
    for option in command.options:
        if option.dest not in given:
            if option.required:
                _usage(where, f"Missing option {option.name!r}")
            values[option.dest] = option.default
            continue
        value, kind = given[option.dest], option.kind
        if isinstance(kind, tuple):
            if value not in kind:
                choices = ", ".join(map(repr, kind))
                _usage(where, f"Invalid value for {option.name!r}: {value!r} is not one of {choices}")
        elif kind is not bool:
            try:
                value = kind(value)
            except ValueError:
                problem = f"{value!r} is not a valid {_TYPE_NAMES[kind].lower()}"
                _usage(where, f"Invalid value for {option.name!r}: {problem}")
        values[option.dest] = value
    return positional[0], values


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run one command line, ``sys.argv[1:]`` by default.

    Always ends in SystemExit: 0 on success, 2 on a usage or input problem.
    """
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or "qbag"
    if args[:1] == ["--"]:
        args = args[1:]
    elif args[:1] in (["-h"], ["--help"]):
        rows = [(name, command.summary) for name, command in _COMMANDS.items()]
        _help(f"{prog} COMMAND [ARGS]...", _SUMMARY, "Commands", rows)
    if not args:
        _usage(prog, "Missing command")
    name, *tokens = args
    command = _COMMANDS.get(name)
    if command is None:
        _usage(prog, f"No such command {name!r}")
    where = f"{prog} {name}"
    path, options = _parse(where, command, tokens)
    try:
        command.run(path, **options)
    except QbagError as exc:
        _fail(f"{type(exc).__name__}: {exc}")
    except BrokenPipeError:
        # the reader went away; send what is still buffered nowhere, without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
