"""Command-line front door.

Subcommands: validate, eval, analyze, sweep, curve.  Input files are
UTF-8 documents in the format described in qbag.serialize; results go to
standard output, diagnostics to standard error.  Exit status is 0 on
success and 2 on any usage or input problem.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .analysis import (
    SLFQuery,
    fairness_report,
    fluctuation_count,
    is_cautiously_fair,
    is_ideally_fair,
    is_live,
    is_lively_fair,
    is_strongly_safe,
    is_weakly_safe,
)
from .chain import (
    _acyclic_steps,
    evaluate_chain,
    is_expansion_chain,
    is_normal_expansion_chain,
    is_weak_expansion_chain,
    sweep_chain,
)
from .errors import QbagError
from .semantics import evaluate, semantics_by_name
from .serialize import (
    _SCORE_PLACES,
    export_curve_csv,
    export_strengths_csv,
    parse_chain,
    parse_qbag,
    report_to_dict,
    serialize_chain,
)

# a sweep chain is built whole in memory, so the grid is capped
MAX_SWEEP_STEPS = 1_000_000
# sweep --out encodes the document a slice at a time, never into a whole second copy
_WRITE_SLICE = 1 << 20


def _fail(message: str) -> None:
    click.echo(message, err=True)
    sys.exit(2)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _query(chain_path: str, topics: str, threshold: float, semantics_name: str):
    """The strength matrix of the chain document and the query the options give."""
    chain = parse_chain(_read_text(chain_path))
    matrix = evaluate_chain(chain, semantics_by_name(semantics_name))
    ids = [t for t in topics.split(",") if t]
    if not ids:
        _fail("no topics given")
    return matrix, SLFQuery(topics=frozenset(ids), threshold=threshold)


_semantics_option = click.option("--semantics", "semantics_name", default="dfquad", show_default=True)
_topics_option = click.option("--topics", required=True, help="Comma-separated topic argument ids.")


def _grid(start: float, stop: float, steps: int) -> list[float]:
    """Evenly spaced values from start to stop, both ends exact.

    Each point is computed in exact rationals from the float endpoints
    and rounded once, so no point drifts by accumulated rounding.
    """
    if steps == 1:
        return [start]
    lo, hi = Fraction(start), Fraction(stop)
    return [float(lo + i * (hi - lo) / (steps - 1)) for i in range(steps)]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


class _Main(click.Group):
    """The one input-error boundary: every QbagError exits 2 on one line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except QbagError as exc:
            _fail(f"{type(exc).__name__}: {exc}")


@click.group(cls=_Main, context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Evaluate argumentation graphs and analyze dialogue chains."""


@main.command()
@click.argument("chain_path")
def validate(chain_path: str) -> None:
    """Check a chain document and classify the chain."""
    chain = parse_chain(_read_text(chain_path))
    verdicts = _acyclic_steps(chain)
    for i, acyclic in enumerate(verdicts, start=1):
        click.echo(f"step {i}: {'acyclic' if acyclic else 'cyclic'}")
    if not all(verdicts):
        _fail(f"CyclicGraph at step {verdicts.index(False) + 1}")
    click.echo(f"expansion: {_yesno(is_expansion_chain(chain))}")
    click.echo(f"normal: {_yesno(is_normal_expansion_chain(chain))}")
    click.echo(f"weak: {_yesno(is_weak_expansion_chain(chain))}")


@main.command(name="eval")
@click.argument("qbag_path")
@_semantics_option
def eval_cmd(qbag_path: str, semantics_name: str) -> None:
    """Print final strengths of a single graph."""
    g = parse_qbag(_read_text(qbag_path))
    sem = semantics_by_name(semantics_name)
    assignment = evaluate(g, sem)
    click.echo(" ".join(f"{x}={format(v, '.12g')}" for x, v in assignment.values.items()))


@main.command()
@click.argument("chain_path")
@_topics_option
@click.option("--threshold", required=True, type=float, help="Justification threshold in [0, 1].")
@click.option(
    "--checks",
    type=click.Choice(["safety", "liveness", "fairness", "all"]),
    default="all",
    show_default=True,
)
@_semantics_option
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "structured", "csv"]),
    default="text",
    show_default=True,
)
def analyze(
    chain_path: str,
    topics: str,
    threshold: float,
    checks: str,
    semantics_name: str,
    fmt: str,
) -> None:
    """Run safety, liveness, and fairness checks on a chain."""
    matrix, query = _query(chain_path, topics, threshold, semantics_name)
    result: dict[str, object] = {}
    report = None
    if checks in ("safety", "all"):
        result["strongly_safe"] = is_strongly_safe(matrix, query)
        result["weakly_safe"] = is_weakly_safe(matrix, query)
    if checks in ("liveness", "all"):
        result["fluctuations"] = {
            x: fluctuation_count(matrix, x, threshold) for x in query.sorted_topics()
        }
        result["live"] = is_live(matrix, query)
    if checks in ("fairness", "all"):
        result["ideally_fair"] = is_ideally_fair(matrix, query)
        result["lively_fair"] = is_lively_fair(matrix, query)
        result["cautiously_fair"] = is_cautiously_fair(matrix, query)
        report = fairness_report(matrix, query)
        result["gini_score"] = report.gini_score
        result["shannon_score"] = report.shannon_score

    if fmt == "structured":
        payload = {k: round(v, _SCORE_PLACES) if isinstance(v, float) else v for k, v in result.items()}
        if report is not None:
            payload["fairness_report"] = report_to_dict(report)
        click.echo(json.dumps(payload, indent=2))
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
            click.echo(f"{name}{sep}{v}")


@main.command()
@click.argument("qbag_path")
@click.option("--argument", "argument_id", required=True, help="Argument whose strength varies.")
@click.option("--from", "start", required=True, type=float)
@click.option("--to", "stop", required=True, type=float)
@click.option(
    "--steps", required=True, type=int, help=f"Number of grid points, 1 to {MAX_SWEEP_STEPS}."
)
@click.option("--out", "out_path", default=None, help="Write the chain document here instead of stdout.")
@click.option("--csv", "as_csv", is_flag=True, help="Evaluate the sweep and print the strength CSV.")
@_semantics_option
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
        matrix = evaluate_chain(chain, sem)
        click.echo(export_strengths_csv(matrix), nl=False)
        return
    document = serialize_chain(chain)
    if out_path is None:
        click.echo(document, nl=False)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as out:
                for offset in range(0, len(document), _WRITE_SLICE):
                    out.write(document[offset : offset + _WRITE_SLICE])
        except OSError as exc:
            _fail(f"cannot write {out_path}: {exc}")
        click.echo(f"wrote {out_path}")


@main.command()
@click.argument("chain_path")
@_topics_option
@click.option("--threshold", required=True, type=float)
@_semantics_option
def curve(chain_path: str, topics: str, threshold: float, semantics_name: str) -> None:
    """Print the safety-curve / fairness-line breakpoints as CSV."""
    matrix, query = _query(chain_path, topics, threshold, semantics_name)
    click.echo(export_curve_csv(fairness_report(matrix, query)), nl=False)


if __name__ == "__main__":
    main()
