"""CSV tables and structured output of results.

The table of strengths is produced a step at a time, and a strength that
did not change keeps its rendered line.  The curve table and the report
mapping render a gradual fairness report.  Rows and keys come in a fixed
order, so equal values always render to identical text.  The public
functions are importable from ``qbag.serialize`` as well.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from operator import is_not
from typing import Iterator

from .analysis import FairnessReport
from .chain import StrengthMatrix

# decimal places of the gradual fairness scores in every rendered report
_SCORE_PLACES = 5


def _dec12(value: float | Fraction) -> str:
    """Decimal rendering with up to 12 significant digits."""
    return format(float(value), ".12g")


def export_strengths_csv(m: StrengthMatrix) -> str:
    """Long-format trajectory table: one row per (step, argument).

    Steps are numbered from 1; arguments absent from a step contribute no
    row.  Rows follow the step, then the row's key order, which is
    ascending argument id for every matrix :func:`evaluate_chain` returns.
    """
    return "".join(_strength_rows(m))


def _strength_rows(m: StrengthMatrix) -> Iterator[str]:
    """The text of export_strengths_csv: the header, then each step's lines.

    As in ``serialize._chain_parts``, a strength that is the same object as the last
    step's keeps its rendered "x,value" line; only the others render.
    """
    yield "step,argument,final_strength\n"
    keys = values = None
    for i, row in enumerate(m.rows, start=1):
        last_values, values = values, list(row.values.values())
        if keys is not None and list(row.values) == keys:
            for j in compress(range(len(keys)), map(is_not, values, last_values)):
                cells[j] = f"{keys[j]},{_dec12(values[j])}\n"
        else:
            keys = list(row.values)
            cells = [f"{x},{_dec12(v)}\n" for x, v in zip(keys, values)]
        prefix = f"{i},"
        yield prefix + prefix.join(cells) if cells else ""


def export_curve_csv(report: FairnessReport) -> str:
    """Safety curve and fairness line sampled at the integer breakpoints."""
    lines = ["x,safety_curve_y,fairness_line_y"]
    for x, y in report.curve_points:
        lines.append(f"{x},{_dec12(y)},{_dec12(report.line_slope * x)}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: FairnessReport) -> dict:
    """Stable key-ordered mapping for structured output.

    Rationals are rendered as exact 'numerator/denominator' strings;
    scores are rounded to _SCORE_PLACES decimal places.
    """
    return {
        "exceed_counts": dict(sorted(report.exceed_counts.items())),
        "ordering": list(report.ordering),
        "curve_points": [list(p) for p in report.curve_points],
        "line_slope": str(report.line_slope),
        "gini_area": str(report.gini_area),
        "gini_score": round(report.gini_score, _SCORE_PLACES),
        "p": None if report.p is None else {x: str(p) for x, p in sorted(report.p.items())},
        "base_b": report.base_b,
        "shannon_score": round(report.shannon_score, _SCORE_PLACES),
    }
