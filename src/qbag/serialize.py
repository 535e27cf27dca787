"""Document serialization and CSV export.

Graphs and chains travel as JSON envelopes::

    {"format_version": "1", "kind": "qbag",
     "arguments": [{"id": "a", "initial": 0.5}, ...],
     "attacks":  [["d", "a"], ...],
     "supports": [["c", "a"], ...]}

    {"format_version": "1", "kind": "chain",
     "steps": [<qbag payload>, ...]}

where a step payload repeats the arguments/attacks/supports keys without
its own envelope.  Edge pairs are [source, target].  Serialization is
canonical: keys in a fixed order, arguments and edges sorted, numbers in
their shortest exact decimal form, so equal values always serialize to
identical bytes.  parse(serialize(v)) returns a structurally equal value.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .analysis import FairnessReport
from .chain import Chain, StrengthMatrix, build_chain
from .errors import DocumentError, EmptyChain, QbagError, StrengthOutOfRange
from .graph import QBAG, build_qbag

FORMAT_VERSION = "1"
_TOP_LEVEL_KEYS = {
    "qbag": {"format_version", "kind", "arguments", "attacks", "supports"},
    "chain": {"format_version", "kind", "steps"},
}


# -- parsing ---------------------------------------------------------------


def _load_document(text: str, expected_kind: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("document nested too deeply") from None
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise DocumentError(f"unreadable value: {exc}") from None
    if not isinstance(data, dict):
        raise DocumentError("document root must be an object")
    if "format_version" not in data:
        raise DocumentError("missing format_version")
    if data["format_version"] != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {data['format_version']!r} "
            f"(supported: {FORMAT_VERSION!r})"
        )
    kind = data.get("kind")
    if kind not in ("qbag", "chain"):
        raise DocumentError(f"unknown kind {kind!r}")
    if kind != expected_kind:
        raise DocumentError(f"expected kind {expected_kind!r}, found {kind!r}")
    unknown = sorted(set(data) - _TOP_LEVEL_KEYS[kind])
    if unknown:
        raise DocumentError(f"unknown top-level keys: {unknown}")
    return data


def _parse_edges(payload: dict, key: str, path: str) -> list[tuple[str, str]]:
    raw = payload.get(key)
    if not isinstance(raw, list):
        raise DocumentError(f"{path}{key}: expected a list")
    edges = []
    for i, pair in enumerate(raw):
        where = f"{path}{key}[{i}]"
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(e, str) for e in pair)
        ):
            raise DocumentError(f"{where}: expected a [source, target] pair of ids")
        edges.append((pair[0], pair[1]))
    return edges


def _parse_qbag_payload(payload: dict, path: str = "") -> QBAG:
    raw_args = payload.get("arguments")
    if not isinstance(raw_args, list):
        raise DocumentError(f"{path}arguments: expected a list")
    args = []
    for i, entry in enumerate(raw_args):
        where = f"{path}arguments[{i}]"
        if not isinstance(entry, dict) or "id" not in entry or "initial" not in entry:
            raise DocumentError(f"{where}: expected an object with id and initial")
        initial = entry["initial"]
        if isinstance(initial, bool) or not isinstance(initial, (int, float)):
            raise DocumentError(f"{where}.initial: expected a number")
        if not 0.0 <= initial <= 1.0:  # compared before float() can overflow
            raise StrengthOutOfRange(f"{where}.initial: {initial!r} outside [0, 1]")
        args.append((entry["id"], float(initial)))
    attacks = _parse_edges(payload, "attacks", path)
    supports = _parse_edges(payload, "supports", path)
    try:
        return build_qbag(args, attacks=attacks, supports=supports)
    except QbagError as exc:
        # duplicate ids, dangling endpoints, relation overlap: keep the
        # specific error type, prefix the document location
        where = path.rstrip(".") or "document"
        raise type(exc)(f"{where}: {exc}") from None


def parse_qbag(text: str) -> QBAG:
    """Parse and validate a qbag document."""
    data = _load_document(text, "qbag")
    return _parse_qbag_payload(data)


def parse_chain(text: str) -> Chain:
    """Parse and validate a chain document."""
    data = _load_document(text, "chain")
    steps = data.get("steps")
    if not isinstance(steps, list):
        raise DocumentError("steps: expected a list")
    if not steps:
        raise EmptyChain("chain document has zero steps")
    qbags = []
    for i, payload in enumerate(steps):
        if not isinstance(payload, dict):
            raise DocumentError(f"steps[{i}]: expected an object")
        qbags.append(_parse_qbag_payload(payload, path=f"steps[{i}]."))
    return build_chain(qbags)


# -- serialization ---------------------------------------------------------


def _qbag_payload(g: QBAG) -> dict:
    return {
        "arguments": [{"id": x, "initial": g.tau[x]} for x in sorted(g.args)],
        "attacks": [list(p) for p in sorted(g.att)],
        "supports": [list(p) for p in sorted(g.supp)],
    }


def serialize_qbag(g: QBAG) -> str:
    doc = {"format_version": FORMAT_VERSION, "kind": "qbag", **_qbag_payload(g)}
    return json.dumps(doc, indent=2) + "\n"


def serialize_chain(c: Chain) -> str:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "chain",
        "steps": [_qbag_payload(g) for g in c.steps],
    }
    return json.dumps(doc, indent=2) + "\n"


# -- CSV export ------------------------------------------------------------


def _dec12(value: float | Fraction) -> str:
    """Decimal rendering with up to 12 significant digits."""
    return format(float(value), ".12g")


def export_strengths_csv(m: StrengthMatrix) -> str:
    """Long-format trajectory table: one row per (step, argument).

    Steps are numbered from 1; arguments absent from a step contribute no
    row.  Rows are ordered by (step, argument id).
    """
    lines = ["step,argument,final_strength"]
    for i, row in enumerate(m.rows, start=1):
        for x in sorted(row.values):
            lines.append(f"{i},{x},{_dec12(row[x])}")
    return "\n".join(lines) + "\n"


def export_curve_csv(report: FairnessReport) -> str:
    """Safety curve and fairness line sampled at the integer breakpoints."""
    lines = ["x,safety_curve_y,fairness_line_y"]
    for x, y in report.curve_points:
        lines.append(f"{x},{_dec12(y)},{_dec12(report.line_slope * x)}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: FairnessReport, places: int = 5) -> dict:
    """Stable key-ordered mapping for structured output.

    Rationals are rendered as exact 'numerator/denominator' strings;
    scores are rounded to the given number of decimal places (5 by
    default, matching the precision the analysis is usually quoted at).
    """
    return {
        "exceed_counts": dict(sorted(report.exceed_counts.items())),
        "ordering": list(report.ordering),
        "curve_points": [list(p) for p in report.curve_points],
        "line_slope": str(report.line_slope),
        "gini_area": str(report.gini_area),
        "gini_score": round(report.gini_score, places),
        "p": None if report.p is None else {x: str(p) for x, p in sorted(report.p.items())},
        "base_b": report.base_b,
        "shannon_score": round(report.shannon_score, places),
    }
