"""Document serialization and CSV export.

Graphs and chains travel as JSON envelopes::

    {"format_version": "1", "kind": "qbag",
     "arguments": [{"id": "a", "initial": 0.5}, ...],
     "attacks":  [["d", "a"], ...],
     "supports": [["c", "a"], ...]}

    {"format_version": "1", "kind": "chain",
     "steps": [<qbag payload>, ...]}

where a step payload repeats the arguments/attacks/supports keys without
its own envelope.  Edge pairs are [source, target].  Unknown keys are
rejected at every level.  Serialization is canonical: the bytes are those
of json.dumps(doc, indent=2) plus a newline, with keys in a fixed order,
arguments and edges sorted, strings ASCII-escaped and numbers in their
shortest round-trip form, so equal values always serialize to identical
bytes.  parse(serialize(v)) returns a structurally equal value.

A chain document in that canonical layout is decoded block by block:
the envelope and key lines are matched as text, each step's values are
decoded on their own, and a relation block that repeats the previous
step's text is not decoded again.  Any other valid JSON, and any document
with an error, goes through json.loads of the whole text; it parses to
the same value or raises the same error.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .analysis import FairnessReport
from .chain import Chain, StrengthMatrix, build_chain
from .errors import DocumentError, EmptyChain, QbagError, StrengthOutOfRange
from .graph import QBAG, Edge, _extend_qbag, build_qbag

FORMAT_VERSION = "1"
# decimal places of the gradual fairness scores in every rendered report
_SCORE_PLACES = 5
_TOP_LEVEL_KEYS = {
    "qbag": {"format_version", "kind", "arguments", "attacks", "supports"},
    "chain": {"format_version", "kind", "steps"},
}
_STEP_KEYS = {"arguments", "attacks", "supports"}
_ARGUMENT_KEYS = {"id", "initial"}


# -- parsing ---------------------------------------------------------------


def _reject_unknown_keys(obj: dict, allowed: set[str], label: str) -> None:
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise DocumentError(f"{label}: {unknown}")


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
    if type(data) is not dict:
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
    _reject_unknown_keys(data, _TOP_LEVEL_KEYS[kind], "unknown top-level keys")
    return data


def _parse_edges(raw: object, where: str) -> list[tuple[str, str]]:
    if type(raw) is not list:
        raise DocumentError(f"{where}: expected a list")
    for i, pair in enumerate(raw):
        if (
            type(pair) is not list
            or len(pair) != 2
            or type(pair[0]) is not str
            or type(pair[1]) is not str
        ):
            raise DocumentError(f"{where}[{i}]: expected a [source, target] pair of ids")
    return list(map(tuple, raw))


class _Step(NamedTuple):
    """A parsed step plus the raw structure it was validated from."""

    ids: list
    attacks: object
    supports: object
    graph: QBAG


def _parse_payload(payload: dict, path: str, previous: _Step | None = None) -> _Step:
    """Check one graph payload; build_qbag holds the id and relation rules.

    A step whose ids and raw edge lists are == to the previous step's
    passes those rules exactly when the previous step did, so it reuses
    the previous step's validated frozensets and only reads its own
    initial strengths.  A step that contains the previous one has only
    its new ids and pairs checked, by ``graph._extend_qbag``; when that
    finds a problem, build_qbag checks the whole step and words the error.
    """
    raw_args = payload.get("arguments")
    if type(raw_args) is not list:
        raise DocumentError(f"{path}arguments: expected a list")
    ids = []
    values = []
    for i, entry in enumerate(raw_args):
        if type(entry) is not dict or "id" not in entry or "initial" not in entry:
            raise DocumentError(
                f"{path}arguments[{i}]: expected an object with id and initial"
            )
        if len(entry) != 2:
            _reject_unknown_keys(entry, _ARGUMENT_KEYS, f"{path}arguments[{i}]: unknown keys")
        initial = entry["initial"]
        if type(initial) is not float and type(initial) is not int:
            raise DocumentError(f"{path}arguments[{i}].initial: expected a number")
        if not 0.0 <= initial <= 1.0:  # compared before float() can overflow
            raise StrengthOutOfRange(
                f"{path}arguments[{i}].initial: {initial!r} outside [0, 1]"
            )
        ids.append(entry["id"])
        values.append(initial)
    raw_att = payload.get("attacks")
    raw_supp = payload.get("supports")
    if (
        previous is not None
        and ids == previous.ids
        and raw_att == previous.attacks
        and raw_supp == previous.supports
    ):
        g = previous.graph
        ids = previous.ids  # every step keys its strengths by the same id strings
        tau = dict(zip(ids, map(float, values)))
        return _Step(ids, raw_att, raw_supp, QBAG(g.args, tau, g.att, g.supp))
    attacks = _parse_edges(raw_att, f"{path}attacks")
    supports = _parse_edges(raw_supp, f"{path}supports")
    g = None
    if previous is not None:
        g = _extend_qbag(previous.graph, ids, values, attacks, supports)
    if g is None:
        try:
            g = build_qbag(zip(ids, values), attacks=attacks, supports=supports)
        except QbagError as exc:
            # duplicate ids, dangling endpoints, relation overlap: keep the
            # specific error type, prefix the document location
            where = path.rstrip(".") or "document"
            raise type(exc)(f"{where}: {exc}") from None
    return _Step(ids, raw_att, raw_supp, g)


def parse_qbag(text: str) -> QBAG:
    """Parse and validate a qbag document."""
    data = _load_document(text, "qbag")
    return _parse_payload(data, "").graph


def parse_chain(text: str) -> Chain:
    """Parse and validate a chain document.

    Consecutive steps with the same arguments and relations share one
    set of frozensets, as the steps of :func:`sweep_chain` do.  A step
    that extends the previous one costs what it adds: only its new ids
    and pairs are checked, and its relations reuse the previous step's
    pair tuples.

    A document in the canonical layout is decoded step by step, each
    distinct relation block once.  Any other document, and any document
    with an error, is parsed whole by ``json.loads``; that path gives the
    same value, and reports the first error in the documented precedence.
    """
    try:
        return _build_chain(_canonical_steps(text))
    except Exception:  # off the layout or invalid: the general path decides
        pass
    data = _load_document(text, "chain")
    steps = data.get("steps")
    if type(steps) is not list:
        raise DocumentError("steps: expected a list")
    if not steps:
        raise EmptyChain("chain document has zero steps")
    return _build_chain(steps)


def _build_chain(payloads: Iterable[object]) -> Chain:
    qbags = []
    step = None
    for i, payload in enumerate(payloads):
        if type(payload) is not dict:
            raise DocumentError(f"steps[{i}]: expected an object")
        _reject_unknown_keys(payload, _STEP_KEYS, f"steps[{i}]: unknown keys")
        step = _parse_payload(payload, f"steps[{i}].", step)
        qbags.append(step.graph)
    return build_chain(qbags)


# The text around the values of a canonical chain document; serialize_chain
# writes the envelope and step separators from the same constants.
_CHAIN_OPEN = '{\n  "format_version": "1",\n  "kind": "chain",\n  "steps": [\n'
_STEP_OPEN = '    {\n      "arguments": '
_ATTACKS_KEY = ',\n      "attacks": '
_SUPPORTS_KEY = ',\n      "supports": '
_STEP_CLOSE = "\n    }"
_STEP_SEPARATOR = ",\n"
_CHAIN_CLOSE = "\n  ]\n}\n"
_decode = json.JSONDecoder().raw_decode


class _OffLayout(Exception):
    """The text leaves the canonical layout of a chain document."""


def _skip(text: str, pos: int, literal: str) -> int:
    if not text.startswith(literal, pos):
        raise _OffLayout(pos)
    return pos + len(literal)


def _relation_at(text: str, pos: int, last: tuple) -> tuple[tuple, int]:
    """The (value, text) of the relation block at pos, and the position after it.

    A block whose text repeats the last one's is not decoded again, so
    both steps get the same list object.
    """
    block = last[1]
    if block is not None and text.startswith(block, pos):
        return last, pos + len(block)
    value, end = _decode(text, pos)
    return (value, text[pos:end]), end


def _canonical_steps(text: str) -> Iterator[dict]:
    """The step payloads of a chain document in the canonical layout.

    The envelope and the key lines are matched as literal text and only
    the values between them are decoded, one step at a time, so the whole
    document is never held as one tree.  Raises _OffLayout at the first
    byte outside the layout; a JSON value in a step is decoded as
    ``json.loads`` would decode it, whatever its own layout.
    """
    pos = _skip(text, 0, _CHAIN_OPEN)
    att = supp = (None, None)  # (value, text) of the last block read
    while True:
        arguments, pos = _decode(text, _skip(text, pos, _STEP_OPEN))
        att, pos = _relation_at(text, _skip(text, pos, _ATTACKS_KEY), att)
        supp, pos = _relation_at(text, _skip(text, pos, _SUPPORTS_KEY), supp)
        pos = _skip(text, pos, _STEP_CLOSE)
        yield {"arguments": arguments, "attacks": att[0], "supports": supp[0]}
        if not text.startswith(_STEP_SEPARATOR, pos):
            break
        pos += len(_STEP_SEPARATOR)
    if _skip(text, pos, _CHAIN_CLOSE) != len(text):
        raise _OffLayout(pos)


# -- serialization ---------------------------------------------------------
#
# The canonical layout is what json.dumps(doc, indent=2) produces, written
# directly: CPython's indenting encoder is pure Python and slow.

_string = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def _number(value: object) -> str:
    """A number exactly as json.dumps renders it."""
    if type(value) is float and -_INFINITY < value < _INFINITY:
        return float.__repr__(value)
    return json.dumps(value)


def _block(items: list[str], pad: str) -> str:
    """A JSON list of pre-rendered items under a key indented by pad."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def _relation(relation: frozenset[Edge], pad: str, rendered: dict) -> str:
    text = rendered.get(relation)
    if text is None:
        head = f"{pad}  [\n{pad}    "
        middle = f",\n{pad}    "
        tail = f"\n{pad}  ]"
        text = _block(
            [head + _string(s) + middle + _string(t) + tail for s, t in sorted(relation)],
            pad,
        )
        rendered[relation] = text
    return text


def _payload(g: QBAG, pad: str, rendered: dict, parts: list[str]) -> None:
    """Append the arguments/attacks/supports keys of one graph, indented by pad.

    ``rendered`` maps each relation already written in this call to its
    text, and each argument id to the text before its strength, so the
    steps of a sweep render their shared edges and ids once.
    """
    parts.append(f'{pad}"arguments": ')
    args = sorted(g.args)
    if args:
        head = f'{pad}  {{\n{pad}    "id": '
        middle = f',\n{pad}    "initial": '
        separator = f"\n{pad}  }},\n"
        tau = g.tau
        parts.append("[\n")
        for x in args:
            lead = rendered.get(x)
            if lead is None:
                lead = rendered[x] = head + _string(x) + middle
            parts += (lead, _number(tau[x]), separator)
        parts[-1] = f"\n{pad}  }}\n{pad}]"
    else:
        parts.append("[]")
    parts += (
        f',\n{pad}"attacks": ',
        _relation(g.att, pad, rendered),
        f',\n{pad}"supports": ',
        _relation(g.supp, pad, rendered),
    )


def _envelope(kind: str) -> str:
    return f'{{\n  "format_version": {_string(FORMAT_VERSION)},\n  "kind": {_string(kind)},\n'


def serialize_qbag(g: QBAG) -> str:
    parts = [_envelope("qbag")]
    _payload(g, "  ", {}, parts)
    parts.append("\n}\n")
    return "".join(parts)


def serialize_chain(c: Chain) -> str:
    """The chain document, built as one list of parts and joined once."""
    rendered: dict = {}
    parts = [_CHAIN_OPEN]
    for g in c.steps:
        parts.append("    {\n")
        _payload(g, "      ", rendered, parts)
        parts += (_STEP_CLOSE, _STEP_SEPARATOR)
    parts[-1] = _CHAIN_CLOSE  # a chain has at least one step
    return "".join(parts)


# -- CSV export ------------------------------------------------------------


def _dec12(value: float | Fraction) -> str:
    """Decimal rendering with up to 12 significant digits."""
    return format(float(value), ".12g")


def export_strengths_csv(m: StrengthMatrix) -> str:
    """Long-format trajectory table: one row per (step, argument).

    Steps are numbered from 1; arguments absent from a step contribute no
    row.  Rows follow the step, then the row's key order, which is
    ascending argument id for every matrix :func:`evaluate_chain` returns.
    """
    lines = ["step,argument,final_strength"]
    for i, row in enumerate(m.rows, start=1):
        for x, v in row.values.items():
            lines.append(f"{i},{x},{_dec12(v)}")
    return "\n".join(lines) + "\n"


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
