"""Document serialization.

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
the envelope and key lines are matched as text, and each block is walked
against the same block of the previous step.  It decodes only the entries
it inserts or changes, the text it keeps costs compares in C and no work
per entry, and a block that repeats the previous step's text is not
decoded at all.  The text may come in chunks, such as the reads of a
file; the decoder then holds only the whole steps read so far.  Any
other valid JSON, and any document with an error, goes through
json.loads of the whole text; it parses to the same value or raises the
same error.  Both readers check a step's entries and pairs by the same
rules, and one builder makes every step an extension of the previous
step or of the empty graph.  Likewise, a chain document is written a
step at a time, and a step as the same extension: only what it adds,
and the strengths that changed, are rendered.

This module holds the document checks, the entry checkers, the step
builder and the layout's text.  The canonical decoder is
``qbag._chain_reader`` and the writer ``qbag._chain_writer``; each is
imported by the first call that reads or writes a chain, so a call that
does neither compiles neither.  The CSV tables and the report mapping
are made in ``qbag.export``; its public functions are importable from
here as well, and importing one of them imports that module.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import DocumentError, EmptyChain, QbagError, StrengthOutOfRange
from .graph import _EMPTY, QBAG, Edge, _extend_qbag, build_qbag

if TYPE_CHECKING:
    from .chain import Chain

FORMAT_VERSION = "1"
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


def _parse_edges(raw: object, where: str = "") -> list[tuple[str, str]]:
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


def _arguments(raw: object, path: str) -> list[tuple[object, int | float]]:
    """The (id, initial) of each argument entry; raises at the first bad entry.

    An entry is an object with exactly the keys id and initial, and an
    int or float initial in [0, 1].  The step builder checks the ids.
    """
    if type(raw) is not list:
        raise DocumentError(f"{path}arguments: expected a list")
    entries = []
    for i, entry in enumerate(raw):
        if type(entry) is not dict or "id" not in entry or "initial" not in entry:
            raise DocumentError(f"{path}arguments[{i}]: expected an object with id and initial")
        if len(entry) != 2:
            _reject_unknown_keys(entry, _ARGUMENT_KEYS, f"{path}arguments[{i}]: unknown keys")
        initial = entry["initial"]
        if type(initial) is not float and type(initial) is not int:
            raise DocumentError(f"{path}arguments[{i}].initial: expected a number")
        if not 0.0 <= initial <= 1.0:  # compared before float() can overflow
            raise StrengthOutOfRange(f"{path}arguments[{i}].initial: {initial!r} outside [0, 1]")
        entries.append((entry["id"], initial))
    return entries


def _payload_parts(payload: dict, path: str) -> tuple[list, list[Edge], list[Edge]]:
    """The checked argument entries, attacks and supports of one graph payload."""
    return (
        _arguments(payload.get("arguments"), path),
        _parse_edges(payload.get("attacks"), f"{path}attacks"),
        _parse_edges(payload.get("supports"), f"{path}supports"),
    )


class _Step(NamedTuple):
    """A built step plus the ids and pair lists it was built from."""

    ids: Sequence
    attacks: list[Edge]
    supports: list[Edge]
    graph: QBAG


def _step(previous, path, entries, attacks, supports) -> _Step:
    """One step from its checked argument entries and pair lists.

    A step whose ids and pair lists are == to the previous step's passes
    every rule exactly when the previous step did, so it reuses the
    previous step's frozensets and only reads its own initial strengths.
    Any other step is built by ``graph._extend_qbag``, which extends the
    previous step when the step contains it and the empty graph
    otherwise, as evaluation does.  When the step breaks a rule,
    build_qbag words the error; a valid step never reaches it.
    """
    ids, values = zip(*entries) if entries else ((), ())
    if previous is not None and ids == previous.ids:
        ids = previous.ids  # every step keys its strengths by the same id strings
        if attacks == previous.attacks and supports == previous.supports:
            g = previous.graph
            tau = dict(zip(ids, map(float, values)))
            return _Step(ids, attacks, supports, QBAG(g.args, tau, g.att, g.supp))
    g = _extend_qbag(_EMPTY if previous is None else previous.graph, ids, values, attacks, supports)
    if g is None:
        try:
            g = build_qbag(zip(ids, values), attacks, supports)
        except QbagError as exc:
            # keep the specific error type, prefix the document location
            where = path.rstrip(".") or "document"
            raise type(exc)(f"{where}: {exc}") from None
    return _Step(ids, attacks, supports, g)


def _parse_steps(steps: Iterable[tuple[list, list[Edge], list[Edge]]]) -> Chain:
    """The chain of each step's checked parts, from either reader of chain documents."""
    from .chain import build_chain

    qbags = []
    step = None
    for i, parts in enumerate(steps):
        step = _step(step, f"steps[{i}].", *parts)
        qbags.append(step.graph)
    return build_chain(qbags)


def parse_qbag(text: str) -> QBAG:
    """Parse and validate a qbag document."""
    data = _load_document(text, "qbag")
    return _step(None, "", *_payload_parts(data, "")).graph


def parse_chain(text: str) -> Chain:
    """Parse and validate a chain document.

    Consecutive steps with the same arguments and relations share one
    set of frozensets, as the steps of :func:`sweep_chain` do.  Every
    other step is built as an extension, as evaluation treats it: of the
    previous step when it contains that step, at the cost of what it
    adds and keeping the previous step's pair tuples, and of the empty
    graph otherwise.  A canonical document is decoded block by block, as
    the module docstring says; any other document, and any document with
    an error, is parsed whole by ``json.loads``, which gives the same
    value or the first error in the documented precedence.
    """
    from ._chain_reader import _canonical_steps

    try:
        return _parse_steps(_canonical_steps((text,)))
    except Exception:  # off the layout or invalid: the general path decides
        pass
    return _parse_steps(_document_steps(text))


def _document_steps(text: str) -> Iterator[tuple[list, list[Edge], list[Edge]]]:
    """The checked parts of each step of a chain document that json.loads decodes whole."""
    steps = _load_document(text, "chain").get("steps")
    if type(steps) is not list:
        raise DocumentError("steps: expected a list")
    if not steps:
        raise EmptyChain("chain document has zero steps")
    for i, payload in enumerate(steps):
        if type(payload) is not dict:
            raise DocumentError(f"steps[{i}]: expected an object")
        _reject_unknown_keys(payload, _STEP_KEYS, f"steps[{i}]: unknown keys")
        yield _payload_parts(payload, f"steps[{i}].")


# The text around the values of a canonical chain document: the decoder
# matches it, and the writer writes the envelope and step separators from it.
_CHAIN_OPEN = '{\n  "format_version": "1",\n  "kind": "chain",\n  "steps": [\n'
_STEP_BRACE = "    {\n"
_STEP_OPEN = _STEP_BRACE + '      "arguments": '
_ATTACKS_KEY = ',\n      "attacks": '
_SUPPORTS_KEY = ',\n      "supports": '
_STEP_CLOSE = "\n    }"
_STEP_SEPARATOR = ",\n"
_CHAIN_CLOSE = "\n  ]\n}\n"


def serialize_qbag(g: QBAG) -> str:
    """The qbag document: the extension of the empty graph by g."""
    from ._chain_writer import _envelope, _payloads

    parts = next(_payloads((g,), "  ", "\n}\n"))
    parts[0] = _envelope("qbag")
    return "".join(parts)


def serialize_chain(c: Chain) -> str:
    """The chain document, joined once from the parts of every step."""
    from ._chain_writer import _chain_parts

    parts: list[str] = []
    for step in _chain_parts(c):
        parts += step  # a list extend, cheaper per part than a chained iterator
    return "".join(parts)


_EXPORTED = ("export_curve_csv", "export_strengths_csv", "report_to_dict")


def __getattr__(name: str):
    """One of qbag.export's public functions, imported on first use."""
    if name not in _EXPORTED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import export

    value = globals()[name] = getattr(export, name)
    return value
