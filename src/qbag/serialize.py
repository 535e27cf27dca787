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

The CSV tables and the report mapping are made in ``qbag.export``; its
public functions are importable from here as well.
"""

from __future__ import annotations

import json
from bisect import bisect
from itertools import compress
from operator import is_not
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .chain import Chain, build_chain
from .errors import DocumentError, EmptyChain, QbagError, StrengthOutOfRange
from .export import export_curve_csv, export_strengths_csv, report_to_dict  # noqa: F401  (public here too)
from .graph import _EMPTY, QBAG, Edge, _added, _extend_qbag, build_qbag

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


# The text around the values of a canonical chain document; serialize_chain
# writes the envelope and step separators from the same constants.
_CHAIN_OPEN = '{\n  "format_version": "1",\n  "kind": "chain",\n  "steps": [\n'
_STEP_BRACE = "    {\n"
_STEP_OPEN = _STEP_BRACE + '      "arguments": '
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


def _flat_arguments(value: object) -> list[tuple[str, int | float]]:
    """_arguments of a decoded block; the proof below also needs string ids."""
    entries = _arguments(value, "")
    if any(type(x) is not str for x, _ in entries):
        raise _OffLayout
    return entries


# _Blocks reads the successive blocks of one key.  A block that repeats the
# last one's text is the same list again.  Otherwise a block in the layout
# is walked against the last block's text.  Its pieces are the texts between
# two separators, the opener and the close counting as separators here.
# Each run of whole pieces the block keeps is taken as the last block's
# items of those pieces, counted by their separators, and only the pieces
# the block inserts or changes are decoded, all in one call.  Kept text
# costs compares, finds and counts in C, and no Python work per piece.
#
# That is exact.  Neither separator can lie inside a JSON string, which
# cannot hold a raw newline, so each brace (or bracket) of a separator is
# structure.  Decoded pieces are joined with the same separator inside one
# more pair of brackets, "[{" + pieces + "}]", and the result counts only
# if all of that text decodes to exactly one flat item per piece.  A flat
# item holds no brace or bracket but its own, and the wrappers and
# separators already open as many items as there are pieces; so no piece
# opens or closes another, each piece is the inside of exactly one item,
# and the same piece text is the same value in any block.  A piece never
# holds zero items: an empty one decodes to {} or [], which is not flat.
# Kept text equals whole pieces of the last block and runs from one
# separator to another that both blocks have at the same places, so it is
# whole pieces of the new block too, with the same items.  Only a block
# read this way is walked against; a block decoded whole counts as no
# pieces, since its pieces are not known to be its items.  A block made of
# such pieces is a JSON list of their items, and it ends where its text
# ends, since no JSON value is a proper prefix of another.
#
# A block that keeps neither the first nor the last piece of the last one
# is decoded whole, as a rewired step's blocks are: walking it would not
# pay.  Only the last piece needs the block's end, found by a scan of its
# text; a block that did not keep its predecessor's last piece is taken as
# a sign that the next one will not either, so a run of rewired blocks
# pays no scan.  A walk that meets more than _EDIT_BUDGET edits stops, and
# that block alone is decoded whole.
_EDIT_BUDGET = 8


class _Blocks:
    """The blocks of one key in successive steps; see the comment above."""

    def __init__(self, brackets: str, flat: Callable[[object], list]) -> None:
        # a block in the layout is opener + pieces joined by separator + close
        self.opener = "[\n        " + brackets[0]
        self.separator = brackets[1] + ",\n        " + brackets[0]
        self.close = brackets[1] + "\n      ]"
        self.flat = flat
        # the last block's text, its items, and the pieces they were read
        # from, each after a separator, then one more (none if decoded whole)
        self.text, self.items, self.inside = None, [], self.separator
        self.kept_tail = True

    def read(self, text: str, pos: int, follow: str) -> tuple[list, int]:
        """The items of the block at pos, and the position after it and follow."""
        last = self.text
        if last is not None and text.startswith(last, pos):
            return self.items, _skip(text, pos + len(last), follow)
        opener, separator, close = self.opener, self.separator, self.close
        items = tail = None
        if text.startswith(opener, pos):
            head = True
            if last is not None:
                # the last block's first piece with the bracket after it, and its last
                # piece with the close, also when it is the only piece
                head = text.startswith(last[: last.find(separator) + 1 or 1 - len(close)], pos)
                tail = last[last.rfind(separator) + len(separator) :]
            if head or self.kept_tail:
                end = text.find(close + follow, pos) + len(close)
                if end >= len(close) and (head or text.endswith(tail, pos, end)):
                    items = self._walk(separator + text[pos + len(opener) : end - len(close)] + separator)
        if items is None:
            value, end = _decode(text, pos)
            items = self.flat(value)
            self.inside = separator
        self.kept_tail = tail is None or text.endswith(tail, pos, end)
        self.text, self.items = text[pos:end], items
        return items, _skip(text, end, follow)

    def _walk(self, new: str) -> list | None:
        """The items of the pieces in new, or None past the edit budget.

        new has the layout of self.inside, which it replaces.  i and j are
        at the separator before a piece of each.  Each round keeps the
        longest run of whole pieces the two share there, then takes one
        edit, decided by one look-ahead: the new piece replaces the old one
        when the pieces after them agree; else the new pieces before the
        old one are inserted, if it comes later in new; else the old
        pieces before the new one are deleted, if it comes later in last;
        else the new piece replaces the old one.  The inserted and replaced
        pieces are decoded at the end, all in one call.
        """
        sep, last, old = self.separator, self.inside, self.items
        # k is the index in old of the piece after j; spots, where in items
        # each decoded run of pieces goes
        size, i, j, k, items, spots = len(sep), 0, 0, 0, [], []
        for _ in range(_EDIT_BUDGET + 1):  # a round per edit, and one to reach the end
            # the common prefix of new[i:] and last[j:] is lo long, and one hi long is not
            lo, hi = 0, min(len(new) - i, len(last) - j)
            if new.startswith(last[j : j + hi], i):
                lo = hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if new.startswith(last[j + lo : j + mid], i + lo):
                    lo = mid
                else:
                    hi = mid
            run = last.rfind(sep, j, j + lo) - j  # back to the last separator both have
            # the pieces in the run, counted by the separators on its shorter side
            if 2 * run < len(last) - j:
                kept = last.count(sep, j, j + run)
            else:
                kept = len(old) - k - last.count(sep, j + run, len(last) - size)
            items += old[k : k + kept]
            i, j, k = i + run, j + run, k + kept
            if i + size == len(new) or j + size == len(last):  # the pieces left are deleted or inserted
                break
            q, p = new.find(sep, i + size), last.find(sep, j + size)
            after = last.find(sep, p + size)
            if not (new.startswith(last[p : after + size], q) if after > 0 else q + size == len(new)):
                found = new.find(last[j : p + size], q)
                if found >= 0:  # the new pieces up to found are inserted, and j stays
                    q, p, k = found, j, k - 1
                else:
                    found = last.find(new[i : q + size], p)
                    if found >= 0:
                        k += last.count(sep, j, found)
                        j = found
                        continue
            spots.append((len(items), new[i + size : q]))
            i, j, k = q, p, k + 1
        else:
            return None
        if i + size < len(new):
            spots.append((len(items), new[i + size : -size]))
        if spots:
            joined = sep.join([run for _, run in spots])
            wrapped = f"[{sep[-1]}{joined}{sep[0]}]"
            value, end = _decode(wrapped)
            value = self.flat(value)
            if end != len(wrapped) or len(value) != joined.count(sep) + 1:
                raise _OffLayout
            for at, run in reversed(spots):  # from the end, so each place stays put
                cut = len(value) - run.count(sep) - 1
                items[at:at], value[cut:] = value[cut:], []
        self.inside = new
        return items


# The text between two steps, and only there in a canonical document: a
# JSON string holds no raw newline, and a block's lines are indented further.
_STEP_BOUNDARY = _STEP_CLOSE + _STEP_SEPARATOR + _STEP_BRACE


def _windows(chunks: Iterable[str]) -> Iterator[tuple[str, int | None]]:
    """The chunks as (text, end): text runs from the last end to the last chunk.

    end follows the last step separator in text, and is None at the end of
    the input.  Only new text is searched, and chunks wait in a list until
    it holds a boundary, so each character is copied and searched O(1) times.
    """
    pending: list[str] = []
    tail = ""
    for chunk in chunks:
        seen = tail + chunk
        tail = seen[1 - len(_STEP_BOUNDARY) :]
        pending.append(chunk)
        found = seen.rfind(_STEP_BOUNDARY)
        if found >= 0:
            text = "".join(pending)
            end = found + len(text) - len(seen) + len(_STEP_CLOSE + _STEP_SEPARATOR)
            yield text, end
            pending = [text[end:]]
    yield "".join(pending), None


def _canonical_steps(chunks: Iterable[str]) -> Iterator[tuple[list, list, list]]:
    """The argument entries, attacks and supports of each step of a canonical chain.

    The text comes in chunks of any size.  The envelope and the key lines
    are matched as literal text and only the blocks between them are
    decoded, one step at a time, so the whole document is never held as
    one tree, nor, when it comes in chunks, as one text.  Raises at the
    first byte outside the layout, and at any value that is not flat.
    """
    windows = _windows(chunks)
    text, end = next(windows)
    pos = _skip(text, 0, _CHAIN_OPEN)
    arguments = _Blocks("{}", _flat_arguments)
    attacks = _Blocks("[]", _parse_edges)
    supports = _Blocks("[]", _parse_edges)
    while True:
        entries, pos = arguments.read(text, _skip(text, pos, _STEP_OPEN), _ATTACKS_KEY)
        att, pos = attacks.read(text, pos, _SUPPORTS_KEY)
        supp, pos = supports.read(text, pos, _STEP_CLOSE)
        yield entries, att, supp
        if not text.startswith(_STEP_SEPARATOR, pos):
            break
        pos += len(_STEP_SEPARATOR)
        if pos == end:
            text, end = next(windows)
            pos = 0
    if _skip(text, pos, _CHAIN_CLOSE) != len(text) or next(windows, None) is not None:
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


def _merged(keys: list, items: list, new: Iterable, render: Callable) -> tuple[list, list]:
    """keys with the new keys in sorted place, and items with their parts at the same places.

    render gives the parts of sorted keys, as many per key as items holds.
    The runs of old keys and parts between the new ones are copied as slices.
    """
    new = sorted(new)
    rendered = render(new)
    if not keys:
        return new, rendered
    width, start = len(rendered) // len(new), 0
    merged_keys: list = []
    merged_items: list = []
    for j, key in enumerate(new):
        i = bisect(keys, key, start)
        merged_keys += keys[start:i]
        merged_keys.append(key)
        merged_items += items[width * start : width * i] + rendered[width * j : width * (j + 1)]
        start = i
    return merged_keys + keys[start:], merged_items + items[width * start :]


def _payloads(graphs: Iterable[QBAG], pad: str, end: str) -> Iterator[list[str]]:
    """The parts of the arguments/attacks/supports keys of each graph, indented by pad.

    Part 0 is left for the caller.  Then come the key, "[\n", three parts
    per argument in id order (the text before its strength, the strength,
    the text after it), a key and a block per relation, and end.  Each
    graph extends the last one or, if it drops anything, the empty graph,
    as in ``chain._plans``: only what ``graph._added`` gives is rendered,
    and a kept strength only when it is not the same object as the last
    graph's.  The same object renders the same text, while == would mix
    up 0.0 and -0.0, or 1 and 1.0.
    """
    head, middle = f'{pad}  {{\n{pad}    "id": ', f',\n{pad}    "initial": '
    separator, close = f"\n{pad}  }},\n", f"\n{pad}  }}\n{pad}]"
    pair_head, pair_middle, pair_tail = f"{pad}  [\n{pad}    ", f",\n{pad}    ", f"\n{pad}  ]"
    keys_text = f'{pad}"arguments": ', f',\n{pad}"attacks": ', f',\n{pad}"supports": '
    leads: dict[str, str] = {}  # the text before each id's strength, rendered once

    def arguments(ids: list[str]) -> list[str]:
        parts: list[str] = []
        for x in ids:
            lead = leads.get(x)
            if lead is None:
                lead = leads[x] = head + _string(x) + middle
            parts += (lead, _number(tau[x]), separator)
        return parts

    def pairs(edges: list[Edge]) -> list[str]:
        return [pair_head + _string(s) + pair_middle + _string(t) + pair_tail for s, t in edges]

    def relation(old: tuple, new: frozenset[Edge]) -> tuple[list, list, str]:
        edges, texts = _merged(old[0], old[1], new, pairs)
        return edges, texts, _block(texts, pad)

    last = None
    for g in graphs:
        tau = g.tau
        added = None if last is None else _added(last, g.args, g.att, g.supp)
        if added is None:  # the first graph, or one that drops something
            last, order, ids, args = _EMPTY, None, [], []
            attacks = supports = [], [], "[]"
            added = g.args, g.att, g.supp
        new_args, new_att, new_supp = added
        if new_args:
            ids, args = _merged(ids, args, new_args, arguments)
        if new_att:
            attacks = relation(attacks, new_att)
        if new_supp:
            supports = relation(supports, new_supp)
        # values holds the last strengths in the key order of tau, and
        # slots the index in args of each; the added ones are rendered
        if last is not _EMPTY:
            now, now_values = list(tau), list(tau.values())
            if now != order:
                rank = dict(zip(ids, range(1, len(args), 3)))
                slots = list(map(rank.__getitem__, now))
                values = list(map(last.tau.get, now, now_values))
                order = now
            for slot, value in compress(zip(slots, now_values), map(is_not, now_values, values)):
                args[slot] = _number(value)
            values = now_values
        parts = [None, keys_text[0], "[\n", *args, keys_text[1], attacks[2], keys_text[2], supports[2], end]
        parts[len(args) + 2] = close if args else "[]"  # the last separator, or "[\n"
        yield parts
        last = g


def _envelope(kind: str) -> str:
    return f'{{\n  "format_version": {_string(FORMAT_VERSION)},\n  "kind": {_string(kind)},\n'


def serialize_qbag(g: QBAG) -> str:
    """The qbag document: the extension of the empty graph by g."""
    parts = next(_payloads((g,), "  ", "\n}\n"))
    parts[0] = _envelope("qbag")
    return "".join(parts)


def serialize_chain(c: Chain) -> str:
    """The chain document, joined once from the parts of every step."""
    parts: list[str] = []
    for step in _chain_parts(c):
        parts += step  # a list extend, cheaper per part than a chained iterator
    return "".join(parts)


def _chain_parts(c: Chain) -> Iterator[list[str]]:
    """The parts of a chain document: one list per step, then the close.

    Each step is rendered as an extension of the step before it, or of
    the empty graph, as ``_payloads`` says, so a step costs what it adds
    and the strengths it changes: a step of a sweep renders one strength.
    """
    lead = _CHAIN_OPEN + _STEP_BRACE
    for parts in _payloads(c.steps, "      ", _STEP_CLOSE):
        parts[0] = lead
        yield parts
        lead = _STEP_SEPARATOR + _STEP_BRACE
    yield [_CHAIN_CLOSE]
