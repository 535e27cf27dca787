"""The step writer: graphs and chains in the canonical layout.

Each graph is rendered as an extension of the graph before it, or of
the empty graph, so a step of a chain document costs what it adds and
the strengths it changes.  ``qbag.serialize.serialize_qbag`` and
``serialize_chain``, and the command line's ``sweep``, use it.  Only the
calls that write a document import this module.
"""

from __future__ import annotations

import json
from bisect import bisect
from itertools import compress
from operator import is_not
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .graph import _EMPTY, QBAG, Edge, _added
from .serialize import _CHAIN_CLOSE, _CHAIN_OPEN, _STEP_BRACE, _STEP_CLOSE, _STEP_SEPARATOR, FORMAT_VERSION

if TYPE_CHECKING:
    from .chain import Chain

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
