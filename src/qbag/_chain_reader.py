"""The canonical chain decoder: a chain document in the layout serialize_chain writes.

The envelope and key lines are matched as text, and each block is walked
against the same block of the previous step, as the comment above
``_Blocks`` says.  ``_fold`` runs a fold over the steps it decodes, from a
whole text for ``qbag.serialize.parse_chain`` and from a file read in
chunks for the command line; any document it cannot read goes to
``json.loads`` of the whole text, which decides.  Only the calls that
read a chain import this module.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator

from .serialize import (
    _CHAIN_CLOSE,
    _CHAIN_OPEN,
    _STEP_BRACE,
    _STEP_CLOSE,
    _STEP_SEPARATOR,
    _arguments,
    _document_steps,
    _graphs,
    _parse_edges,
)

_decode = json.JSONDecoder().raw_decode
# characters per read of a chain file, which is decoded a window of whole steps at a time
_READ_CHUNK = 1 << 16


class _Reread(Exception):
    """The text leaves the canonical layout, or a chunked read failed: the general path decides."""


def _skip(text: str, pos: int, literal: str) -> int:
    if not text.startswith(literal, pos):
        raise _Reread(pos)
    return pos + len(literal)


def _flat_arguments(value: object) -> list[tuple[str, int | float]]:
    """_arguments of a decoded block; the proof below also needs string ids."""
    entries = _arguments(value, "")
    if any(type(x) is not str for x, _ in entries):
        raise _Reread
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
                raise _Reread
            for at, run in reversed(spots):  # from the end, so each place stays put
                cut = len(value) - run.count(sep) - 1
                items[at:at], value[cut:] = value[cut:], []
        self.inside = new
        return items


# The text between two steps, and only there in a canonical document: a
# JSON string holds no raw newline, and a block's lines are indented further.
_STEP_BOUNDARY = _STEP_CLOSE + _STEP_SEPARATOR + _STEP_BRACE
# the key lines of a step, which the decoder matches as text
_STEP_OPEN = _STEP_BRACE + '      "arguments": '
_ATTACKS_KEY = ',\n      "attacks": '
_SUPPORTS_KEY = ',\n      "supports": '


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
        raise _Reread(pos)


def _fold(fold: Callable, chunks: Iterable[str], text: Callable[[], str]):
    """fold of the built steps of a chain document, which it consumes one at a time.

    The steps are decoded from chunks, the document's text in pieces of
    any size, and built as they come, so fold holds one window of text
    and one step.  At any failure of the read, the decode or the step
    builder, after the steps before it, fold runs again over the steps
    that json.loads of text() gives, which give the values or the error.
    An error fold raises itself is raised as it is.
    """

    def streamed():
        try:
            yield from _graphs(_canonical_steps(chunks))
        except Exception:  # off the layout, invalid or unreadable
            raise _Reread from None

    try:
        return fold(streamed())
    except _Reread:  # the general path decides
        pass
    return fold(_graphs(_document_steps(text())))
