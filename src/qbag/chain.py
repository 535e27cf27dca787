"""Chains of QBAGs: dialogue sequences, their classification, and evaluation.

A chain is an ordered, non-empty sequence of graphs.  Chains are fully
general: later steps may add or drop arguments, rewire relations, or
change initial strengths.  Expansion chains (each step strictly contains
its predecessor) are a classified special case, with the normal and weak
refinements on top.
"""

from __future__ import annotations

from collections import deque
from itertools import pairwise
from math import copysign
from typing import Iterable, Iterator

from .errors import CyclicGraph, EmptyChain, StrengthOutOfRange, TopicNotInChain
from .graph import (
    QBAG,
    Edge,
    _EMPTY,
    _extend_index,
    _extension,
    _Index,
    _index,
    _ordered,
    _Record,
    _repr,
    _require_argument,
    validate_strength,
)
from .semantics import DFQUAD, SemanticsDescriptor, StrengthAssignment, _propagate, evaluate


class Chain(_Record):
    """Ordered non-empty sequence of graphs."""

    steps: tuple[QBAG, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[QBAG]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> QBAG:
        return self.steps[index]


class StrengthMatrix(_Record):
    """Final strengths per (chain position, argument).

    Row i holds the strengths of step i; its domain is exactly that
    step's argument set.  This is the raw input of every safety,
    liveness, and fairness check.
    """

    rows: tuple[StrengthAssignment, ...]

    def __init__(self, rows: tuple[StrengthAssignment, ...]) -> None:
        if not rows:
            raise EmptyChain("a strength matrix needs at least one row")
        super().__init__(rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def last(self) -> StrengthAssignment:
        return self.rows[-1]

    def universe(self) -> frozenset[str]:
        out: set[str] = set()
        for row in self.rows:
            out |= row.domain()
        return frozenset(out)

    def trajectory(self, x: str) -> tuple[float, ...]:
        """Strengths of x across all steps; x must occur in every step."""
        try:
            return tuple([row.values[x] for row in self.rows])
        except KeyError:
            i = next(i for i, row in enumerate(self.rows, start=1) if x not in row)
            raise TopicNotInChain(f"argument {_repr(x)} missing from step {i}") from None


def build_chain(qbags: Iterable[QBAG]) -> Chain:
    steps = tuple(qbags)
    if not steps:
        raise EmptyChain("a chain needs at least one graph")
    return Chain(steps=steps)


def is_expansion_chain(c: Chain) -> bool:
    """Each step is a strict sub-graph of its successor."""
    return _growth(c) is not None


def is_normal_expansion_chain(c: Chain) -> bool:
    """Expansion chain where every new relation touches a new argument."""
    growth = _growth(c)
    return growth is not None and not any(
        s in old and t in old for old, new_edges in growth for s, t in new_edges
    )


def is_weak_expansion_chain(c: Chain) -> bool:
    """Expansion chain where no new argument reaches any old argument.

    A path from a new argument to an old one crosses an edge from a new
    argument to an old one where it first enters the old arguments.  That
    edge is new, so a pass over each step's new edges decides reachability.
    """
    growth = _growth(c)
    return growth is not None and not any(
        s not in old and t in old for old, new_edges in growth for s, t in new_edges
    )


def _growth(c: Chain) -> list[tuple[frozenset[str], frozenset[Edge]]] | None:
    """Each step's arguments with the edges its successor adds.

    None unless each step is a strict sub-graph of its successor.  Initial
    strengths are compared by value here, so 0.0 and -0.0 agree.  A step
    that adds nothing to the structure and keeps every strength equals its
    predecessor, so it is not strict.
    """
    growth = []
    for g, h in pairwise(c.steps):
        base, added = _extension(g, h.args, h.att, h.supp)
        if base is not g or not any(added) or not g.tau.items() <= h.tau.items():
            return None
        growth.append((g.args, added[1] | added[2]))
    return growth


def common_arguments(c: Chain) -> set[str]:
    """Arguments present in every step of the chain."""
    steps = iter(c.steps)
    common = set(next(steps).args)
    for g in steps:
        common &= g.args
    return common


def sweep_chain(g: QBAG, x: str, values: Iterable[float]) -> Chain:
    """Copies of g that differ only in the initial strength of x.

    Step i sets tau(x) to values[i]; everything else is untouched.
    """
    _require_argument(g, x)
    values = list(values)
    if not values:
        raise EmptyChain("a sweep needs at least one strength value")
    base = g.tau.copy()  # a dict: merging it is fast, unlike the read-only view
    steps = []
    for v in values:
        v = validate_strength(v, owner=f"sweep value for {x!r}")
        steps.append(QBAG._owning(g.args, {**base, x: v}, g.att, g.supp))
    return Chain(steps=tuple(steps))


def _plans(steps: Iterable[QBAG]) -> Iterator[tuple[QBAG, QBAG, _Index, set[str]]]:
    """Each step with the step it extends, its index, and the arguments it changed.

    Every step extends the graph :func:`graph._extension` gives: the
    previous step when it keeps every argument and edge of it, whose index
    is then extended in place, and otherwise the empty graph ``_EMPTY``,
    from a fresh index.  The changed arguments are those whose in-edges
    changed: all of a rebuilt step's, none of a step that shares its
    predecessor's structure.  They seed the step's walk: ``_ordered`` of
    them orders them and everything they reach.
    """
    prev = _EMPTY
    for g in steps:
        base, added = _extension(prev, g.args, g.att, g.supp)
        if base is _EMPTY:  # one sort per list beats an insort per edge
            index, changed = _index(g), set(g.args)
        else:
            changed = _extend_index(index, *added)
        yield g, base, index, changed
        prev = g


def _validated(steps: Iterable[QBAG]) -> tuple[list[bool], list[bool]]:
    """Each step's acyclicity, and whether the chain is an expansion, normal and weak one.

    One pass over the step plans, holding only the last step.  Each
    consecutive pair is classified by the public classifiers.  Each class
    is decided pair by pair, so the chain is in it exactly when every pair
    is, and a chain of one step is in every class.  A class a pair is not
    in is not asked of the pairs after it.  A step can only close a cycle
    through an argument whose in-edges it changed, so one ``_ordered``
    walk from those arguments checks it.  The empty graph is acyclic, and
    a step that extends a cyclic one keeps its cycle.
    """
    classes = [is_expansion_chain, is_normal_expansion_chain, is_weak_expansion_chain]
    kinds = [True] * len(classes)
    verdicts: list[bool] = []
    prev = None
    for g, base, index, changed in _plans(steps):
        if prev is not None:
            pair = Chain(steps=(prev, g))
            kinds = [kind and is_kind(pair) for kind, is_kind in zip(kinds, classes)]
        acyclic = base is _EMPTY or verdicts[-1]
        if acyclic and changed:
            try:
                _ordered(changed, index.successors)
            except CyclicGraph:
                acyclic = False
        verdicts.append(acyclic)
        prev = g
    return verdicts, kinds


def evaluate_chain(steps: Iterable[QBAG], sem: SemanticsDescriptor = DFQUAD) -> StrengthMatrix:
    """Evaluate every step of a chain, or of any iterable of graphs.

    Raises EmptyChain when there is no step, and CyclicGraph naming the
    offending step.  Each row is == to ``evaluate(step, sem)`` and, like
    it, keyed by ascending argument id.  Every step extends a step it
    contains (see :func:`_plans`): the previous step while every argument
    and edge of it is still there, and the empty graph otherwise.  One
    ``_ordered`` walk orders what changed and everything it reaches, and
    only those are recomputed.  What changed is the new arguments, the
    arguments whose initial strength changed (0.0 and -0.0 count as
    different), and the targets of new edges.  DF-QuAD is modular,
    so every other argument keeps its previous strength exactly.  A
    rebuilt step changes all of its arguments and is evaluated in full.
    CyclicGraph and StrengthOutOfRange are worded as ``evaluate`` words
    them for the first step that fails, and raised only after the rest
    of the input is consumed, so an error that reading a later step
    raises comes first.  Only the last step is held, besides the rows.
    """
    steps = iter(steps)
    rows: list[StrengthAssignment] = []
    sigma: dict[str, float] = {}
    for i, (g, base, index, changed) in enumerate(_plans(steps), start=1):
        # each row holds a copy, so sigma is carried from step to step;
        # new arguments need a merge that keeps the ascending key order
        if base is _EMPTY:
            sigma = {}
        if len(sigma) != len(g.args):
            sigma = dict.fromkeys(sorted(g.args)) | sigma
        try:
            _propagate(g, sem, index, _ordered(changed | _retuned(base, g), index.successors), sigma)
        except (CyclicGraph, StrengthOutOfRange) as exc:
            error = _worded(exc, g, sem, i)
            break
        rows.append(StrengthAssignment(values=sigma))
    else:
        if not rows:
            raise EmptyChain("a chain needs at least one graph")
        return StrengthMatrix(rows=tuple(rows))
    deque(steps, maxlen=0)  # read the rest: its errors come first
    raise error


def _worded(exc: Exception, g: QBAG, sem: SemanticsDescriptor, i: int) -> Exception:
    """The error of step i as evaluate words it; the walk's order is not a slice of the step's."""
    try:
        evaluate(g, sem)
    except CyclicGraph as cycle:
        return CyclicGraph(f"step {i}: {cycle}")
    except StrengthOutOfRange as out:
        return out
    return exc


def _retuned(prev: QBAG, g: QBAG) -> set[str]:
    """Arguments of prev whose initial strength g changes; 0.0 and -0.0 differ."""
    old, new = prev.tau, g.tau
    if old.items() <= new.items() and 0.0 not in old.values():
        return set()
    return {
        x
        for x, v in old.items()
        if (w := new[x]) != v or (w == 0.0 and copysign(1.0, w) != copysign(1.0, v))
    }
