"""Chains of QBAGs: dialogue sequences, their classification, and evaluation.

A chain is an ordered, non-empty sequence of graphs.  Chains are fully
general: later steps may add or drop arguments, rewire relations, or
change initial strengths.  Expansion chains (each step strictly contains
its predecessor) are a classified special case, with the normal and weak
refinements on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from math import copysign
from typing import Collection, Iterable, Iterator, Sequence

from .errors import CyclicGraph, EmptyChain, StrengthOutOfRange, TopicNotInChain, UnknownArgument
from .graph import (
    QBAG,
    Edge,
    _extend_index,
    _Index,
    _index,
    _ordered,
    is_sub_qbag,
    validate_strength,
)
from .semantics import DFQUAD, SemanticsDescriptor, StrengthAssignment, _propagate


@dataclass(frozen=True)
class Chain:
    """Ordered non-empty sequence of graphs."""

    steps: tuple[QBAG, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[QBAG]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> QBAG:
        return self.steps[index]


@dataclass(frozen=True)
class StrengthMatrix:
    """Final strengths per (chain position, argument).

    Row i holds the strengths of step i; its domain is exactly that
    step's argument set.  This is the raw input of every safety,
    liveness, and fairness check.
    """

    rows: tuple[StrengthAssignment, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise EmptyChain("a strength matrix needs at least one row")

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
            raise TopicNotInChain(f"argument {x!r} missing from step {i}") from None


def build_chain(qbags: Sequence[QBAG]) -> Chain:
    if not qbags:
        raise EmptyChain("a chain needs at least one graph")
    return Chain(steps=tuple(qbags))


def is_expansion_chain(c: Chain) -> bool:
    """Each step is a strict sub-graph of its successor."""
    return all(is_sub_qbag(g, h) and g != h for g, h in pairwise(c.steps))


def _new_edges(g: QBAG, h: QBAG) -> frozenset[Edge]:
    """The edges of h that g lacks, for an h that contains g."""
    return (h.att - g.att) | (h.supp - g.supp)


def is_normal_expansion_chain(c: Chain) -> bool:
    """Expansion chain where every new relation touches a new argument."""
    if not is_expansion_chain(c):
        return False
    return not any(
        s in g.args and t in g.args for g, h in pairwise(c.steps) for s, t in _new_edges(g, h)
    )


def is_weak_expansion_chain(c: Chain) -> bool:
    """Expansion chain where no new argument reaches any old argument.

    A path from a new argument to an old one crosses an edge from a new
    argument to an old one where it first enters the old arguments.  That
    edge is new, so a pass over each step's new edges decides reachability.
    """
    if not is_expansion_chain(c):
        return False
    return not any(
        s not in g.args and t in g.args
        for g, h in pairwise(c.steps)
        for s, t in _new_edges(g, h)
    )


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
    if x not in g.args:
        raise UnknownArgument(f"argument {x!r} not in graph")
    values = list(values)
    if not values:
        raise EmptyChain("a sweep needs at least one strength value")
    base = g.tau.copy()  # a dict: merging it is fast, unlike the read-only view
    steps = []
    for v in values:
        v = validate_strength(v, owner=f"sweep value for {x!r}")
        steps.append(QBAG(args=g.args, tau={**base, x: v}, att=g.att, supp=g.supp))
    return Chain(steps=tuple(steps))


def _plans(c: Chain) -> Iterator[tuple[QBAG, _Index, set[str] | None]]:
    """Each step with its adjacency index and the arguments its structure changed.

    One index serves the whole chain.  While a step contains the previous
    one (every argument and edge of it), the index is extended in place,
    and the step comes with the arguments whose in-edges changed: an
    empty set when the structure is the same.  Any other step gets a
    fresh index and None.
    """
    prev: QBAG | None = None
    for g in c.steps:
        if prev is not None and g.args is prev.args and g.att is prev.att and g.supp is prev.supp:
            changed: set[str] | None = set()
        elif (
            prev is not None
            and prev.args <= g.args
            and prev.att <= g.att
            and prev.supp <= g.supp
        ):
            changed = _extend_index(index, prev, g)
        else:
            index, changed = _index(g), None
        yield g, index, changed
        prev = g


def _is_dag(args: Collection[str], successors: dict[str, list[str]]) -> bool:
    """Whether the arguments, closed under successors, hold no cycle."""
    try:
        _ordered(args, successors)
    except CyclicGraph:
        return False
    return True


def _acyclic_steps(c: Chain) -> list[bool]:
    """``[is_acyclic(g) for g in c]``, checking each step only where it changed.

    A step that contains an acyclic predecessor can only close a cycle
    through a new edge, so only the downstream cone of the arguments
    whose in-edges changed is checked.  A step that contains a cyclic
    one keeps its cycle.
    """
    verdicts: list[bool] = []
    acyclic = True
    for g, index, changed in _plans(c):
        if changed is None:
            acyclic = _is_dag(g.args, index.successors)
        elif changed and acyclic:
            acyclic = _is_dag(_downstream(index.successors, changed), index.successors)
        verdicts.append(acyclic)
    return verdicts


def evaluate_chain(c: Chain, sem: SemanticsDescriptor = DFQUAD) -> StrengthMatrix:
    """Evaluate every step; raises CyclicGraph naming the offending step.

    Each row is == to ``evaluate(step, sem)`` and, like it, keyed by
    ascending argument id, but a step is not always evaluated from
    scratch.  While a step contains the previous one (every argument and
    edge of the previous step is still there), the adjacency index is
    extended in place, and only the downstream cone of what changed is
    ordered and recomputed: new arguments, arguments whose initial
    strength changed (0.0 and -0.0 count as different), and targets of
    new edges.  DF-QuAD is modular, so every other argument keeps its
    previous strength exactly.  Any other step is evaluated in full.
    StrengthOutOfRange names the argument that ``evaluate`` would name
    for the first step that fails.
    """
    rows: list[StrengthAssignment] = []
    prev: QBAG | None = None
    for i, (g, index, changed) in enumerate(_plans(c), start=1):
        if changed is None:
            cone, sigma = g.args, dict.fromkeys(sorted(g.args))
        else:
            cone = _downstream(index.successors, changed | _retuned(prev, g))
            last = rows[-1].values
            # a copy keeps the ascending key order; new arguments need a merge
            if len(last) == len(g.args):
                sigma = dict(last)
            else:
                sigma = dict.fromkeys(sorted(g.args)) | last
        todo = _step_order(g, cone, index.successors, i)
        try:
            values = _propagate(g, sem, index, todo, sigma)
        except StrengthOutOfRange:
            if changed is not None:
                # the cone's order is not a slice of the step's: evaluating
                # the whole step names the argument evaluate(g, sem) would
                order = _ordered(g.args, index.successors)
                _propagate(g, sem, index, order, dict.fromkeys(sorted(g.args)))
            raise
        rows.append(StrengthAssignment(values=values))
        prev = g
    return StrengthMatrix(rows=tuple(rows))


def _step_order(
    g: QBAG, cone: Collection[str], successors: dict[str, list[str]], i: int
) -> list[str]:
    """The cone of step i in topological order.

    A cycle is reported as a sort of the whole step words it, so the
    message does not depend on which cone was ordered.
    """
    try:
        return _ordered(cone, successors)
    except CyclicGraph:
        pass
    try:
        return _ordered(g.args, successors)
    except CyclicGraph as exc:
        raise CyclicGraph(f"step {i}: {exc}") from None


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


def _downstream(successors: dict[str, list[str]], seeds: set[str]) -> set[str]:
    """The seeds plus every argument they reach."""
    cone = set(seeds)
    stack = list(seeds)
    while stack:
        for y in successors[stack.pop()]:
            if y not in cone:
                cone.add(y)
                stack.append(y)
    return cone
