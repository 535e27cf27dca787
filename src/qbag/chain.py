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
from typing import Iterable, Iterator, Sequence

from .errors import CyclicGraph, EmptyChain, TopicNotInChain, UnknownArgument
from .graph import QBAG, is_sub_qbag, validate_strength
from .semantics import DFQUAD, SemanticsDescriptor, StrengthAssignment, evaluate


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
        for i, row in enumerate(self.rows, start=1):
            if x not in row:
                raise TopicNotInChain(f"argument {x!r} missing from step {i}")
        return tuple(row[x] for row in self.rows)


def build_chain(qbags: Sequence[QBAG]) -> Chain:
    if not qbags:
        raise EmptyChain("a chain needs at least one graph")
    return Chain(steps=tuple(qbags))


def is_expansion_chain(c: Chain) -> bool:
    """Each step is a strict sub-graph of its successor."""
    return all(is_sub_qbag(g, h) and g != h for g, h in pairwise(c.steps))


def is_normal_expansion_chain(c: Chain) -> bool:
    """Expansion chain where every new relation touches a new argument."""
    if not is_expansion_chain(c):
        return False
    for g, h in pairwise(c.steps):
        new_args = h.args - g.args
        new_edges = (h.att | h.supp) - (g.att | g.supp)
        for s, t in new_edges:
            if s not in new_args and t not in new_args:
                return False
    return True


def is_weak_expansion_chain(c: Chain) -> bool:
    """Expansion chain where no new argument reaches any old argument.

    A path from a new argument to an old one crosses an edge from a new
    argument to an old one where it first enters the old arguments, so
    one pass over each step's edges decides reachability.
    """
    if not is_expansion_chain(c):
        return False
    return not any(
        s not in g.args and t in g.args
        for g, h in pairwise(c.steps)
        for s, t in h.att | h.supp
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
    steps = []
    for v in values:
        v = validate_strength(v, owner=f"sweep value for {x!r}")
        steps.append(QBAG(args=g.args, tau={**g.tau, x: v}, att=g.att, supp=g.supp))
    return Chain(steps=tuple(steps))


def evaluate_chain(c: Chain, sem: SemanticsDescriptor = DFQUAD) -> StrengthMatrix:
    """Evaluate every step; raises CyclicGraph naming the offending step."""
    rows = []
    for i, g in enumerate(c.steps, start=1):
        try:
            rows.append(evaluate(g, sem))
        except CyclicGraph as exc:
            raise CyclicGraph(f"step {i}: {exc}") from None
    return StrengthMatrix(rows=tuple(rows))
