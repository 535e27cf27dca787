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
from typing import Iterable, Iterator, Sequence

from .errors import CyclicGraph, EmptyChain, TopicNotInChain, UnknownArgument
from .graph import QBAG, _index, _ordered, is_sub_qbag, validate_strength
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
    base = g.tau.copy()  # a dict: merging it is fast, unlike the read-only view
    steps = []
    for v in values:
        v = validate_strength(v, owner=f"sweep value for {x!r}")
        steps.append(QBAG(args=g.args, tau={**base, x: v}, att=g.att, supp=g.supp))
    return Chain(steps=tuple(steps))


def evaluate_chain(c: Chain, sem: SemanticsDescriptor = DFQUAD) -> StrengthMatrix:
    """Evaluate every step; raises CyclicGraph naming the offending step.

    Each row is == to ``evaluate(step, sem)``, key order included, but a
    step is not always evaluated from scratch.  Its plan (adjacency index
    and topological order) is kept from the previous step while both
    share ``args``, ``att`` and ``supp`` by identity, as parsed and swept
    chains do.  When the step extends the previous one (every argument
    and edge of the previous step is still there), only the downstream
    cone of what changed is recomputed: new arguments, arguments whose
    initial strength changed (0.0 and -0.0 count as different), and
    targets of new edges.  DF-QuAD is modular, so every other argument
    keeps its previous strength exactly.  Any other step is evaluated in
    full.
    """
    rows: list[StrengthAssignment] = []
    prev: QBAG | None = None
    for i, g in enumerate(c.steps, start=1):
        shared = (
            prev is not None
            and g.args is prev.args
            and g.att is prev.att
            and g.supp is prev.supp
        )
        if not shared:
            index = _index(g)
            try:
                order = _ordered(g.args, index.successors)
            except CyclicGraph as exc:
                raise CyclicGraph(f"step {i}: {exc}") from None
        if shared or (
            prev is not None
            and prev.args <= g.args
            and prev.att <= g.att
            and prev.supp <= g.supp
        ):
            sigma = dict.fromkeys(order)
            sigma.update(rows[-1].values)
            cone = _downstream(index.successors, _changed(prev, g))
            todo = [x for x in order if x in cone]
        else:
            sigma, todo = {}, order
        rows.append(StrengthAssignment(values=_propagate(g, sem, index, todo, sigma)))
        prev = g
    return StrengthMatrix(rows=tuple(rows))


def _changed(prev: QBAG, g: QBAG) -> set[str]:
    """Arguments of g whose own inputs differ from prev, which g extends."""
    seeds = set(g.args - prev.args)
    seeds.update(t for _, t in g.att - prev.att)
    seeds.update(t for _, t in g.supp - prev.supp)
    tau = g.tau
    seeds.update(
        x
        for x, old in prev.tau.items()
        if (new := tau[x]) != old
        or (new == 0.0 and copysign(1.0, new) != copysign(1.0, old))
    )
    return seeds


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
