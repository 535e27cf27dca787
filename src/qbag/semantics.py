"""Modular gradual semantics and the DF-QuAD instance.

A modular semantics is an aggregation function (combine the final
strengths of attackers and supporters into one number) together with an
influence function (adjust an argument's initial strength by the
aggregate).  Final strengths are computed in a single pass over a
topological order, so only acyclic graphs are accepted.

DF-QuAD aggregation:  prod(1 - v) over attackers  -  prod(1 - v) over
supporters, with the empty product equal to 1.  A positive aggregate
means net support.

DF-QuAD influence:  base - base * max(0, -f) + (1 - base) * max(0, f),
a linear interpolation from the initial strength towards 0 or 1.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from .errors import StrengthOutOfRange, UnknownSemantics
from .graph import QBAG, _Index, _index, _ordered, _Record, _repr


class SemanticsDescriptor(_Record):
    """Named pair of aggregation and influence functions.

    Both must be pure functions of their arguments: the same inputs give
    the same float.  :func:`qbag.chain.evaluate_chain` relies on this when
    it carries a strength over from the previous step instead of
    recomputing it.
    """

    name: str
    aggregation: Callable[[Sequence[float], Sequence[float]], float]
    influence: Callable[[float, float], float]


class StrengthAssignment(_Record):
    """Final strength per argument of one evaluated graph.

    ``values`` is a read-only view, as ``QBAG.tau`` is.  :func:`evaluate`
    and :func:`qbag.chain.evaluate_chain` key it by ascending argument id.
    """

    values: Mapping[str, float]
    _views = ("values",)

    def __getitem__(self, x: str) -> float:
        return self.values[x]

    def __contains__(self, x: str) -> bool:
        return x in self.values

    def domain(self) -> frozenset[str]:
        return frozenset(self.values)


def dfquad_aggregation(
    attacker_values: Sequence[float], supporter_values: Sequence[float]
) -> float:
    """Attacker product minus supporter product; result lies in [-1, 1]."""
    att = 1.0
    for v in attacker_values:
        att *= 1.0 - v
    supp = 1.0
    for v in supporter_values:
        supp *= 1.0 - v
    return att - supp


def dfquad_influence(base: float, aggregate: float) -> float:
    """Move base towards 1 for positive aggregates, towards 0 for negative."""
    return base - base * max(0.0, -aggregate) + (1.0 - base) * max(0.0, aggregate)


DFQUAD = SemanticsDescriptor(
    name="dfquad",
    aggregation=dfquad_aggregation,
    influence=dfquad_influence,
)

_REGISTRY: dict[str, SemanticsDescriptor] = {DFQUAD.name: DFQUAD}


def semantics_by_name(name: str) -> SemanticsDescriptor:
    """Look up a registered semantics; raises UnknownSemantics."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownSemantics(f"unknown semantics {_repr(name)} (known: {known})") from None


def evaluate(g: QBAG, sem: SemanticsDescriptor = DFQUAD) -> StrengthAssignment:
    """Compute final strengths for an acyclic graph.

    Arguments are processed in topological order, so attacker and
    supporter strengths are final by the time they are aggregated.
    Neighbor strengths enter the aggregation in ascending id order, which
    pins down the floating-point result.  The result is keyed by
    ascending argument id.  Raises CyclicGraph for cyclic input, and
    StrengthOutOfRange if the influence function leaves [0, 1].
    """
    index = _index(g)
    order = _ordered(g.args, index.successors)
    return StrengthAssignment(
        values=_propagate(g, sem, index, order, dict.fromkeys(sorted(g.args)))
    )


def _propagate(
    g: QBAG, sem: SemanticsDescriptor, index: _Index, todo: Iterable[str], sigma: dict
) -> dict[str, float]:
    """The evaluation loop: set sigma[x] for each x of todo, in that order.

    Every in-neighbour of a listed argument must be listed before it or
    already hold its final strength in sigma.  :func:`evaluate` lists
    every argument in topological order; :func:`qbag.chain.evaluate_chain`
    lists the downstream cone of what changed since the previous step.
    Both pass a sigma whose keys are already in ascending id order, and
    setting a key keeps its place.
    """
    tau, attackers, supporters = g.tau, index.attackers, index.supporters
    aggregation, influence = sem.aggregation, sem.influence
    for x in todo:
        att_vals = [sigma[a] for a in attackers[x]]
        supp_vals = [sigma[s] for s in supporters[x]]
        value = influence(tau[x], aggregation(att_vals, supp_vals))
        if not 0.0 <= value <= 1.0:
            raise StrengthOutOfRange(
                f"semantics {sem.name!r}: influence left [0, 1]: {_repr(value)} for {x!r}"
            )
        sigma[x] = value
    return sigma
