"""Seeded generators for the benchmark's documents.

Every generator draws from a ``random.Random`` the caller seeds, so one
seed fixes every document byte for byte.  Graphs come out as plain
``Graph`` values, which the reference check in ``reference.py`` reads
without touching the library; the benchmark turns them into library values
through the public API.

Argument ids are ``a`` plus a zero-padded number, so string order (the
order DF-QuAD multiplies neighbour values in) is numeric order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

import reference


class Graph(NamedTuple):
    """One QBAG as plain data: initial strength per id, and edge lists."""

    tau: dict[str, float]
    attacks: list[tuple[str, str]]
    supports: list[tuple[str, str]]


def ids(count: int, start: int = 0) -> list[str]:
    return [f"a{i:04d}" for i in range(start, start + count)]


def random_dag(rng: random.Random, names: list[str], in_degree: float) -> Graph:
    """A DAG over the names with about ``in_degree`` incoming edges each.

    Edges run forward along a random permutation, so the graph is acyclic
    by construction.  Each argument after the first draws
    ``floor(in_degree)`` sources, plus one more with probability equal to
    the fractional part; each edge is an attack or a support with equal
    probability.
    """
    order = list(names)
    rng.shuffle(order)
    whole, frac = divmod(in_degree, 1)
    attacks: list[tuple[str, str]] = []
    supports: list[tuple[str, str]] = []
    for j in range(1, len(order)):
        k = min(j, int(whole) + (rng.random() < frac))
        for src in rng.sample(order[:j], k):
            (attacks if rng.random() < 0.5 else supports).append((src, order[j]))
    return Graph({x: rng.random() for x in names}, attacks, supports)


def sweep_values(steps: int) -> list[float]:
    """The grid ``qbag sweep --from 0 --to 1 --steps N`` walks: i / (N - 1)."""
    return [i / (steps - 1) for i in range(steps)]


def sweep_base(rng: random.Random, args: int, in_degree: float) -> tuple[Graph, str]:
    """A random DAG plus a seed-chosen argument that has outgoing edges."""
    g = random_dag(rng, ids(args), in_degree)
    sources = sorted({s for s, _ in g.attacks + g.supports})
    return g, rng.choice(sources)


def swept(g: Graph, argument: str, values: list[float]) -> list[Graph]:
    """The chain a sweep of ``argument`` over ``values`` should produce."""
    return [Graph({**g.tau, argument: v}, g.attacks, g.supports) for v in values]


def expansion_chain(
    rng: random.Random, base_args: int, steps: int, in_degree: float, new_edges: int
) -> list[Graph]:
    """Weak, normal expansion chain: each step adds one argument.

    The new argument receives ``new_edges`` edges from distinct existing
    arguments and sends none, so it never reaches an older argument.
    """
    base = random_dag(rng, ids(base_args), in_degree)
    tau, attacks, supports = dict(base.tau), list(base.attacks), list(base.supports)
    graphs = [base]
    for new in ids(steps, start=base_args):
        for src in rng.sample(sorted(tau), new_edges):
            (attacks if rng.random() < 0.5 else supports).append((src, new))
        tau[new] = rng.random()
        graphs.append(Graph(dict(tau), list(attacks), list(supports)))
    return graphs


def rewired_chain(
    rng: random.Random, args: int, steps: int, in_degree: float
) -> list[Graph]:
    """Independent random DAGs over one id set, with fresh strengths each step."""
    names = ids(args)
    return [random_dag(rng, names, in_degree) for _ in range(steps)]


# -- workloads -------------------------------------------------------------


@dataclass
class Instance:
    """Generated inputs of one workload at one seed, plus what is known true.

    ``graph`` and ``argument`` are set for the sweep workload, whose chain
    the CLI produces; the other workloads ship ``chain`` as a document.
    ``truth`` maps the ``qbag validate`` keys to their known values.
    """

    chain: list[Graph]
    topics: list[str]
    threshold: float
    graph: Graph | None = None
    argument: str | None = None
    truth: dict[str, str] | None = None


# Sizes of each workload; ``scale`` halves the mean per-graph argument
# count at 0.5 and keeps the step count, for the doubling ratios.
SIZES = {
    "sweep": {"args": 300, "in_degree": 3.0, "steps": 200},
    "expansion": {"base_args": 100, "steps": 120, "in_degree": 3.0, "new_edges": 3},
    "audit": {"args": 100, "steps": 400, "in_degree": 1.5},
}
THRESHOLD = 0.5


def generate(workload: str, seed: int, scale: float = 1.0) -> Instance:
    rng = random.Random(f"{workload}:{seed}:{scale}")
    size = SIZES[workload]
    if workload == "sweep":
        args = int(size["args"] * scale)
        g, argument = sweep_base(rng, args, size["in_degree"])
        chain = swept(g, argument, sweep_values(size["steps"]))
        return Instance(chain, sorted(g.tau)[::3], THRESHOLD, graph=g, argument=argument)
    if workload == "expansion":
        steps = size["steps"]
        # mean per-graph size is base + steps / 2; scale that, not the base
        base = round((size["base_args"] + steps / 2) * scale - steps / 2)
        chain = expansion_chain(rng, base, steps, size["in_degree"], size["new_edges"])
        truth = {"expansion": "yes", "normal": "yes", "weak": "yes"}
        return Instance(chain, sorted(chain[0].tau), THRESHOLD, truth=truth)
    if workload == "audit":
        args = int(size["args"] * scale)
        chain = rewired_chain(rng, args, size["steps"], size["in_degree"])
        truth = {"expansion": "no", "normal": "no", "weak": "no"}
        return Instance(chain, sorted(chain[0].tau), THRESHOLD, truth=truth)
    raise ValueError(f"unknown workload {workload!r}")


def self_check(inst: Instance) -> list[str]:
    """Problems with a generated instance; empty when it is as designed.

    Every step must be acyclic, every topic must occur in every step, and
    the chain's classification must be the one the instance declares.
    """
    problems = []
    for i, g in enumerate(inst.chain, start=1):
        if not reference.is_acyclic(g):
            problems.append(f"step {i} is cyclic")
        missing = set(inst.topics) - set(g.tau)
        if missing:
            problems.append(f"step {i} lacks topics {sorted(missing)[:3]}")
    if inst.truth is not None:
        found = reference.classify(inst.chain)
        if found != inst.truth:
            problems.append(f"classified {found}, declared {inst.truth}")
    return problems

