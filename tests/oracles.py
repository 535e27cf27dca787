"""Independent brute-force oracles the fast paths are checked against."""

import json
import math
from itertools import pairwise

import numpy as np

from qbag import (
    DFQUAD,
    SLFQuery,
    attackers,
    fairness_line,
    is_expansion_chain,
    is_strongly_safe,
    is_weakly_safe,
    reaches,
    safety_curve,
    supporters,
)


def oracle_evaluate(g, sem=DFQUAD):
    """Memoized recursion straight off the definition; no topological sort."""
    memo = {}

    def sigma(x):
        if x not in memo:
            att_vals = [sigma(a) for a in sorted(attackers(g, x))]
            supp_vals = [sigma(s) for s in sorted(supporters(g, x))]
            memo[x] = sem.influence(g.tau[x], sem.aggregation(att_vals, supp_vals))
        return memo[x]

    return {x: sigma(x) for x in sorted(g.args)}


def weak_expansion_oracle(chain):
    """The definition read literally: one reaches() per (new, old) pair."""
    return is_expansion_chain(chain) and not any(
        reaches(h, x, y)
        for g, h in pairwise(chain.steps)
        for x in h.args - g.args
        for y in g.args
    )


def binary_fairness_oracle(m, q):
    """(ideal, lively, cautious) read literally: one singleton query per topic."""
    singles = [SLFQuery(topics=frozenset({x}), threshold=q.threshold) for x in q.topics]
    some_strong = any(is_strongly_safe(m, s) for s in singles)
    some_weak = any(is_weakly_safe(m, s) for s in singles)
    return (
        not some_strong or is_strongly_safe(m, q),
        not some_weak or is_weakly_safe(m, q),
        not some_strong or is_weakly_safe(m, q),
    )


def alternation_oracle(states):
    """Longest alternating subsequence of the state list, minus one."""
    best = 0
    lengths = []
    for i, state in enumerate(states):
        longest = 1
        for j in range(i):
            if states[j] != state:
                longest = max(longest, lengths[j] + 1)
        lengths.append(longest)
        best = max(best, longest)
    return max(best - 1, 0)


def gini_score_oracle(area):
    """The sigmoid of the exact area, as the Gini score was first written."""
    return 2.0 / (1.0 + math.exp(-float(area))) - 1.0


def shannon_score_oracle(dist):
    """The entropy loop as the Shannon score was first written: sorted, left to right."""
    if dist is None:
        return 1.0
    base = math.lcm(*(p.denominator for p in dist.values()))
    if base == 1:
        return 1.0
    log_base = math.log(base)
    entropy = 0.0
    for x in sorted(dist):
        p = dist[x]
        if p > 0:
            entropy -= float(p) * (math.log(float(p)) / log_base)
    return entropy


def trapezoid_area_oracle(m, q, points=10_000):
    """Numeric integration of |line - curve| on a dense grid."""
    curve = safety_curve(m, q)
    xs = np.array([x for x, _ in curve], dtype=float)
    ys = np.array([y for _, y in curve], dtype=float)
    slope = float(fairness_line(m, q).slope)
    grid = np.linspace(0.0, xs[-1], points)
    diff = np.abs(slope * grid - np.interp(grid, xs, ys))
    return float(np.sum((diff[:-1] + diff[1:]) * np.diff(grid)) / 2.0)


def qbag_document(g):
    """The document mapping of one graph, in canonical key and item order."""
    return {"format_version": "1", "kind": "qbag", **_payload(g)}


def chain_document(c):
    return {"format_version": "1", "kind": "chain", "steps": [_payload(g) for g in c]}


def _payload(g):
    return {
        "arguments": [{"id": x, "initial": g.tau[x]} for x in sorted(g.args)],
        "attacks": [list(p) for p in sorted(g.att)],
        "supports": [list(p) for p in sorted(g.supp)],
    }


def canonical_json(doc):
    """The canonical layout by definition: the standard library's indenting encoder."""
    return json.dumps(doc, indent=2) + "\n"
