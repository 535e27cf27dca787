"""Independent brute-force oracles the fast paths are checked against."""

import json
import math
from itertools import pairwise

import numpy as np

from qbag import (
    DFQUAD,
    DocumentError,
    EmptyChain,
    QbagError,
    SLFQuery,
    StrengthOutOfRange,
    attackers,
    build_chain,
    build_qbag,
    fairness_line,
    is_strongly_safe,
    is_sub_qbag,
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


def oracle_index(g):
    """(successors, attackers, supporters) of each argument, from edge scans, then sorted."""
    return (
        {x: sorted([t for s, t in g.att if s == x] + [t for s, t in g.supp if s == x])
         for x in g.args},
        {x: sorted(attackers(g, x)) for x in g.args},
        {x: sorted(supporters(g, x)) for x in g.args},
    )


def expansion_oracle(chain):
    """The definition read literally: each step a strict sub-graph of its successor."""
    return all(is_sub_qbag(g, h) and g != h for g, h in pairwise(chain.steps))


def normal_expansion_oracle(chain):
    """The definition read literally: no new edge joins two old arguments."""
    return expansion_oracle(chain) and not any(
        s in g.args and t in g.args
        for g, h in pairwise(chain.steps)
        for s, t in h.att | h.supp
        if (s, t) not in g.att and (s, t) not in g.supp
    )


def weak_expansion_oracle(chain):
    """The definition read literally: one reaches() per (new, old) pair."""
    return expansion_oracle(chain) and not any(
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


def parse_chain_oracle(text):
    """The chain parse as it was before steps reused their predecessor.

    Every step is checked in full and built by build_qbag, and no step
    shares anything with another; the checks, their order and the
    messages are those of ``qbag.serialize`` at that time.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("document nested too deeply") from None
    except ValueError as exc:
        raise DocumentError(f"unreadable value: {exc}") from None
    if type(data) is not dict:
        raise DocumentError("document root must be an object")
    if "format_version" not in data:
        raise DocumentError("missing format_version")
    if data["format_version"] != "1":
        raise DocumentError(
            f"unsupported format_version {data['format_version']!r} (supported: '1')"
        )
    kind = data.get("kind")
    if kind not in ("qbag", "chain"):
        raise DocumentError(f"unknown kind {kind!r}")
    if kind != "chain":
        raise DocumentError(f"expected kind 'chain', found {kind!r}")
    _reject_unknown_keys(data, {"format_version", "kind", "steps"}, "unknown top-level keys")
    steps = data.get("steps")
    if type(steps) is not list:
        raise DocumentError("steps: expected a list")
    if not steps:
        raise EmptyChain("chain document has zero steps")
    qbags = []
    for i, payload in enumerate(steps):
        if type(payload) is not dict:
            raise DocumentError(f"steps[{i}]: expected an object")
        allowed = {"arguments", "attacks", "supports"}
        _reject_unknown_keys(payload, allowed, f"steps[{i}]: unknown keys")
        qbags.append(_parse_payload_oracle(payload, f"steps[{i}]."))
    return build_chain(qbags)


def _reject_unknown_keys(obj, allowed, label):
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise DocumentError(f"{label}: {unknown}")


def _parse_payload_oracle(payload, path):
    raw_args = payload.get("arguments")
    if type(raw_args) is not list:
        raise DocumentError(f"{path}arguments: expected a list")
    args = []
    for i, entry in enumerate(raw_args):
        if type(entry) is not dict or "id" not in entry or "initial" not in entry:
            raise DocumentError(f"{path}arguments[{i}]: expected an object with id and initial")
        if len(entry) != 2:
            _reject_unknown_keys(entry, {"id", "initial"}, f"{path}arguments[{i}]: unknown keys")
        initial = entry["initial"]
        if type(initial) is not float and type(initial) is not int:
            raise DocumentError(f"{path}arguments[{i}].initial: expected a number")
        if not 0.0 <= initial <= 1.0:
            raise StrengthOutOfRange(f"{path}arguments[{i}].initial: {initial!r} outside [0, 1]")
        args.append((entry["id"], initial))
    relations = {}
    for name in ("attacks", "supports"):
        raw = payload.get(name)
        if type(raw) is not list:
            raise DocumentError(f"{path}{name}: expected a list")
        for i, pair in enumerate(raw):
            if (
                type(pair) is not list
                or len(pair) != 2
                or type(pair[0]) is not str
                or type(pair[1]) is not str
            ):
                raise DocumentError(f"{path}{name}[{i}]: expected a [source, target] pair of ids")
        relations[name] = [tuple(pair) for pair in raw]
    try:
        return build_qbag(args, **relations)
    except QbagError as exc:
        raise type(exc)(f"{path.rstrip('.')}: {exc}") from None
