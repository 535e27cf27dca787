"""Independent reference results the benchmark checks the CLI against.

Nothing here imports ``qbag``.  Strengths come from a plain memoised
DF-QuAD recursion, and the analysis from the definitions in the paper:
safety, liveness, the three binary fairness notions, and the Gini and
Shannon scores.  Graphs are the plain ``gen.Graph`` triples
``(tau, attacks, supports)``.

Each ``check_*`` function takes the bytes a CLI invocation printed and
returns a list of mismatches, empty when the output is correct.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from fractions import Fraction
from itertools import pairwise


# -- DF-QuAD ---------------------------------------------------------------


def strengths(g) -> dict[str, float]:
    """Final DF-QuAD strengths by recursion straight off the definition.

    Neighbour values multiply in ascending id order, which fixes the
    floating-point result.
    """
    tau, attacks, supports = g
    attackers: dict[str, list[str]] = {x: [] for x in tau}
    supporters: dict[str, list[str]] = {x: [] for x in tau}
    for s, t in attacks:
        attackers[t].append(s)
    for s, t in supports:
        supporters[t].append(s)
    sigma: dict[str, float] = {}

    def value(x: str) -> float:
        if x not in sigma:
            att = 1.0
            for a in sorted(attackers[x]):
                att *= 1.0 - value(a)
            supp = 1.0
            for s in sorted(supporters[x]):
                supp *= 1.0 - value(s)
            f = att - supp
            base = tau[x]
            sigma[x] = base - base * max(0.0, -f) + (1.0 - base) * max(0.0, f)
        return sigma[x]

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * len(tau) + 100))
    try:
        return {x: value(x) for x in sorted(tau)}
    finally:
        sys.setrecursionlimit(limit)


# -- structure -------------------------------------------------------------


def _successors(g) -> dict[str, list[str]]:
    tau, attacks, supports = g
    succ: dict[str, list[str]] = {x: [] for x in tau}
    for s, t in [*attacks, *supports]:
        succ[s].append(t)
    return succ


def is_acyclic(g) -> bool:
    """Kahn's algorithm: acyclic iff every argument gets removed."""
    succ = _successors(g)
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for t in targets:
            indegree[t] += 1
    ready = [x for x, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        x = ready.pop()
        removed += 1
        for t in succ[x]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    return removed == len(succ)


def _edges(g) -> set[tuple[str, str]]:
    return set(g[1]) | set(g[2])


def classify(chain) -> dict[str, str]:
    """Expansion, normal and weak classification as ``qbag validate`` prints it.

    Expansion: each step is a strict sub-graph of the next (arguments,
    both relations and initial strengths carry over).  Normal: every new
    edge touches a new argument.  Weak: no new argument reaches an old one.
    """
    expansion = normal = weak = True
    for g, h in pairwise(chain):
        sub = (
            set(g[0]) <= set(h[0])
            and set(g[1]) <= set(h[1])
            and set(g[2]) <= set(h[2])
            and all(g[0][x] == h[0][x] for x in g[0])
        )
        if not sub or g == h:
            expansion = False
            break
        new = set(h[0]) - set(g[0])
        if any(s not in new and t not in new for s, t in _edges(h) - _edges(g)):
            normal = False
        succ = _successors(h)
        seen, frontier = set(new), deque(new)
        while frontier:
            for t in succ[frontier.popleft()]:
                if t in g[0]:
                    weak = False
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    yesno = {True: "yes", False: "no"}
    return {
        "expansion": yesno[expansion],
        "normal": yesno[expansion and normal],
        "weak": yesno[expansion and weak],
    }


# -- analysis --------------------------------------------------------------


def analysis(rows: list[dict[str, float]], topics: list[str], t: float) -> dict:
    """Every safety, liveness and fairness quantity for one query."""
    topics = sorted(topics)
    states = {x: [row[x] >= t for row in rows] for x in topics}
    strongly = all(all(s) for s in states.values())
    weakly = all(s[-1] for s in states.values())
    fluctuations = {x: sum(a != b for a, b in pairwise(s)) for x, s in states.items()}
    some_strong = any(all(s) for s in states.values())
    some_weak = any(s[-1] for s in states.values())
    counts = {x: sum(s) for x, s in states.items()}
    ordering = sorted(topics, key=lambda x: (counts[x], x))
    curve = [(0, 0)]
    for k, x in enumerate(ordering, start=1):
        curve.append((k, curve[-1][1] + counts[x]))
    n, total = len(topics), curve[-1][1]
    # Ascending counts make the cumulative curve convex, so it never rises
    # above the chord from (0, 0) to (n, total): the area between them is
    # the triangle under the chord minus the trapezoids under the curve.
    area = Fraction(n * total, 2) - sum(
        Fraction(y0 + y1, 2) for (_, y0), (_, y1) in pairwise(curve)
    )
    if total == 0:
        p, base, shannon = None, None, 1.0
    else:
        p = {x: Fraction(counts[x], total) for x in topics}
        base = math.lcm(*(q.denominator for q in p.values()))
        shannon = 1.0
        if base > 1:
            shannon = -sum(
                float(q) * (math.log(float(q)) / math.log(base)) for q in p.values() if q
            )
    return {
        "strongly_safe": strongly,
        "weakly_safe": weakly,
        "fluctuations": fluctuations,
        "live": all(c >= 1 for c in fluctuations.values()),
        "ideally_fair": not some_strong or strongly,
        "lively_fair": not some_weak or weakly,
        "cautiously_fair": not some_strong or weakly,
        "gini_score": 2.0 / (1.0 + math.exp(-float(area))) - 1.0,
        "shannon_score": shannon,
        "exceed_counts": counts,
        "ordering": ordering,
        "curve_points": curve,
        "line_slope": Fraction(total, n),
        "gini_area": area,
        "p": p,
        "base_b": base,
    }


# -- rendering the exact outputs -------------------------------------------


def _g12(value) -> str:
    return format(float(value), ".12g")


def strengths_csv(rows: list[dict[str, float]]) -> bytes:
    lines = ["step,argument,final_strength"]
    for i, row in enumerate(rows, start=1):
        lines.extend(f"{i},{x},{_g12(v)}" for x, v in sorted(row.items()))
    return ("\n".join(lines) + "\n").encode()


def curve_csv(result: dict) -> bytes:
    slope = result["line_slope"]
    lines = ["x,safety_curve_y,fairness_line_y"]
    lines.extend(f"{x},{_g12(y)},{_g12(slope * x)}" for x, y in result["curve_points"])
    return ("\n".join(lines) + "\n").encode()


# -- checks ----------------------------------------------------------------


def _key_values(out: bytes) -> dict[str, str]:
    pairs = {}
    for line in out.decode().splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            pairs[key] = value
    return pairs


def _score_ok(expected: float, printed: float) -> bool:
    """Scores are printed rounded to 5 places; allow exactly that."""
    return abs(expected - printed) <= 0.5e-5 + 1e-12


def check_eval(out: bytes, expected: dict[str, float]) -> list[str]:
    lines = out.decode().splitlines()
    if len(lines) != 1:
        return [f"eval printed {len(lines)} lines, expected 1"]
    found = dict(item.partition("=")[::2] for item in lines[0].split(" "))
    want = {x: _g12(v) for x, v in expected.items()}
    if found != want:
        bad = sorted(x for x in want.keys() | found.keys() if found.get(x) != want.get(x))
        return [f"eval strengths differ at {bad[:5]}"]
    return []


def check_bytes(what: str, out: bytes, expected: bytes) -> list[str]:
    if out == expected:
        return []
    got, want = out.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got, want), start=1):
        if a != b:
            return [f"{what} line {i}: {a[:80]!r} != {b[:80]!r}"]
    return [f"{what}: {len(got)} lines, expected {len(want)}"]


def check_validate(out: bytes, steps: int, truth: dict[str, str]) -> list[str]:
    found = _key_values(out)
    want = {f"step {i}": "acyclic" for i in range(1, steps + 1)} | truth
    bad = sorted(k for k in want if found.get(k) != want[k])
    return [f"validate {k}: {found.get(k)!r} != {want[k]!r}" for k in bad[:5]]


def check_chain_document(text: bytes, chain) -> list[str]:
    """A written chain document holds exactly the expected steps."""
    doc = json.loads(text)
    if doc.get("format_version") != "1" or doc.get("kind") != "chain":
        return ["chain document envelope is wrong"]
    steps = doc.get("steps")
    if not isinstance(steps, list) or len(steps) != len(chain):
        return ["chain document has the wrong number of steps"]
    for i, (payload, (tau, attacks, supports)) in enumerate(zip(steps, chain), start=1):
        want = {
            "arguments": [{"id": x, "initial": tau[x]} for x in sorted(tau)],
            "attacks": [list(p) for p in sorted(attacks)],
            "supports": [list(p) for p in sorted(supports)],
        }
        if payload != want:
            return [f"chain document step {i} differs"]
    return []


def check_analyze_structured(out: bytes, expected: dict) -> list[str]:
    doc = json.loads(out)
    problems = []
    for key in (
        "strongly_safe", "weakly_safe", "live",
        "ideally_fair", "lively_fair", "cautiously_fair",
    ):
        if doc.get(key) is not expected[key]:
            problems.append(f"{key}: {doc.get(key)!r} != {expected[key]!r}")
    if doc.get("fluctuations") != expected["fluctuations"]:
        problems.append("fluctuations differ")
    report = doc.get("fairness_report", {})
    exact = {
        "exceed_counts": expected["exceed_counts"],
        "ordering": expected["ordering"],
        "curve_points": [list(p) for p in expected["curve_points"]],
        "line_slope": str(expected["line_slope"]),
        "gini_area": str(expected["gini_area"]),
        "p": None if expected["p"] is None else {x: str(q) for x, q in expected["p"].items()},
        "base_b": expected["base_b"],
    }
    problems += [f"fairness_report.{k} differs" for k, v in exact.items() if report.get(k) != v]
    for key in ("gini_score", "shannon_score"):
        for where, value in ((key, doc.get(key)), (f"fairness_report.{key}", report.get(key))):
            if not isinstance(value, float) or not _score_ok(expected[key], value):
                problems.append(f"{where}: {value!r} != {expected[key]!r}")
    return problems


def check_analyze_text(out: bytes, expected: dict) -> list[str]:
    found = _key_values(out)
    yesno = {True: "yes", False: "no"}
    want = {
        key: yesno[expected[key]]
        for key in (
            "strongly_safe", "weakly_safe", "live",
            "ideally_fair", "lively_fair", "cautiously_fair",
        )
    }
    want |= {f"fluctuations[{x}]": str(c) for x, c in expected["fluctuations"].items()}
    problems = [f"{k}: {found.get(k)!r} != {v!r}" for k, v in want.items() if found.get(k) != v]
    for key in ("gini_score", "shannon_score"):
        try:
            ok = _score_ok(expected[key], float(found[key]))
        except (KeyError, ValueError):
            ok = False
        if not ok:
            problems.append(f"{key}: {found.get(key)!r} != {expected[key]:.5f}")
    return problems[:5]
