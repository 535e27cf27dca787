"""Safety, liveness, and fairness checks over a strength matrix.

All checks are relative to a set of topic arguments (present in every
chain step) and a threshold of justification t in [0, 1].  A step counts
as exceeding the threshold when the final strength is >= t; a strength
strictly below t counts as a below state.  Every verdict and score is a
reduction of one table of these threshold states, built once per call:
``_verdicts`` gives the binary verdicts and fluctuation counts, and
``_report`` the exceedance counts and gradual scores.

Safety:   strong = every topic stays >= t at every step;
          weak = every topic is >= t at the last step.
Liveness: every topic crosses the threshold at least once, measured by
          fluctuations (state changes between below and at-or-above).
Fairness: three binary notions conditioning set safety on singleton
          safety, plus two gradual scores.  The Gini-style score is the
          sigmoid-normalized area between the ascending cumulative curve
          of per-topic exceedance counts (a Lorenz curve on the integer
          lattice) and the straight line from (0, 0) to (|T|, sum of
          counts).  The Shannon-style score is the entropy of the
          exceedance distribution taken in base b, where b is the least
          common multiple of the probabilities' denominators.

Curve, line, area, and probability arithmetic is exact (fractions);
floating point only enters in the final sigmoid and logarithm steps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from typing import Collection, Mapping, Sequence

from .chain import StrengthMatrix
from .errors import EmptyTopicSet
from .graph import _Record, validate_strength


class SLFQuery(_Record):
    """Topic arguments plus the threshold of justification."""

    topics: frozenset[str]
    threshold: float

    def __init__(self, topics: Collection[str], threshold: float) -> None:
        if isinstance(topics, str):  # frozenset("ab") is {"a", "b"}
            raise TypeError(f"topics must be a collection of ids, not the str {topics!r}")
        topics = frozenset(topics)
        if not topics:
            raise EmptyTopicSet("query needs at least one topic argument")
        super().__init__(topics, validate_strength(threshold, owner="threshold"))

    def sorted_topics(self) -> list[str]:
        return sorted(self.topics)


class FairnessLine(_Record):
    """The straight line from (0, 0) to (|T|, sum of exceedance counts)."""

    slope: Fraction
    endpoints: tuple[tuple[int, int], tuple[int, int]]


class FairnessReport(_Record):
    """Everything the gradual fairness scores are made of.

    ``exceed_counts`` and ``p`` are read-only views.
    """

    exceed_counts: Mapping[str, int]
    ordering: tuple[str, ...]
    curve_points: tuple[tuple[int, int], ...]
    line_slope: Fraction
    gini_area: Fraction
    gini_score: float
    p: Mapping[str, Fraction] | None
    base_b: int | None
    shannon_score: float
    _views = ("exceed_counts", "p")


# -- the threshold states --------------------------------------------------


def _states(m: StrengthMatrix, q: SLFQuery) -> dict[str, list[bool]]:
    """Per topic, in sorted order, sigma >= t at each step: the one trajectory reader."""
    t = q.threshold
    return {x: [v >= t for v in m.trajectory(x)] for x in q.sorted_topics()}


def _verdicts(states: dict[str, list[bool]]) -> dict[str, dict[str, object]]:
    """Every binary verdict and the fluctuation counts, grouped by check name."""
    always = [all(s) for s in states.values()]
    final = [s[-1] for s in states.values()]
    fluctuations = {x: sum(a != b for a, b in pairwise(s)) for x, s in states.items()}
    strong, weak = all(always), all(final)
    # a topic crosses t exactly when both states occur; the set is safe exactly
    # when every singleton is, so fairness is "no singleton is safe, or the set is"
    return {
        "safety": {"strongly_safe": strong, "weakly_safe": weak},
        "liveness": {"fluctuations": fluctuations, "live": all(fluctuations.values())},
        "fairness": {
            "ideally_fair": not any(always) or strong,
            "lively_fair": not any(final) or weak,
            "cautiously_fair": not any(always) or weak,
        },
    }


# -- safety, liveness and binary fairness: fields of _verdicts -------------


def is_strongly_safe(m: StrengthMatrix, q: SLFQuery) -> bool:
    """Every topic stays at or above the threshold at every step."""
    return _verdicts(_states(m, q))["safety"]["strongly_safe"]


def is_weakly_safe(m: StrengthMatrix, q: SLFQuery) -> bool:
    """Every topic is at or above the threshold at the final step."""
    return _verdicts(_states(m, q))["safety"]["weakly_safe"]


def fluctuation_count(m: StrengthMatrix, x: str, t: float) -> int:
    """Number of threshold crossings along the chain.

    Each step is below (sigma < t) or at-or-above (sigma >= t); runs of
    equal states collapse, and the crossings between the remaining runs
    are counted.  Equivalently: the longest alternating subsequence of
    states, minus one.
    """
    return _verdicts(_states(m, SLFQuery({x}, t)))["liveness"]["fluctuations"][x]


def is_live(m: StrengthMatrix, q: SLFQuery) -> bool:
    """Every topic shows at least one fluctuation."""
    return _verdicts(_states(m, q))["liveness"]["live"]


def is_ideally_fair(m: StrengthMatrix, q: SLFQuery) -> bool:
    """If any singleton topic is strongly safe, the whole set must be."""
    return _verdicts(_states(m, q))["fairness"]["ideally_fair"]


def is_lively_fair(m: StrengthMatrix, q: SLFQuery) -> bool:
    """If any singleton topic is weakly safe, the whole set must be."""
    return _verdicts(_states(m, q))["fairness"]["lively_fair"]


def is_cautiously_fair(m: StrengthMatrix, q: SLFQuery) -> bool:
    """If any singleton topic is strongly safe, the set must be weakly safe."""
    return _verdicts(_states(m, q))["fairness"]["cautiously_fair"]


# -- gradual fairness ------------------------------------------------------


def exceed_count(m: StrengthMatrix, x: str, t: float) -> int:
    """Number of steps at which x is at or above the threshold."""
    return fairness_report(m, SLFQuery({x}, t)).exceed_counts[x]


def area_between_piecewise(
    first: Sequence[Fraction], second: Sequence[Fraction]
) -> Fraction:
    """Exact integral of |first - second| between two piecewise-linear curves.

    Both curves are given by their values at the integer breakpoints
    0..n; each unit interval is integrated in closed form, splitting at
    the interior crossing point when the difference changes sign.
    """
    total = Fraction(0)
    for k in range(len(first) - 1):
        d0 = Fraction(first[k]) - Fraction(second[k])
        d1 = Fraction(first[k + 1]) - Fraction(second[k + 1])
        if d0 * d1 >= 0:
            total += abs(d0 + d1) / 2
        else:
            r = d0 / (d0 - d1)  # crossing offset within the unit interval
            total += (abs(d0) * r + abs(d1) * (1 - r)) / 2
    return total


def shannon_base(dist: dict[str, Fraction]) -> int:
    """Least common multiple of the distribution's denominators."""
    return math.lcm(*(p.denominator for p in dist.values()))


def fairness_report(m: StrengthMatrix, q: SLFQuery) -> FairnessReport:
    """Counts, curve, line, and both gradual scores from one state pass."""
    return _report(_states(m, q))


def _report(states: dict[str, list[bool]]) -> FairnessReport:
    """The gradual fairness reduction of the state table."""
    counts = {x: sum(s) for x, s in states.items()}
    # ascending by count, ties broken by id for reproducible reports
    ordering = tuple(sorted(counts, key=lambda x: (counts[x], x)))
    curve = [(0, 0)]
    for k, x in enumerate(ordering, start=1):
        curve.append((k, curve[-1][1] + counts[x]))
    n, total = curve[-1]
    slope = Fraction(total, n)
    # The counts ascend, so the curve's rises do too: the curve is convex and
    # lies on or below its chord from (0, 0) to (n, total), the fairness line.
    # No unit interval crosses the line, so each is a trapezoid, and the area
    # is the sum of the gaps total*k/n - y_k at the breakpoints (both end gaps
    # are 0): the Fraction area_between_piecewise gives, in integers.
    area = Fraction(sum(total * k - n * y for k, y in curve), n)
    dist = base = None
    shannon = 1.0
    if total:
        dist = {x: Fraction(count, total) for x, count in counts.items()}
        base = shannon_base(dist)
        if base > 1:
            log_base = math.log(base)
            # a left-to-right loop in sorted order, not sum(): the float
            # bits must not depend on the summation algorithm
            shannon = 0.0
            for p in dist.values():
                if p > 0:
                    shannon -= float(p) * (math.log(float(p)) / log_base)
    return FairnessReport(
        exceed_counts=counts,
        ordering=ordering,
        curve_points=tuple(curve),
        line_slope=slope,
        gini_area=area,
        gini_score=2.0 / (1.0 + math.exp(-float(area))) - 1.0,
        p=dist,
        base_b=base,
        shannon_score=shannon,
    )


def safety_curve(m: StrengthMatrix, q: SLFQuery) -> list[tuple[int, int]]:
    """Integer lattice points of the ascending cumulative exceedance curve.

    Starts at (0, 0) and ends at (|T|, sum of counts); the curve itself
    is the piecewise-linear interpolation of these points.
    """
    return list(fairness_report(m, q).curve_points)


def fairness_line(m: StrengthMatrix, q: SLFQuery) -> FairnessLine:
    """The perfect-equality line joining (0, 0) and (|T|, sum of counts)."""
    report = fairness_report(m, q)
    return FairnessLine(slope=report.line_slope, endpoints=((0, 0), report.curve_points[-1]))


def gini_unnormalized(m: StrengthMatrix, q: SLFQuery) -> Fraction:
    """Exact area between the fairness line and the safety curve."""
    return fairness_report(m, q).gini_area


def gini_fairness(m: StrengthMatrix, q: SLFQuery) -> float:
    """Sigmoid-normalized area; 0 means perfect equality, values stay < 1."""
    return fairness_report(m, q).gini_score


def exceed_distribution(
    m: StrengthMatrix, q: SLFQuery
) -> dict[str, Fraction] | None:
    """Per-topic share of all threshold exceedances, in lowest terms.

    Undefined (None) when no topic ever reaches the threshold.  When
    defined the values sum to exactly 1.
    """
    p = fairness_report(m, q).p
    return None if p is None else dict(p)


def shannon_fairness(m: StrengthMatrix, q: SLFQuery) -> float:
    """Entropy of the exceedance distribution in base lcm-of-denominators.

    1 when the distribution is undefined (no exceedances at all) and when
    the base degenerates to 1 (a single topic holds every exceedance,
    i.e. the uniform distribution over one carrier).  Terms with p = 0
    contribute nothing (0 * log 0 = 0).
    """
    return fairness_report(m, q).shannon_score
