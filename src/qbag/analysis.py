"""Safety, liveness, and fairness checks over a strength matrix.

All checks are relative to a set of topic arguments (present in every
chain step) and a threshold of justification t in [0, 1].  A step counts
as exceeding the threshold when the final strength is >= t; a strength
strictly below t counts as a below state.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .chain import StrengthMatrix
from .errors import EmptyTopicSet
from .graph import validate_strength


@dataclass(frozen=True)
class SLFQuery:
    """Topic arguments plus the threshold of justification."""

    topics: frozenset[str]
    threshold: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "topics", frozenset(self.topics))
        if not self.topics:
            raise EmptyTopicSet("query needs at least one topic argument")
        object.__setattr__(
            self, "threshold", validate_strength(self.threshold, owner="threshold")
        )

    def sorted_topics(self) -> list[str]:
        return sorted(self.topics)


@dataclass(frozen=True)
class FairnessLine:
    """The straight line from (0, 0) to (|T|, sum of exceedance counts)."""

    slope: Fraction
    endpoints: tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class FairnessReport:
    """Everything the gradual fairness scores are made of."""

    exceed_counts: dict[str, int]
    ordering: tuple[str, ...]
    curve_points: tuple[tuple[int, int], ...]
    line_slope: Fraction
    gini_area: Fraction
    gini_score: float
    p: dict[str, Fraction] | None
    base_b: int | None
    shannon_score: float


# -- safety ----------------------------------------------------------------


def _always_at_or_above(m: StrengthMatrix, x: str, t: float) -> bool:
    return all(v >= t for v in m.trajectory(x))


def _finally_at_or_above(m: StrengthMatrix, x: str, t: float) -> bool:
    return m.trajectory(x)[-1] >= t


def is_strongly_safe(m: StrengthMatrix, q: SLFQuery) -> bool:
    """Every topic stays at or above the threshold at every step."""
    return all(_always_at_or_above(m, x, q.threshold) for x in q.sorted_topics())


def is_weakly_safe(m: StrengthMatrix, q: SLFQuery) -> bool:
    """Every topic is at or above the threshold at the final step."""
    return all(_finally_at_or_above(m, x, q.threshold) for x in q.sorted_topics())


# -- liveness --------------------------------------------------------------


def fluctuation_count(m: StrengthMatrix, x: str, t: float) -> int:
    """Number of threshold crossings along the chain.

    Each step is below (sigma < t) or at-or-above (sigma >= t); runs of
    equal states collapse, and the crossings between the remaining runs
    are counted.  Equivalently: the longest alternating subsequence of
    states, minus one.
    """
    t = validate_strength(t, owner="threshold")
    states = [v >= t for v in m.trajectory(x)]
    return sum(1 for a, b in zip(states, states[1:]) if a != b)


def is_live(m: StrengthMatrix, q: SLFQuery) -> bool:
    """Every topic shows at least one fluctuation."""
    return all(fluctuation_count(m, x, q.threshold) >= 1 for x in q.sorted_topics())


# -- binary fairness -------------------------------------------------------


def is_ideally_fair(m: StrengthMatrix, q: SLFQuery) -> bool:
    """If any singleton topic is strongly safe, the whole set must be."""
    t = q.threshold
    some_topic = any(_always_at_or_above(m, x, t) for x in q.sorted_topics())
    return not some_topic or is_strongly_safe(m, q)


def is_lively_fair(m: StrengthMatrix, q: SLFQuery) -> bool:
    """If any singleton topic is weakly safe, the whole set must be."""
    t = q.threshold
    some_topic = any(_finally_at_or_above(m, x, t) for x in q.sorted_topics())
    return not some_topic or is_weakly_safe(m, q)


def is_cautiously_fair(m: StrengthMatrix, q: SLFQuery) -> bool:
    """If any singleton topic is strongly safe, the set must be weakly safe."""
    t = q.threshold
    some_topic = any(_always_at_or_above(m, x, t) for x in q.sorted_topics())
    return not some_topic or is_weakly_safe(m, q)


# -- gradual fairness ------------------------------------------------------


def exceed_count(m: StrengthMatrix, x: str, t: float) -> int:
    """Number of steps at which x is at or above the threshold."""
    t = validate_strength(t, owner="threshold")
    return sum(1 for v in m.trajectory(x) if v >= t)


def _exceed_counts(m: StrengthMatrix, q: SLFQuery) -> dict[str, int]:
    return {x: exceed_count(m, x, q.threshold) for x in q.sorted_topics()}


def _ascending(counts: dict[str, int]) -> list[tuple[str, int]]:
    # ascending by count, ties broken by id for reproducible reports
    return sorted(counts.items(), key=lambda item: (item[1], item[0]))


def _curve(ascending: list[tuple[str, int]]) -> list[tuple[int, int]]:
    points = [(0, 0)]
    total = 0
    for k, (_, count) in enumerate(ascending, start=1):
        total += count
        points.append((k, total))
    return points


def safety_curve(m: StrengthMatrix, q: SLFQuery) -> list[tuple[int, int]]:
    """Integer lattice points of the ascending cumulative exceedance curve.

    Starts at (0, 0) and ends at (|T|, sum of counts); the curve itself
    is the piecewise-linear interpolation of these points.
    """
    return _curve(_ascending(_exceed_counts(m, q)))


def _line(counts: dict[str, int]) -> FairnessLine:
    total = sum(counts.values())
    n = len(counts)
    return FairnessLine(slope=Fraction(total, n), endpoints=((0, 0), (n, total)))


def fairness_line(m: StrengthMatrix, q: SLFQuery) -> FairnessLine:
    """The perfect-equality line joining (0, 0) and (|T|, sum of counts)."""
    return _line(_exceed_counts(m, q))


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


def _area(curve: list[tuple[int, int]], slope: Fraction) -> Fraction:
    curve_ys = [Fraction(y) for _, y in curve]
    line_ys = [slope * x for x, _ in curve]
    return area_between_piecewise(line_ys, curve_ys)


def gini_unnormalized(m: StrengthMatrix, q: SLFQuery) -> Fraction:
    """Exact area between the fairness line and the safety curve."""
    counts = _exceed_counts(m, q)
    return _area(_curve(_ascending(counts)), _line(counts).slope)


def _sigmoid(area: Fraction) -> float:
    return 2.0 / (1.0 + math.exp(-float(area))) - 1.0


def gini_fairness(m: StrengthMatrix, q: SLFQuery) -> float:
    """Sigmoid-normalized area; 0 means perfect equality, values stay < 1."""
    return _sigmoid(gini_unnormalized(m, q))


def _distribution(counts: dict[str, int]) -> dict[str, Fraction] | None:
    total = sum(counts.values())
    if total == 0:
        return None
    return {x: Fraction(count, total) for x, count in sorted(counts.items())}


def exceed_distribution(
    m: StrengthMatrix, q: SLFQuery
) -> dict[str, Fraction] | None:
    """Per-topic share of all threshold exceedances, in lowest terms.

    Undefined (None) when no topic ever reaches the threshold.  When
    defined the values sum to exactly 1.
    """
    return _distribution(_exceed_counts(m, q))


def shannon_base(dist: dict[str, Fraction]) -> int:
    """Least common multiple of the distribution's denominators."""
    return math.lcm(*(p.denominator for p in dist.values()))


def _entropy(dist: dict[str, Fraction] | None) -> float:
    if dist is None:
        return 1.0
    base = shannon_base(dist)
    if base == 1:
        return 1.0
    log_base = math.log(base)
    entropy = 0.0
    for x in sorted(dist):
        p = dist[x]
        if p > 0:
            entropy -= float(p) * (math.log(float(p)) / log_base)
    return entropy


def shannon_fairness(m: StrengthMatrix, q: SLFQuery) -> float:
    """Entropy of the exceedance distribution in base lcm-of-denominators.

    1 when the distribution is undefined (no exceedances at all) and when
    the base degenerates to 1 (a single topic holds every exceedance,
    i.e. the uniform distribution over one carrier).  Terms with p = 0
    contribute nothing (0 * log 0 = 0).
    """
    return _entropy(exceed_distribution(m, q))


def fairness_report(m: StrengthMatrix, q: SLFQuery) -> FairnessReport:
    """Counts, curve, line, and both gradual scores from one count pass."""
    counts = _exceed_counts(m, q)
    ascending = _ascending(counts)
    curve = _curve(ascending)
    slope = _line(counts).slope
    area = _area(curve, slope)
    dist = _distribution(counts)
    return FairnessReport(
        exceed_counts=counts,
        ordering=tuple(x for x, _ in ascending),
        curve_points=tuple(curve),
        line_slope=slope,
        gini_area=area,
        gini_score=_sigmoid(area),
        p=dist,
        base_b=None if dist is None else shannon_base(dist),
        shannon_score=_entropy(dist),
    )
