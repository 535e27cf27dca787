"""Safety, liveness, and fairness checks plus their independent oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbag import (
    EmptyChain,
    EmptyTopicSet,
    FairnessReport,
    SLFQuery,
    StrengthAssignment,
    StrengthMatrix,
    StrengthOutOfRange,
    TopicNotInChain,
    area_between_piecewise,
    evaluate_chain,
    exceed_count,
    exceed_distribution,
    fairness_line,
    fairness_report,
    fluctuation_count,
    gini_fairness,
    gini_unnormalized,
    is_cautiously_fair,
    is_ideally_fair,
    is_live,
    is_lively_fair,
    is_strongly_safe,
    is_weakly_safe,
    safety_curve,
    shannon_base,
    shannon_fairness,
)

from qbag.analysis import _report

from .cases import dialogue, sweep_dialogue
from .oracles import (
    alternation_oracle,
    binary_fairness_oracle,
    gini_score_oracle,
    shannon_score_oracle,
    trapezoid_area_oracle,
)
from .strategies import chain_queries, matrix_queries


def matrix_from_rows(rows):
    return StrengthMatrix(rows=tuple(StrengthAssignment(values=r) for r in rows))


def query(topics, threshold):
    return SLFQuery(topics=frozenset(topics), threshold=threshold)


@pytest.fixture(scope="module")
def dialogue_matrix():
    return evaluate_chain(dialogue())


@pytest.fixture(scope="module")
def sweep_matrix():
    return evaluate_chain(sweep_dialogue())


class TestQuery:
    def test_empty_topics_rejected(self):
        with pytest.raises(EmptyTopicSet):
            query([], 0.2)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(StrengthOutOfRange):
            query({"a"}, 1.2)
        with pytest.raises(StrengthOutOfRange):
            query({"a"}, float("nan"))

    def test_unknown_topic_surfaces_per_check(self, dialogue_matrix):
        with pytest.raises(TopicNotInChain):
            is_strongly_safe(dialogue_matrix, query({"z"}, 0.2))
        with pytest.raises(TopicNotInChain):
            gini_fairness(dialogue_matrix, query({"d"}, 0.2))

    @pytest.mark.parametrize(
        "check",
        [is_strongly_safe, is_weakly_safe, is_live, is_ideally_fair, is_lively_fair,
         is_cautiously_fair, fairness_report],
    )
    def test_unknown_topic_surfaces_after_a_decided_verdict(self, check):
        # "a" alone already settles every verdict below; the checks used
        # to stop there and never look for the missing "z"
        m = matrix_from_rows([{"a": 0.9}, {"a": 0.1}, {"a": 0.1}])
        with pytest.raises(TopicNotInChain, match="'z' missing from step 1"):
            check(m, query({"a", "z"}, 0.5))

    def test_bare_str_topics_rejected(self):
        # frozenset("ab") would split one id into the topics "a" and "b"
        with pytest.raises(TypeError, match="not the str 'ab'"):
            SLFQuery(topics="ab", threshold=0.2)

    def test_empty_matrix_rejected(self):
        # every check used to read row -1 of it (IndexError) or pass vacuously
        with pytest.raises(EmptyChain):
            StrengthMatrix(rows=())


class TestSafety:
    def test_constant_topic_is_strongly_safe(self, dialogue_matrix):
        assert is_strongly_safe(dialogue_matrix, query({"c"}, 0.1))

    def test_boundary_counts_as_reaching(self, dialogue_matrix):
        # c sits exactly at 0.2 everywhere; >= keeps it strongly safe
        assert is_strongly_safe(dialogue_matrix, query({"c"}, 0.2))

    def test_dip_breaks_strong_safety(self, dialogue_matrix):
        assert not is_strongly_safe(dialogue_matrix, query({"b"}, 0.1))

    def test_recovering_topic_is_weakly_safe(self, dialogue_matrix):
        assert is_weakly_safe(dialogue_matrix, query({"b"}, 0.1))

    def test_whole_core_weakly_safe_at_final_step(self, dialogue_matrix):
        assert is_weakly_safe(dialogue_matrix, query({"a", "b", "c"}, 0.2))

    def test_strong_implies_weak(self, dialogue_matrix):
        q = query({"c"}, 0.2)
        assert is_strongly_safe(dialogue_matrix, q)
        assert is_weakly_safe(dialogue_matrix, q)

    @given(chain_queries())
    @settings(max_examples=60)
    def test_strong_implies_weak_on_random_chains(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        if is_strongly_safe(m, q):
            assert is_weakly_safe(m, q)


class TestFluctuations:
    def test_flat_trajectory(self, dialogue_matrix):
        assert fluctuation_count(dialogue_matrix, "c", 0.2) == 0

    def test_dip_and_recovery(self, dialogue_matrix):
        assert fluctuation_count(dialogue_matrix, "b", 0.2) == 2

    def test_near_boundary_dip(self, dialogue_matrix):
        # In real arithmetic a's middle strength is exactly 0.1; in doubles
        # it lands just below, so the trajectory crosses 0.1 twice.
        assert dialogue_matrix.trajectory("a")[1] < 0.1
        assert fluctuation_count(dialogue_matrix, "a", 0.1) == 2

    def test_unknown_argument(self, dialogue_matrix):
        with pytest.raises(TopicNotInChain):
            fluctuation_count(dialogue_matrix, "z", 0.2)

    def test_matches_alternation_oracle_on_crafted_rows(self):
        rows = [{"x": v} for v in (0.9, 0.1, 0.9, 0.9, 0.1, 0.5, 0.4)]
        m = matrix_from_rows(rows)
        states = [v["x"] >= 0.5 for v in rows]
        assert fluctuation_count(m, "x", 0.5) == alternation_oracle(states) == 5

    @given(chain_queries())
    @settings(max_examples=60)
    def test_matches_alternation_oracle(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        for x in sorted(topics):
            states = [v >= threshold for v in m.trajectory(x)]
            assert fluctuation_count(m, x, threshold) == alternation_oracle(states)


class TestLiveness:
    def test_fluctuating_pair_is_live(self, dialogue_matrix):
        assert is_live(dialogue_matrix, query({"a", "b"}, 0.2))

    def test_constant_topic_is_not_live(self, dialogue_matrix):
        assert not is_live(dialogue_matrix, query({"c"}, 0.2))

    def test_single_dip_is_live(self, dialogue_matrix):
        assert is_live(dialogue_matrix, query({"b"}, 0.1))

    @given(chain_queries())
    @settings(max_examples=60)
    def test_strongly_safe_sets_are_never_live(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        if is_strongly_safe(m, q):
            assert not is_live(m, q)
            for x in sorted(topics):
                assert fluctuation_count(m, x, threshold) == 0


class TestBinaryFairness:
    def test_core_is_not_ideally_fair(self, dialogue_matrix):
        assert not is_ideally_fair(dialogue_matrix, query({"a", "b", "c"}, 0.2))

    def test_no_strongly_safe_member_means_ideally_fair(self, dialogue_matrix):
        assert is_ideally_fair(dialogue_matrix, query({"a", "b"}, 0.3))

    def test_strongly_safe_set_is_ideally_fair(self, dialogue_matrix):
        assert is_ideally_fair(dialogue_matrix, query({"c"}, 0.2))

    def test_core_is_lively_fair(self, dialogue_matrix):
        assert is_lively_fair(dialogue_matrix, query({"a", "b", "c"}, 0.2))

    def test_sweep_pair_is_not_lively_fair(self, sweep_matrix):
        assert not is_lively_fair(sweep_matrix, query({"a", "b"}, 0.1))

    def test_core_is_cautiously_fair(self, dialogue_matrix):
        assert is_cautiously_fair(dialogue_matrix, query({"a", "b", "c"}, 0.2))

    def test_pair_is_cautiously_fair_low_threshold(self, dialogue_matrix):
        assert is_cautiously_fair(dialogue_matrix, query({"a", "b"}, 0.1))

    def test_sweep_pair_is_not_cautiously_fair(self, sweep_matrix):
        assert not is_cautiously_fair(sweep_matrix, query({"a", "b"}, 0.1))

    @given(chain_queries())
    @settings(max_examples=60)
    def test_lively_implies_cautious(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        if is_lively_fair(m, q):
            assert is_cautiously_fair(m, q)

    @given(chain_queries())
    @settings(max_examples=60)
    def test_matches_singleton_query_oracle(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        verdicts = (is_ideally_fair(m, q), is_lively_fair(m, q), is_cautiously_fair(m, q))
        assert verdicts == binary_fairness_oracle(m, q)


class TestExceedCounts:
    def test_dialogue_counts(self, dialogue_matrix):
        assert exceed_count(dialogue_matrix, "a", 0.2) == 2
        assert exceed_count(dialogue_matrix, "b", 0.2) == 2
        assert exceed_count(dialogue_matrix, "c", 0.2) == 3

    def test_zero_threshold_counts_every_step(self, dialogue_matrix):
        assert exceed_count(dialogue_matrix, "a", 0.0) == 3


class TestCurveAndLine:
    def test_dialogue_breakpoints(self, dialogue_matrix):
        q = query({"a", "b", "c"}, 0.2)
        assert safety_curve(dialogue_matrix, q) == [(0, 0), (1, 2), (2, 4), (3, 7)]
        line = fairness_line(dialogue_matrix, q)
        assert line.slope == Fraction(7, 3)
        assert line.endpoints == ((0, 0), (3, 7))

    def test_uniform_counts_put_curve_on_line(self, dialogue_matrix):
        q = query({"a", "b", "c"}, 0.0)
        curve = safety_curve(dialogue_matrix, q)
        slope = fairness_line(dialogue_matrix, q).slope
        assert all(Fraction(y) == slope * x for x, y in curve)

    def test_single_topic(self, dialogue_matrix):
        q = query({"c"}, 0.2)
        assert safety_curve(dialogue_matrix, q) == [(0, 0), (1, 3)]
        assert fairness_line(dialogue_matrix, q).slope == Fraction(3)

    def test_zero_total_gives_flat_line(self, dialogue_matrix):
        q = query({"a", "b"}, 0.9)
        assert fairness_line(dialogue_matrix, q).slope == 0
        assert safety_curve(dialogue_matrix, q) == [(0, 0), (1, 0), (2, 0)]

    @given(chain_queries())
    @settings(max_examples=60)
    def test_curve_never_rises_above_line(self, case):
        # ascending cumulative sums always Lorenz-dominate downwards
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        slope = fairness_line(m, q).slope
        for x, y in safety_curve(m, q):
            assert Fraction(y) <= slope * x


class TestAreaBetween:
    def test_no_crossing(self):
        assert area_between_piecewise([0, 1], [0, 0]) == Fraction(1, 2)

    def test_interior_crossing_is_split_exactly(self):
        # difference runs -1 .. +2, crossing a third of the way in
        assert area_between_piecewise([0, 2], [1, 0]) == Fraction(5, 6)

    def test_coincident_curves(self):
        assert area_between_piecewise([0, 2, 4], [0, 2, 4]) == 0


@st.composite
def state_tables(draw):
    """Threshold states per topic, as analysis._states gives them: one row per topic."""
    steps = draw(st.integers(1, 6))
    topics = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
    row = st.lists(st.booleans(), min_size=steps, max_size=steps)
    return {x: draw(row) for x in sorted(topics)}


class TestGini:
    @given(state_tables())
    @example({"a": [False, False], "b": [False, False]})  # all counts zero
    @example({"a": [True, False], "b": [False, True], "c": [True, True]})  # a tie
    @example({"a": [True]})
    @settings(max_examples=300)
    def test_integer_area_is_the_piecewise_area(self, states):
        report = _report(states)
        curve = report.curve_points
        line = [report.line_slope * x for x, _ in curve]
        assert report.gini_area == area_between_piecewise(line, [Fraction(y) for _, y in curve])

    def test_dialogue_area_is_exactly_one(self, dialogue_matrix):
        assert gini_unnormalized(dialogue_matrix, query({"a", "b", "c"}, 0.2)) == 1

    def test_uniform_counts_give_zero_area(self, dialogue_matrix):
        assert gini_unnormalized(dialogue_matrix, query({"a", "b", "c"}, 0.0)) == 0

    def test_sweep_area_is_exactly_one(self, sweep_matrix):
        assert gini_unnormalized(sweep_matrix, query({"a", "b"}, 0.1)) == 1

    def test_dialogue_score(self, dialogue_matrix):
        score = gini_fairness(dialogue_matrix, query({"a", "b", "c"}, 0.2))
        assert score == pytest.approx(0.46212, abs=1e-5)

    def test_sweep_score(self, sweep_matrix):
        score = gini_fairness(sweep_matrix, query({"a", "b"}, 0.1))
        assert score == pytest.approx(0.46212, abs=1e-5)

    def test_zero_area_means_zero_score(self, dialogue_matrix):
        assert gini_fairness(dialogue_matrix, query({"a", "b", "c"}, 0.0)) == 0.0

    @given(chain_queries())
    @settings(max_examples=60)
    def test_range_and_zero_equivalence(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        area = gini_unnormalized(m, q)
        score = gini_fairness(m, q)
        assert 0.0 <= score < 1.0
        assert (score == 0.0) == (area == 0)

    @given(chain_queries())
    @settings(max_examples=60)
    def test_matches_trapezoid_oracle(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        exact = float(gini_unnormalized(m, q))
        assert abs(exact - trapezoid_area_oracle(m, q)) <= 1e-6


class TestDistribution:
    def test_dialogue_shares(self, dialogue_matrix):
        dist = exceed_distribution(dialogue_matrix, query({"a", "b", "c"}, 0.2))
        assert dist == {"a": Fraction(2, 7), "b": Fraction(2, 7), "c": Fraction(3, 7)}

    def test_returns_a_dict_of_its_own(self, dialogue_matrix):
        # the report holds a read-only view; this function's result is a plain dict
        q = query({"a", "b", "c"}, 0.2)
        dist = exceed_distribution(dialogue_matrix, q)
        assert type(dist) is dict
        dist["a"] = Fraction(1)
        assert exceed_distribution(dialogue_matrix, q)["a"] == Fraction(2, 7)

    def test_undefined_without_exceedances(self, dialogue_matrix):
        assert exceed_distribution(dialogue_matrix, query({"a", "b"}, 0.9)) is None

    def test_single_topic_takes_everything(self, dialogue_matrix):
        dist = exceed_distribution(dialogue_matrix, query({"c"}, 0.2))
        assert dist == {"c": Fraction(1)}

    @given(chain_queries())
    @settings(max_examples=60)
    def test_sums_to_exactly_one_when_defined(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        dist = exceed_distribution(m, query(topics, threshold))
        if dist is not None:
            assert sum(dist.values()) == 1


class TestShannon:
    def test_base_examples(self):
        assert shannon_base({"a": Fraction(2, 7), "b": Fraction(2, 7), "c": Fraction(3, 7)}) == 7
        assert shannon_base({"a": Fraction(3, 4), "b": Fraction(1, 4)}) == 4
        assert shannon_base({"a": Fraction(1)}) == 1

    def test_dialogue_score(self, dialogue_matrix):
        score = shannon_fairness(dialogue_matrix, query({"a", "b", "c"}, 0.2))
        assert score == pytest.approx(0.55449, abs=1e-5)

    def test_sweep_score(self, sweep_matrix):
        # counts (3, 1) give shares 3/4 and 1/4 in base 4
        score = shannon_fairness(sweep_matrix, query({"a", "b"}, 0.1))
        assert score == pytest.approx(0.40564, abs=1e-5)

    def test_undefined_distribution_scores_one(self, dialogue_matrix):
        assert shannon_fairness(dialogue_matrix, query({"a", "b"}, 0.9)) == 1.0

    def test_single_topic_scores_one(self, dialogue_matrix):
        assert shannon_fairness(dialogue_matrix, query({"c"}, 0.2)) == 1.0

    def test_degenerate_distribution_scores_one(self, sweep_matrix):
        # at 0.2 only b ever reaches the threshold: p = (0, 1), base 1
        dist = exceed_distribution(sweep_matrix, query({"a", "b"}, 0.2))
        assert dist == {"a": Fraction(0), "b": Fraction(1)}
        assert shannon_fairness(sweep_matrix, query({"a", "b"}, 0.2)) == 1.0

    def test_uniform_distribution_scores_one(self, dialogue_matrix):
        for topics in ({"a", "b", "c"}, {"a", "b"}, {"a"}):
            score = shannon_fairness(dialogue_matrix, query(topics, 0.0))
            assert score == pytest.approx(1.0, abs=1e-12)

    @given(chain_queries())
    @settings(max_examples=60)
    def test_equal_counts_score_one(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        counts = {exceed_count(m, x, threshold) for x in topics}
        if len(counts) == 1 and counts != {0}:
            assert shannon_fairness(m, q) == pytest.approx(1.0, abs=1e-12)


class TestTieBreakIndependence:
    def test_swapping_equal_count_topics_changes_nothing(self, dialogue_matrix):
        # a and b both exceed twice at 0.2; exchange their trajectories
        q = query({"a", "b", "c"}, 0.2)
        swapped = matrix_from_rows(
            [
                {("b" if x == "a" else "a" if x == "b" else x): v for x, v in row.values.items()}
                for row in dialogue_matrix.rows
            ]
        )
        assert gini_unnormalized(swapped, q) == gini_unnormalized(dialogue_matrix, q)
        assert gini_fairness(swapped, q) == gini_fairness(dialogue_matrix, q)
        assert shannon_fairness(swapped, q) == shannon_fairness(dialogue_matrix, q)

    def test_report_composes_consistently(self, dialogue_matrix):
        q = query({"a", "b", "c"}, 0.2)
        report = fairness_report(dialogue_matrix, q)
        assert report.exceed_counts == {"a": 2, "b": 2, "c": 3}
        assert report.ordering == ("a", "b", "c")
        assert report.curve_points == ((0, 0), (1, 2), (2, 4), (3, 7))
        assert report.line_slope == Fraction(7, 3)
        assert report.gini_area == 1
        assert report.base_b == 7
        assert report.gini_score == gini_fairness(dialogue_matrix, q)
        assert report.shannon_score == shannon_fairness(dialogue_matrix, q)

    @given(chain_queries())
    @settings(max_examples=60)
    def test_report_equals_public_functions(self, case):
        chain, topics, threshold = case
        m = evaluate_chain(chain)
        q = query(topics, threshold)
        counts = {x: exceed_count(m, x, threshold) for x in sorted(topics)}
        dist = exceed_distribution(m, q)
        assembled = FairnessReport(
            exceed_counts=counts,
            ordering=tuple(sorted(counts, key=lambda x: (counts[x], x))),
            curve_points=tuple(safety_curve(m, q)),
            line_slope=fairness_line(m, q).slope,
            gini_area=gini_unnormalized(m, q),
            gini_score=gini_fairness(m, q),
            p=dist,
            base_b=None if dist is None else shannon_base(dist),
            shannon_score=shannon_fairness(m, q),
        )
        assert fairness_report(m, q) == assembled


class TestScoreBits:
    """Both scores keep the float bits of their first, counts-level definitions."""

    @staticmethod
    def check(m, q):
        counts = {x: sum(v >= q.threshold for v in m.trajectory(x)) for x in q.topics}
        total = sum(counts.values())
        dist = None if total == 0 else {x: Fraction(c, total) for x, c in counts.items()}
        report = fairness_report(m, q)
        assert report.p == dist
        assert report.gini_score.hex() == gini_score_oracle(report.gini_area).hex()
        assert report.shannon_score.hex() == shannon_score_oracle(dist).hex()
        assert gini_fairness(m, q).hex() == report.gini_score.hex()
        assert shannon_fairness(m, q).hex() == report.shannon_score.hex()

    @given(matrix_queries())
    @settings(max_examples=200)
    def test_matches_oracles_on_drawn_rows(self, case):
        rows, topics, threshold = case
        self.check(matrix_from_rows(rows), query(topics, threshold))

    @given(chain_queries())
    @settings(max_examples=60)
    def test_matches_oracles_on_chains(self, case):
        chain, topics, threshold = case
        self.check(evaluate_chain(chain), query(topics, threshold))
