"""DF-QuAD aggregation, influence, and graph evaluation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbag import (
    CyclicGraph,
    DFQUAD,
    SemanticsDescriptor,
    StrengthOutOfRange,
    UnknownSemantics,
    attackers,
    build_qbag,
    dfquad_aggregation,
    dfquad_influence,
    evaluate,
    semantics_by_name,
    supporters,
)

from .cases import dialogue_step1, dialogue_step2, dialogue_step3
from .oracles import oracle_evaluate
from .strategies import acyclic_qbags, strengths, weak_expansion_chains


class TestAggregation:
    def test_single_supporter(self):
        assert dfquad_aggregation([], [0.2]) == pytest.approx(0.2, abs=1e-12)

    def test_full_attacker_and_one_supporter(self):
        assert dfquad_aggregation([1.0], [0.2]) == pytest.approx(-0.8, abs=1e-12)

    def test_empty_inputs_cancel(self):
        assert dfquad_aggregation([], []) == 0.0

    @given(st.lists(strengths, max_size=6), st.lists(strengths, max_size=6))
    def test_range(self, att, supp):
        assert -1.0 <= dfquad_aggregation(att, supp) <= 1.0


class TestInfluence:
    def test_net_support_raises_strength(self):
        assert dfquad_influence(0.5, 0.2) == pytest.approx(0.6, abs=1e-12)

    def test_total_attack_zeroes_strength(self):
        assert dfquad_influence(0.7, -1.0) == pytest.approx(0.0, abs=1e-12)

    @given(strengths)
    def test_zero_aggregate_is_identity(self, base):
        assert dfquad_influence(base, 0.0) == base

    @given(strengths)
    def test_monotone_in_aggregate(self, base):
        grid = [k / 20 - 1.0 for k in range(41)]
        values = [dfquad_influence(base, a) for a in grid]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi

    @given(strengths, st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_output_in_unit_interval(self, base, aggregate):
        assert 0.0 <= dfquad_influence(base, aggregate) <= 1.0


class TestEvaluate:
    def test_seed_graph(self):
        sigma = evaluate(dialogue_step1())
        assert sigma["a"] == pytest.approx(0.6, abs=1e-9)
        assert sigma["b"] == pytest.approx(0.7, abs=1e-9)
        assert sigma["c"] == pytest.approx(0.2, abs=1e-9)

    def test_expanded_graph(self):
        sigma = evaluate(dialogue_step2())
        expected = {"a": 0.1, "b": 0.0, "c": 0.2, "d": 1.0}
        for x, v in expected.items():
            assert sigma[x] == pytest.approx(v, abs=1e-9)

    def test_final_graph(self):
        sigma = evaluate(dialogue_step3())
        expected = {"a": 0.5, "b": 0.56, "c": 0.2, "d": 0.2, "e": 0.8}
        for x, v in expected.items():
            assert sigma[x] == pytest.approx(v, abs=1e-9)

    def test_edgeless_graph_keeps_initial_strengths(self):
        g = build_qbag([("x", 0.3), ("y", 0.9)])
        assert dict(evaluate(g).values) == {"x": 0.3, "y": 0.9}

    def test_cyclic_graph_rejected(self):
        g = build_qbag(
            [("a", 0.5), ("b", 0.5)], attacks=[("a", "b")], supports=[("b", "a")]
        )
        with pytest.raises(CyclicGraph):
            evaluate(g)

    def test_influence_leaving_unit_interval_is_rejected(self):
        # an explicit check, not an assert, so it also holds under python -O
        overshoot = SemanticsDescriptor(
            name="overshoot",
            aggregation=dfquad_aggregation,
            influence=lambda base, aggregate: base + aggregate + 1.5,
        )
        with pytest.raises(StrengthOutOfRange, match="influence left"):
            evaluate(dialogue_step1(), overshoot)

    @given(acyclic_qbags())
    def test_outputs_in_unit_interval(self, g):
        assert all(0.0 <= v <= 1.0 for v in evaluate(g).values.values())

    @given(acyclic_qbags())
    def test_sources_keep_initial_strength(self, g):
        sigma = evaluate(g)
        for x in g.args:
            if not attackers(g, x) and not supporters(g, x):
                assert sigma[x] == g.tau[x]

    @given(acyclic_qbags())
    def test_matches_memoized_recursion_oracle(self, g):
        # neighbours enter in the same ascending order, so the floats agree exactly
        assert dict(evaluate(g).values) == oracle_evaluate(g)

    @given(weak_expansion_chains())
    def test_downstream_additions_leave_old_strengths_alone(self, chain):
        # strong directionality: material that cannot reach x never moves sigma(x)
        first = evaluate(chain.steps[0])
        for step in chain.steps[1:]:
            sigma = evaluate(step)
            for x in chain.steps[0].args:
                assert abs(sigma[x] - first[x]) <= 1e-12


class TestRegistry:
    def test_lookup_by_name(self):
        assert semantics_by_name("dfquad") is DFQUAD

    def test_unknown_name(self):
        with pytest.raises(UnknownSemantics):
            semantics_by_name("no-such-semantics")
