"""Chain construction, classification, and evaluation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbag import (
    CyclicGraph,
    EmptyChain,
    TopicNotInChain,
    UnknownArgument,
    build_chain,
    build_qbag,
    common_arguments,
    evaluate_chain,
    is_expansion_chain,
    is_normal_expansion_chain,
    is_weak_expansion_chain,
    sweep_chain,
)

from .cases import dialogue, dialogue_step1, sweep_base, sweep_dialogue
from .oracles import weak_expansion_oracle
from .strategies import chains, weak_expansion_chains


class TestBuild:
    def test_three_step_dialogue(self):
        chain = dialogue()
        assert len(chain) == 3

    def test_single_step(self):
        assert len(build_chain([dialogue_step1()])) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyChain):
            build_chain([])


class TestClassification:
    def test_dialogue_is_normal_but_not_weak(self):
        chain = dialogue()
        assert is_expansion_chain(chain)
        assert is_normal_expansion_chain(chain)
        # d reaches a in the second step, so the additions are not downstream
        assert not is_weak_expansion_chain(chain)

    def test_repeated_step_is_not_strict(self):
        g = dialogue_step1()
        assert not is_expansion_chain(build_chain([g, g]))

    def test_single_step_is_vacuously_everything(self):
        chain = build_chain([dialogue_step1()])
        assert is_expansion_chain(chain)
        assert is_normal_expansion_chain(chain)
        assert is_weak_expansion_chain(chain)

    def test_new_edge_between_old_arguments_is_not_normal(self):
        g = build_qbag([("a", 0.5), ("b", 0.5), ("c", 0.5)])
        h = build_qbag([("a", 0.5), ("b", 0.5), ("c", 0.5)], attacks=[("c", "b")])
        chain = build_chain([g, h])
        assert is_expansion_chain(chain)
        assert not is_normal_expansion_chain(chain)

    def test_only_attacked_newcomer_is_weak(self):
        g = build_qbag([("a", 0.5), ("b", 0.5)], attacks=[("a", "b")])
        h = build_qbag(
            [("a", 0.5), ("b", 0.5), ("z", 0.5)], attacks=[("a", "b"), ("a", "z")]
        )
        assert is_weak_expansion_chain(build_chain([g, h]))

    @given(weak_expansion_chains())
    def test_generated_weak_chains_classify_as_weak(self, chain):
        assert is_weak_expansion_chain(chain)
        assert is_normal_expansion_chain(chain)

    def test_newcomer_reaching_old_only_through_another_newcomer_is_not_weak(self):
        g = build_qbag([("a", 0.5), ("b", 0.5)], attacks=[("a", "b")])
        h = build_qbag(
            [("a", 0.5), ("b", 0.5), ("x", 0.5), ("y", 0.5)],
            attacks=[("a", "b"), ("x", "y")],
            supports=[("y", "b")],
        )
        chain = build_chain([g, h])
        assert is_normal_expansion_chain(chain)
        assert not is_weak_expansion_chain(chain)
        assert not weak_expansion_oracle(chain)

    @given(weak_expansion_chains(), st.data())
    def test_weak_classification_matches_pairwise_reaches(self, chain, data):
        # add edges out of each step's newcomers (to old or new arguments),
        # kept in every later step, so the chain stays a normal expansion
        # but may stop being weak
        steps = list(chain.steps)
        for i in range(1, len(steps)):
            new = sorted(steps[i].args - steps[i - 1].args)
            extra = data.draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(new),
                        st.sampled_from(sorted(steps[i].args)),
                        st.booleans(),
                    ),
                    max_size=2,
                )
            )
            for s, t, is_attack in extra:
                for j in range(i, len(steps)):
                    g = steps[j]
                    if (s, t) in g.att | g.supp:
                        continue
                    att, supp = set(g.att), set(g.supp)
                    (att if is_attack else supp).add((s, t))
                    steps[j] = build_qbag(g.tau.items(), att, supp)
        chain = build_chain(steps)
        assert is_expansion_chain(chain)
        assert is_weak_expansion_chain(chain) == weak_expansion_oracle(chain)

    @given(chains())
    def test_refinements_imply_expansion(self, chain):
        if is_weak_expansion_chain(chain):
            assert is_expansion_chain(chain)
        if is_normal_expansion_chain(chain):
            assert is_expansion_chain(chain)


class TestCommonArguments:
    def test_dialogue_core(self):
        assert common_arguments(dialogue()) == {"a", "b", "c"}

    def test_single_step(self):
        assert common_arguments(build_chain([dialogue_step1()])) == {"a", "b", "c"}

    def test_disjoint_steps(self):
        chain = build_chain([build_qbag([("a", 0.1)]), build_qbag([("b", 0.1)])])
        assert common_arguments(chain) == set()


class TestSweep:
    def test_three_point_sweep(self):
        chain = sweep_dialogue()
        assert [g.tau["f"] for g in chain] == [0.1, 0.5, 0.9]

    def test_steps_differ_only_in_swept_strength(self):
        base = sweep_base()
        for g in sweep_chain(base, "f", [0.0, 0.3, 1.0]):
            assert g.args == base.args
            assert g.att == base.att
            assert g.supp == base.supp
            assert {x: v for x, v in g.tau.items() if x != "f"} == {
                x: v for x, v in base.tau.items() if x != "f"
            }

    def test_identity_sweep(self):
        base = sweep_base(tau_f=0.4)
        chain = sweep_chain(base, "f", [0.4])
        assert chain.steps == (base,)

    def test_empty_values_rejected(self):
        with pytest.raises(EmptyChain):
            sweep_chain(sweep_base(), "f", [])

    def test_unknown_argument_rejected(self):
        with pytest.raises(UnknownArgument):
            sweep_chain(sweep_base(), "zz", [0.5])


class TestEvaluateChain:
    def test_dialogue_rows(self):
        matrix = evaluate_chain(dialogue())
        expected_rows = [
            {"a": 0.6, "b": 0.7, "c": 0.2},
            {"a": 0.1, "b": 0.0, "c": 0.2, "d": 1.0},
            {"a": 0.5, "b": 0.56, "c": 0.2, "d": 0.2, "e": 0.8},
        ]
        assert len(matrix) == len(expected_rows)
        for row, expected in zip(matrix.rows, expected_rows):
            assert row.domain() == set(expected)
            for x, v in expected.items():
                assert row[x] == pytest.approx(v, abs=1e-9)

    def test_sweep_rows_follow_closed_forms(self):
        # sigma(a) = 0.2 - 0.2 * s * (1 - s), sigma(b) = s * (1 - s)
        matrix = evaluate_chain(sweep_dialogue())
        for s, row in zip([0.1, 0.5, 0.9], matrix.rows):
            assert row["a"] == pytest.approx(0.2 - 0.2 * s * (1 - s), abs=1e-12)
            assert row["b"] == pytest.approx(s * (1 - s), abs=1e-12)
        assert matrix.trajectory("a") == pytest.approx((0.182, 0.15, 0.182), abs=1e-9)
        assert matrix.trajectory("b") == pytest.approx((0.09, 0.25, 0.09), abs=1e-9)

    def test_single_step_chain(self):
        matrix = evaluate_chain(build_chain([dialogue_step1()]))
        assert len(matrix) == 1
        assert matrix.last["a"] == pytest.approx(0.6, abs=1e-9)

    def test_cyclic_step_reported_with_index(self):
        cyclic = build_qbag(
            [("a", 0.5), ("b", 0.5)], attacks=[("a", "b")], supports=[("b", "a")]
        )
        chain = build_chain([dialogue_step1(), cyclic])
        with pytest.raises(CyclicGraph, match=r"^step 2: cycle through argument 'a'$"):
            evaluate_chain(chain)

    def test_trajectory_requires_presence_everywhere(self):
        matrix = evaluate_chain(dialogue())
        with pytest.raises(TopicNotInChain):
            matrix.trajectory("d")  # only appears from the second step on

    def test_universe(self):
        matrix = evaluate_chain(dialogue())
        assert matrix.universe() == {"a", "b", "c", "d", "e"}

    @given(weak_expansion_chains())
    def test_weak_chains_freeze_common_strengths(self, chain):
        matrix = evaluate_chain(chain)
        for x in common_arguments(chain):
            first, *rest = matrix.trajectory(x)
            for v in rest:
                assert abs(v - first) <= 1e-12
