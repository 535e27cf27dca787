"""Chain construction, classification, and evaluation."""

from itertools import chain as joined, pairwise
from math import copysign

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbag import (
    DFQUAD,
    CyclicGraph,
    DocumentError,
    EmptyChain,
    SemanticsDescriptor,
    StrengthOutOfRange,
    TopicNotInChain,
    UnknownArgument,
    build_chain,
    build_qbag,
    common_arguments,
    dfquad_aggregation,
    dfquad_influence,
    evaluate,
    evaluate_chain,
    is_acyclic,
    is_expansion_chain,
    is_normal_expansion_chain,
    is_sub_qbag,
    is_weak_expansion_chain,
    parse_chain,
    serialize_chain,
    sweep_chain,
)
from qbag.chain import _plans, _validated
from qbag.graph import _index, _ordered

from .cases import dialogue, dialogue_step1, dialogue_step3, sweep_base, sweep_dialogue
from .oracles import (
    expansion_oracle,
    normal_expansion_oracle,
    oracle_evaluate,
    oracle_index,
    parse_chain_oracle,
    weak_expansion_oracle,
)
from .strategies import (
    chains,
    closing_chains,
    evolving_chains,
    rewired_chains,
    shared_chains,
    signed_strengths,
    weak_expansion_chains,
)


class TestBuild:
    def test_three_step_dialogue(self):
        chain = dialogue()
        assert len(chain) == 3

    def test_single_step(self):
        assert len(build_chain([dialogue_step1()])) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyChain):
            build_chain([])

    @pytest.mark.parametrize("empty", [lambda: iter([]), lambda: (g for g in [])])
    def test_an_empty_iterator_is_rejected(self, empty):
        # an iterator is truthy whether or not it yields anything
        with pytest.raises(EmptyChain):
            build_chain(empty())

    def test_an_iterator_of_steps_is_built(self):
        steps = [dialogue_step1(), dialogue_step3()]
        assert build_chain(iter(steps)).steps == tuple(steps)


@st.composite
def signed_sweeps(draw):
    """Sweeps of a step of a mixed chain with a 0.0 -> -0.0 step somewhere."""
    g = draw(evolving_chains()).steps[-1]
    if not g.args:
        return build_chain([g])
    x = draw(st.sampled_from(sorted(g.args)))
    values = draw(st.lists(signed_strengths, max_size=3))
    at = draw(st.integers(0, len(values)))
    return sweep_chain(g, x, [*values[:at], 0.0, -0.0, *values[at:]])


@st.composite
def retuned_expansions(draw):
    """Weak expansion chains where one later step also changes an old strength."""
    steps = list(draw(weak_expansion_chains()).steps)
    i = draw(st.integers(1, len(steps) - 1))
    x = draw(st.sampled_from(sorted(steps[i - 1].args)))
    g = steps[i]
    steps[i] = build_qbag({**g.tau, x: draw(signed_strengths)}.items(), g.att, g.supp)
    return build_chain(steps)


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

    @given(
        st.one_of(
            chains(),
            evolving_chains(),
            weak_expansion_chains(),
            retuned_expansions(),
            closing_chains(),
            signed_sweeps(),
        )
    )
    def test_checks_match_the_definitions(self, chain):
        assert is_expansion_chain(chain) == expansion_oracle(chain)
        assert is_normal_expansion_chain(chain) == normal_expansion_oracle(chain)
        assert is_weak_expansion_chain(chain) == weak_expansion_oracle(chain)

    def test_signed_zero_step_is_not_strict(self):
        # initial strengths compare by value: 0.0 -> -0.0 changes nothing
        g = build_qbag([("a", 0.0), ("b", 0.5)], supports=[("a", "b")])
        grown = build_qbag([("a", -0.0), ("b", 0.5), ("c", 0.5)], supports=[("a", "b")])
        assert not is_expansion_chain(sweep_chain(g, "a", [0.0, -0.0]))
        assert is_weak_expansion_chain(build_chain([g, grown]))

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


def _exact(values):
    """Key order, value and sign of zero of every strength."""
    return [(x, v.hex()) for x, v in values.items()]


# tells -0.0 from 0.0, so a sign-of-zero change of tau must be recomputed
SIGNED = SemanticsDescriptor(
    name="signed",
    aggregation=dfquad_aggregation,
    influence=lambda base, aggregate: (
        0.25 if copysign(1.0, base) < 0 else dfquad_influence(base, aggregate)
    ),
)
# no damping towards the bounds, so it can leave [0, 1]
UNBOUNDED = SemanticsDescriptor(
    name="unbounded",
    aggregation=dfquad_aggregation,
    influence=lambda base, aggregate: base + aggregate,
)


@st.composite
def sweeps(draw):
    """Sweeps of a step of a mixed chain, including both signed zeros."""
    g = draw(evolving_chains()).steps[-1]
    if not g.args:
        return build_chain([g])
    x = draw(st.sampled_from(sorted(g.args)))
    return sweep_chain(g, x, draw(st.lists(signed_strengths, min_size=1, max_size=5)))


class TestIncrementalEvaluation:
    """evaluate_chain reuses the previous step; each row must equal a full evaluation."""

    @pytest.mark.parametrize(
        "strategy",
        [chains(), shared_chains(), weak_expansion_chains(), sweeps(), evolving_chains()],
        ids=["chains", "shared", "weak", "sweeps", "evolving"],
    )
    @pytest.mark.parametrize("sem", [DFQUAD, SIGNED], ids=["dfquad", "signed"])
    @given(data=st.data())
    def test_rows_equal_full_evaluation(self, strategy, sem, data):
        chain = data.draw(strategy)
        matrix = evaluate_chain(chain, sem)
        assert len(matrix) == len(chain)
        for step, row in zip(chain.steps, matrix.rows):
            full = evaluate(step, sem)
            assert row.values == full.values
            assert _exact(row.values) == _exact(full.values)
            oracle = oracle_evaluate(step, sem)
            assert row.values == oracle
            assert _exact(dict(sorted(row.values.items()))) == _exact(oracle)

    @given(evolving_chains())
    def test_range_error_at_the_first_failing_step(self, chain):
        failure = None
        for step in chain.steps:
            try:
                evaluate(step, UNBOUNDED)
            except StrengthOutOfRange as exc:
                failure = str(exc)
                break
        if failure is None:
            rows = evaluate_chain(chain, UNBOUNDED).rows
            assert [r.values for r in rows] == [evaluate(g, UNBOUNDED).values for g in chain]
        else:
            with pytest.raises(StrengthOutOfRange) as info:
                evaluate_chain(chain, UNBOUNDED)
            assert str(info.value) == failure

    def test_cyclic_extension_after_shared_steps_names_its_step(self):
        g = dialogue_step1()
        swept = sweep_chain(g, "c", [0.2, 0.4])
        cyclic = build_qbag(g.tau.items(), attacks=[("a", "c")], supports=[("c", "a")])
        chain = build_chain([*swept.steps, cyclic])
        with pytest.raises(CyclicGraph, match=r"^step 3: cycle through argument 'a'$"):
            evaluate_chain(chain)

    def test_range_error_downstream_of_a_swept_argument(self):
        # a supports b: b = 0.5 + (1 - (1 - tau(a))) overshoots once tau(a) > 0.5
        g = build_qbag([("a", 0.2), ("b", 0.5)], supports=[("a", "b")])
        chain = sweep_chain(g, "a", [0.2, 0.9])
        evaluate(chain.steps[0], UNBOUNDED)
        with pytest.raises(StrengthOutOfRange) as expected:
            evaluate(chain.steps[1], UNBOUNDED)
        with pytest.raises(StrengthOutOfRange) as info:
            evaluate_chain(chain, UNBOUNDED)
        assert str(info.value) == str(expected.value)
        assert "for 'b'" in str(info.value)

    def test_range_error_names_the_first_argument_of_the_whole_step(self):
        # the new edges overshoot d (2.0) and e (-1.0); the cone of the new
        # edges orders e before d, the whole step d before e
        tau = [("a", 0.0), ("b", 0.0), ("d", 1.0), ("e", 0.0), ("h", 1.0)]
        g = build_qbag(tau)
        h = build_qbag(tau, attacks=[("h", "e")], supports=[("b", "e"), ("h", "a"), ("h", "d")])
        with pytest.raises(StrengthOutOfRange) as expected:
            evaluate(h, UNBOUNDED)
        with pytest.raises(StrengthOutOfRange) as info:
            evaluate_chain(build_chain([g, h]), UNBOUNDED)
        assert str(info.value) == str(expected.value)
        assert "for 'd'" in str(info.value)

    def test_signed_zero_change_is_recomputed(self):
        g = build_qbag([("a", 0.0), ("b", 0.5)], supports=[("a", "b")])
        chain = sweep_chain(g, "a", [0.0, -0.0, 0.0])
        rows = evaluate_chain(chain, SIGNED).rows
        assert [row["a"] for row in rows] == [0.0, 0.25, 0.0]
        for step, row in zip(chain.steps, rows):
            assert _exact(row.values) == _exact(evaluate(step, SIGNED).values)

    def test_only_the_downstream_cone_is_recomputed(self):
        calls = []

        def counting(base, aggregate):
            calls.append(base)
            return dfquad_influence(base, aggregate)

        sem = SemanticsDescriptor("counting", dfquad_aggregation, counting)
        # c supports a and nothing else: a sweep of c recomputes c and a only
        evaluate_chain(sweep_chain(dialogue_step3(), "c", [0.2, 0.3, 0.3, 0.6]), sem)
        assert len(calls) == 5 + 2 + 0 + 2
        calls.clear()
        # step 2 adds d -> a, b; step 3 adds e -> d; c is never recomputed
        evaluate_chain(dialogue(), sem)
        assert len(calls) == 3 + 3 + 4


class TestIncrementalStructure:
    """Parse, index and cycle check of extension steps equal the full ones.

    A step that extends its predecessor is validated, indexed and checked
    for cycles only where it grows.
    """

    @given(st.one_of(evolving_chains(), closing_chains()))
    def test_verdicts_equal_full_checks(self, chain):
        text = serialize_chain(chain)
        parsed = parse_chain(text)
        assert parsed == parse_chain_oracle(text) == chain
        verdicts = _validated(parsed)[0]
        assert verdicts == [is_acyclic(g) for g in chain]
        first = next((i for i, ok in enumerate(verdicts, start=1) if not ok), None)
        if first is None:
            evaluate_chain(parsed)
            return
        g = chain.steps[first - 1]
        with pytest.raises(CyclicGraph) as full:
            _ordered(g.args, _index(g).successors)
        with pytest.raises(CyclicGraph) as info:
            evaluate_chain(parsed)
        assert str(info.value) == f"step {first}: {full.value}"

    @pytest.mark.parametrize(
        "strategy",
        [evolving_chains(), closing_chains(), rewired_chains()],
        ids=["evolving", "closing", "rewired"],
    )
    @given(data=st.data())
    def test_each_verdict_is_the_full_check(self, strategy, data):
        # a rewired step takes the loop's rebuilt-step branch: a fresh index, every argument changed
        steps = data.draw(strategy).steps
        assert _validated(iter(steps))[0] == [is_acyclic(g) for g in steps]

    @given(st.one_of(evolving_chains(), closing_chains(), weak_expansion_chains()))
    def test_extended_index_equals_a_fresh_one(self, chain):
        for g, base, index, changed in _plans(chain):
            assert index == _index(g) == oracle_index(g)
            assert base.args <= g.args and base.att <= g.att and base.supp <= g.supp
            assert changed <= g.args

    def test_step_extending_a_cyclic_step_stays_cyclic(self):
        g = build_qbag([("a", 0.5), ("b", 0.5)], attacks=[("a", "b")])
        loop = build_qbag(g.tau.items(), attacks=[("a", "b")], supports=[("b", "a")])
        grown = build_qbag([*g.tau.items(), ("c", 0.5)], attacks=[("a", "b"), ("c", "a")],
                           supports=[("b", "a")])
        assert _validated(build_chain([g, loop, grown, g]))[0] == [True, False, False, True]
        with pytest.raises(CyclicGraph, match=r"^step 2: cycle through argument 'a'$"):
            evaluate_chain(build_chain([g, loop, grown]))

    def test_cycle_is_named_as_a_sort_of_the_whole_step_names_it(self):
        # the new support b -> c closes c -> b -> c; a sort of the cone
        # {b, c} meets it at b first, a sort of the whole step at c
        g = build_qbag([("a", 0.5), ("b", 0.5), ("c", 0.5)], attacks=[("a", "c"), ("c", "b")])
        h = build_qbag(g.tau.items(), attacks=g.att, supports=[("b", "c")])
        with pytest.raises(CyclicGraph, match=r"^cycle through argument 'c'$"):
            evaluate(h)
        with pytest.raises(CyclicGraph, match=r"^step 2: cycle through argument 'c'$"):
            evaluate_chain(build_chain([g, h]))

    def test_new_self_loop_is_a_cycle(self):
        g = dialogue_step1()
        h = build_qbag(g.tau.items(), attacks=[("b", "b")], supports=g.supp)
        assert _validated(build_chain([g, h]))[0] == [True, False]
        with pytest.raises(CyclicGraph, match=r"^step 2: cycle through argument 'b'$"):
            evaluate_chain(build_chain([g, h]))


class TestRowKeyOrder:
    """Rows are keyed by ascending argument id, a stated part of the API."""

    @given(st.one_of(chains(), shared_chains(), weak_expansion_chains(), evolving_chains()))
    def test_rows_are_keyed_by_ascending_id(self, chain):
        for g, row in zip(chain, evaluate_chain(chain).rows):
            assert list(row.values) == sorted(row.domain())
            assert list(evaluate(g).values) == sorted(g.args)


class TestContainment:
    @given(evolving_chains())
    def test_sub_qbag_matches_the_definition(self, chain):
        for g, h in zip(chain.steps, chain.steps[1:]):
            literal = (
                g.args <= h.args
                and g.att <= h.att
                and g.supp <= h.supp
                and all(g.tau[x] == h.tau[x] for x in g.args)
            )
            assert is_sub_qbag(g, h) == literal


def _outcome(run):
    """Every row's exact strengths, or the error's type and message."""
    try:
        return [_exact(row.values) for row in run().rows]
    except (CyclicGraph, StrengthOutOfRange) as exc:
        return type(exc), str(exc)


class TestStreamedSteps:
    """evaluate_chain and _validated take any iterable of steps, one step at a time."""

    @pytest.mark.parametrize("strategy", [evolving_chains(), rewired_chains()], ids=["evolving", "rewired"])
    @pytest.mark.parametrize("sem", [DFQUAD, SIGNED, UNBOUNDED], ids=["dfquad", "signed", "unbounded"])
    @given(data=st.data())
    def test_an_iterator_evaluates_as_its_chain(self, strategy, sem, data):
        steps = data.draw(strategy).steps
        assert _outcome(lambda: evaluate_chain(iter(steps), sem)) == _outcome(
            lambda: evaluate_chain(build_chain(steps), sem)
        )

    def test_an_empty_iterable_is_an_empty_chain(self):
        with pytest.raises(EmptyChain):
            evaluate_chain(iter(()))

    def test_the_input_is_read_to_its_end_before_an_evaluation_error(self):
        cyclic = build_qbag([("a", 0.5), ("b", 0.5)], attacks=[("a", "b")], supports=[("b", "a")])
        rest = iter([dialogue_step1()] * 3)
        with pytest.raises(CyclicGraph, match=r"^step 1: "):
            evaluate_chain(joined([cyclic], rest))
        assert next(rest, None) is None

    def test_an_error_reading_a_later_step_comes_first(self):
        cyclic = build_qbag([("a", 0.5), ("b", 0.5)], attacks=[("a", "b")], supports=[("b", "a")])

        def steps():
            yield dialogue_step1()
            yield cyclic
            yield dialogue_step1()
            raise DocumentError("steps[3]: unreadable")

        with pytest.raises(DocumentError, match=r"^steps\[3\]: unreadable$"):
            evaluate_chain(steps())

    @pytest.mark.parametrize(
        "strategy",
        [chains(), evolving_chains(), weak_expansion_chains(), closing_chains()],
        ids=["chains", "evolving", "weak", "closing"],
    )
    @given(data=st.data())
    def test_pairs_classify_the_chain(self, strategy, data):
        # each class is a property of every consecutive pair
        chain = data.draw(strategy)
        classes = (is_expansion_chain, is_normal_expansion_chain, is_weak_expansion_chain)
        kinds = [is_kind(chain) for is_kind in classes]
        assert kinds == [all(is_kind(build_chain(pair)) for pair in pairwise(chain)) for is_kind in classes]
        assert _validated(iter(chain.steps)) == ([is_acyclic(g) for g in chain], kinds)
