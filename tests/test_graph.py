"""Structure, validation, and ordering of single graphs, and the record contract."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from itertools import chain as joined
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbag import (
    DFQUAD,
    QBAG,
    CyclicGraph,
    DanglingEndpoint,
    DuplicateArgument,
    EmptyChain,
    EmptyTopicSet,
    InvalidArgumentId,
    QbagError,
    RelationOverlap,
    SemanticsDescriptor,
    SLFQuery,
    StrengthMatrix,
    StrengthOutOfRange,
    TopicNotInChain,
    UnknownArgument,
    UnknownSemantics,
    attackers,
    build_qbag,
    dfquad_aggregation,
    evaluate,
    evaluate_chain,
    fairness_line,
    fairness_report,
    fluctuation_count,
    is_acyclic,
    is_sub_qbag,
    reaches,
    parse_chain,
    restrict,
    semantics_by_name,
    serialize_chain,
    supporters,
    sweep_chain,
    topological_order,
)
import qbag.graph
from qbag.graph import _EMPTY, _build_each, _extend_index, _extend_qbag, _index, _Index, _ordered

from .cases import dialogue, dialogue_step1, dialogue_step2, dialogue_step3, sweep_base
from .oracles import oracle_index
from .runner import python
from .strategies import acyclic_qbags, arbitrary_qbags, exotic_qbags, signed_strengths


class TestBuild:
    def test_builds_support_only_graph(self):
        g = dialogue_step1()
        assert g.args == {"a", "b", "c"}
        assert g.tau == {"a": 0.5, "b": 0.7, "c": 0.2}
        assert g.att == frozenset()
        assert g.supp == {("c", "a")}

    def test_empty_graph(self):
        g = build_qbag([], attacks=[], supports=[])
        assert g.args == frozenset()
        assert is_acyclic(g)

    def test_duplicate_argument_rejected(self):
        with pytest.raises(DuplicateArgument):
            build_qbag([("a", 0.5), ("a", 0.5)])

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(DanglingEndpoint):
            build_qbag([("a", 0.5)], attacks=[("a", "z")])

    def test_relation_overlap_rejected(self):
        with pytest.raises(RelationOverlap):
            build_qbag([("a", 0.5)], attacks=[("a", "a")], supports=[("a", "a")])

    def test_strength_out_of_range_rejected(self):
        with pytest.raises(StrengthOutOfRange):
            build_qbag([("a", 1.5)])
        with pytest.raises(StrengthOutOfRange):
            build_qbag([("a", -0.1)])

    def test_bad_ids_rejected(self):
        for bad in ("", "a b", "a,b", None, 3):
            with pytest.raises(InvalidArgumentId):
                build_qbag([(bad, 0.5)])

    def test_id_rule_is_isspace_comma_and_surrogates(self):
        # every code point str.isspace() rejects, the comma, and every lone
        # surrogate (no UTF-8 output can hold one) is refused; one id
        # holding every other code point is accepted
        everything = [chr(code) for code in range(0x110000)]

        def refused(ch):
            return ch.isspace() or ch == "," or "\ud800" <= ch <= "\udfff"

        for ch in filter(refused, everything):
            with pytest.raises(InvalidArgumentId):
                build_qbag([(f"a{ch}b", 0.5)])
        allowed = "".join(ch for ch in everything if not refused(ch))
        assert build_qbag([(allowed, 0.5)]).args == {allowed}

    def test_dangling_reports_least_pair_attacks_first(self):
        with pytest.raises(
            DanglingEndpoint,
            match=r"^attacks pair \('b', 'x'\) references undeclared argument 'x'$",
        ):
            build_qbag(
                [("a", 0.5), ("b", 0.5)],
                attacks=[("z", "a"), ("b", "x"), ("y", "b")],
                supports=[("a", "c")],
            )
        with pytest.raises(DanglingEndpoint, match=r"^supports pair \('a', 'c'\)"):
            build_qbag([("a", 0.5)], supports=[("q", "r"), ("a", "c")])

    def test_self_loop_allowed_structurally(self):
        g = build_qbag([("a", 0.5)], attacks=[("a", "a")])
        assert not is_acyclic(g)


class Named(str):
    """An id that equals a plain one but is not of the exact type str."""


class Renamed(str):
    """An id whose str() is another id."""

    def __str__(self):
        return "renamed"


SPACES = [chr(code) for code in range(0x110000) if chr(code).isspace()]
ODD_IDS = st.one_of(
    st.sampled_from(["", ",", "x,y", "\ud800", "a\udfff", 7, None, 0.5, ("t",), ["m"]]),
    st.sampled_from([Named("a"), Named("q"), Renamed("b"), Renamed("renamed")]),
    st.sampled_from(SPACES).map(lambda space: f"a{space}b"),
)
ODD_STRENGTHS = st.sampled_from(
    ["0.5", " 0.25 ", "1e-3", "nan", "x", True, False, Fraction(1, 3), float("nan"),
     float("inf"), float("-inf"), -0.0, 10**400, 1.5, -0.1, None, 1, 0]
)
ODD_ENTRIES = st.sampled_from([["a", 0.5], ("a",), ("a", 0.5, 0.5), "a1", "b5", 3])


def odd_pairs(x, y):
    """Pairs of ids x and y that are not two plain strs, or that name an undeclared id."""
    return st.sampled_from(
        [[x, y], (x,), (x, y, x), x + y, (Named(x), y), (x, Renamed(y)), (x, 7), ("z", x), (x, "z")]
    )


BREAKING = ("id", "duplicate", "strength", "entry", "pair", "overlap", "big-after-bad-id")


def _shaped(items, shape):
    if shape == "list":
        return list(items)
    if shape == "tuple":
        return tuple(items)
    if shape == "generator":
        return (item for item in items)

    def raising():
        yield from items
        raise RuntimeError("the input failed")

    return raising()


@st.composite
def build_inputs(draw):
    """A function that makes fresh (args, attacks, supports) for build_qbag.

    The graph may break any rule, in one or two places, and each input is
    a list, a tuple, a generator, or a generator that raises at its end.
    """
    ids = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=1, max_size=6))
    entries = [(x, draw(st.one_of(signed_strengths, st.sampled_from([0, 1])))) for x in ids]
    pairs = [(x, y) for x in ids for y in ids]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))
    attacks = [p for p in edges if draw(st.booleans())]
    supports = [p for p in edges if p not in attacks]
    for broken in draw(st.lists(st.sampled_from(BREAKING), max_size=2)):
        at = draw(st.integers(0, len(entries)))
        if broken == "id":
            entries.insert(at, (draw(ODD_IDS), 0.5))
        elif broken == "duplicate":
            entries.insert(at, (draw(st.sampled_from(ids)), draw(signed_strengths)))
        elif broken == "strength":
            entries.insert(at, (draw(st.sampled_from("stuv")), draw(ODD_STRENGTHS)))
        elif broken == "entry":
            entries.insert(at, draw(ODD_ENTRIES))
        elif broken == "pair":
            relation = draw(st.sampled_from([attacks, supports]))
            x, y = draw(st.sampled_from(pairs))
            relation.insert(draw(st.integers(0, len(relation))), draw(odd_pairs(x, y)))
        elif broken == "overlap" and edges:
            pair = draw(st.sampled_from(edges))
            (supports if pair in attacks else attacks).append(pair)
        elif broken == "big-after-bad-id":
            entries[at:at] = [(draw(ODD_IDS), 0.5), ("w", 10**400)]
    shapes = draw(st.lists(st.sampled_from(["list", "tuple"]), min_size=3, max_size=3))
    if draw(st.booleans()):  # one input is read lazily, and may raise at its end
        shapes[draw(st.integers(0, 2))] = draw(st.sampled_from(["generator", "raising"]))
    return lambda: tuple(map(_shaped, (entries, attacks, supports), shapes))


def _built(build, inputs):
    """What build makes of the inputs: the graph, its key order, bits and types, or the error."""
    try:
        g = build(*inputs)
    except Exception as exc:
        return type(exc), str(exc)
    pairs = g.att | g.supp
    types = {type(p) for p in pairs}, {type(x) for x in joined(g.args, *pairs)}
    return g, list(g.tau), [v.hex() for v in g.tau.values()], types


class TestBuildAtOnce:
    """build_qbag checks lists and tuples in bulk; the loop of _build_each is the reference."""

    @given(build_inputs())
    @settings(max_examples=1000)
    def test_agrees_with_the_loop(self, make):
        assert _built(build_qbag, make()) == _built(_build_each, make())

    @given(arbitrary_qbags(), st.booleans())
    def test_valid_sequences_never_reach_the_loop(self, g, as_tuple):
        shape = tuple if as_tuple else list
        args = shape(g.tau.items())
        attacks, supports = shape(g.att), shape(g.supp)
        inputs = args, attacks, supports
        with mock.patch.object(qbag.graph, "_build_each", side_effect=AssertionError):
            assert _built(build_qbag, inputs) == _built(_build_each, inputs)

    @pytest.mark.parametrize("pair", [(Named("a"), "b"), ("a", Renamed("b")), ("a", Named("b"))])
    def test_a_str_subclass_endpoint_is_built_as_the_loop_builds_it(self, pair):
        # the loop makes each endpoint a plain str by str(), so a Renamed one dangles
        args = [("a", 0.5), ("b", 0.5)]
        assert _built(build_qbag, (args, [pair], [])) == _built(_build_each, (args, [pair], []))

    def test_the_callers_pair_tuples_are_kept(self):
        attacks, supports = [("a", "b")], [("b", "c")]
        g = build_qbag([("a", 0.5), ("b", 0.5), ("c", 0.5)], attacks, supports)
        assert next(iter(g.att)) is attacks[0] and next(iter(g.supp)) is supports[0]

    def test_an_overflowing_strength_does_not_beat_an_earlier_bad_id(self):
        with pytest.raises(InvalidArgumentId, match="got ''"):
            build_qbag([("", 0.5), ("b", 10**400)])


# beyond the float range, so float() raises OverflowError; repr(10**5000)
# raises ValueError past the interpreter's digit limit
OVERFLOWING = [10**400, -(10**400), 10**5000, Fraction(10**400)]
OVERFLOW_IDS = ["1e400", "-1e400", "1e5000", "Fraction-1e400"]


class TestOverflowingStrength:
    """A number beyond the float range is a StrengthOutOfRange wherever a strength is taken."""

    @pytest.mark.parametrize("value", OVERFLOWING, ids=OVERFLOW_IDS)
    @pytest.mark.parametrize("shape", [list, iter], ids=["list", "iterator"])
    def test_build_qbag(self, value, shape):
        message = r"^initial strength of 'a': beyond the float range, outside \[0, 1\]$"
        with pytest.raises(StrengthOutOfRange, match=message):
            build_qbag(shape([("a", value)]))

    @pytest.mark.parametrize("value", OVERFLOWING, ids=OVERFLOW_IDS)
    def test_sweep_chain(self, value):
        message = r"^sweep value for 'a': beyond the float range, outside \[0, 1\]$"
        with pytest.raises(StrengthOutOfRange, match=message):
            sweep_chain(dialogue_step1(), "a", [0.5, value])

    @pytest.mark.parametrize("value", OVERFLOWING, ids=OVERFLOW_IDS)
    def test_query_threshold(self, value):
        message = r"^threshold: beyond the float range, outside \[0, 1\]$"
        with pytest.raises(StrengthOutOfRange, match=message):
            SLFQuery(topics=frozenset({"a"}), threshold=value)


BEYOND_REPR = [10**5000, Fraction(10**5000)]  # repr raises ValueError past 4300 digits
_UNKNOWN = "argument {short} not in graph"


def _step1_matrix():
    return evaluate_chain([dialogue_step1()])


class TestIdWithoutRepr:
    """A value with no repr is named by a short description in the library's own error."""

    @pytest.mark.parametrize("value", BEYOND_REPR, ids=["int", "Fraction"])
    @pytest.mark.parametrize(
        ("call", "error", "message"),
        [
            (lambda v: build_qbag([(v, 0.5)]), InvalidArgumentId,
             "argument id must be a non-empty string, got {short}"),
            (lambda v: build_qbag(iter([("a", 0.5)]), iter([("a", v)])), InvalidArgumentId,
             "attacks pair ('a', {short}): an endpoint has no str"),
            (lambda v: build_qbag([("a", 0.5)], supports=[(v, "a")]), InvalidArgumentId,
             "supports pair ({short}, 'a'): an endpoint has no str"),
            (lambda v: build_qbag([("a", [v])]), StrengthOutOfRange,
             "initial strength of 'a': <list too long to show> is not a number"),
            (lambda v: sweep_chain(dialogue_step1(), v, [0.5]), UnknownArgument, _UNKNOWN),
            (lambda v: attackers(dialogue_step1(), v), UnknownArgument, _UNKNOWN),
            (lambda v: supporters(dialogue_step1(), v), UnknownArgument, _UNKNOWN),
            (lambda v: reaches(dialogue_step1(), "a", v), UnknownArgument, _UNKNOWN),
            (lambda v: restrict(dialogue_step1(), ["a", v]), UnknownArgument, _UNKNOWN),
            (lambda v: fluctuation_count(_step1_matrix(), v, 0.5), TopicNotInChain,
             "argument {short} missing from step 1"),
            (lambda v: fairness_report(_step1_matrix(), SLFQuery([v], 0.5)), TopicNotInChain,
             "argument {short} missing from step 1"),
            (semantics_by_name, UnknownSemantics, "unknown semantics {short} (known: dfquad)"),
            (lambda v: evaluate(dialogue_step1(), SemanticsDescriptor("huge", dfquad_aggregation,
                                                                      lambda base, agg: v)),
             StrengthOutOfRange, "semantics 'huge': influence left [0, 1]: {short} for 'c'"),
        ],
        ids=["id", "attack-endpoint", "support-endpoint", "strength", "sweep_chain", "attackers",
             "supporters", "reaches", "restrict", "fluctuation_count", "fairness_report",
             "semantics_by_name", "influence"],
    )
    def test_the_error_is_the_library_one(self, call, error, message, value):
        with pytest.raises(error) as info:
            call(value)
        assert str(info.value) == message.format(short=f"<{type(value).__name__} too long to show>")


# what a step may break: ids, uniqueness, endpoints, disjointness; the
# reader has checked that every strength is an int or float in [0, 1] and
# that every pair is two strings
BREAKS = ("none", "bad-id", "old-id-again", "new-id-twice", "unhashable-id", "non-str-id",
          "dangling", "overlap", "drop-id")


@st.composite
def steps_after(draw):
    """(prev, ids, values, attacks, supports) for a step that follows the graph prev.

    The step extends prev, rewires prev's ids (fresh strengths and edges),
    or is drawn afresh, and then breaks at most one rule.  Edges include
    self-loops.
    """
    prev = draw(st.one_of(arbitrary_qbags(), st.just(_EMPTY)))
    kind = draw(st.sampled_from(["extension", "rewired", "fresh"]))
    if kind == "fresh":
        ids = draw(st.lists(st.sampled_from("abcdefghij"), unique=True, max_size=8))
    else:
        ids = sorted(prev.args)
        if kind == "extension":
            ids += draw(st.lists(st.sampled_from("ijkl"), unique=True, max_size=3))
    pairs = [(x, y) for x in ids for y in ids]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else []
    attacks = [p for p in edges if p not in prev.supp and draw(st.booleans())]
    supports = [p for p in edges if p not in attacks and p not in prev.att]
    if kind == "extension":
        attacks = sorted(prev.att) + [p for p in attacks if p not in prev.att]
        supports = sorted(prev.supp) + [p for p in supports if p not in prev.supp]
    ids = list(draw(st.permutations(ids)))
    values = [draw(st.one_of(signed_strengths, st.sampled_from([0, 1]))) for _ in ids]
    broken = draw(st.sampled_from(BREAKS))
    extra = {
        "bad-id": draw(st.sampled_from(["", "a b", "x,y", "\ud800", "n\n"])),
        "old-id-again": draw(st.sampled_from(ids)) if ids else "a",
        "unhashable-id": ["m"],
        "non-str-id": draw(st.sampled_from([7, None, 0.5])),
    }
    if broken in extra:
        ids.insert(draw(st.integers(0, len(ids))), extra[broken])
        values.append(0.5)
    elif broken == "new-id-twice":
        ids += ["z", "z"]
        values += [0.5, 0.25]
    elif broken == "dangling":
        relation = draw(st.sampled_from([attacks, supports]))
        end = ids[0] if ids else "z"
        relation.append(draw(st.sampled_from([("z", end), (end, "z")])))
    elif broken == "overlap" and attacks + supports:  # an old pair of prev's, or a new one
        pair = draw(st.sampled_from(attacks + supports))
        (supports if pair in attacks else attacks).append(pair)
    elif broken == "drop-id" and ids:
        i = draw(st.integers(0, len(ids) - 1))
        del ids[i], values[i]
    return prev, ids, values, attacks, supports


class TestExtendQbag:
    """graph._extend_qbag builds every valid step; the loop of _build_each is the reference."""

    @given(steps_after(), st.booleans())
    @settings(max_examples=500)
    def test_agrees_with_build_qbag(self, step, as_tuple):
        prev, ids, values, attacks, supports = step
        try:
            expected = _build_each(zip(ids, values), attacks, supports)
        except QbagError:
            expected = None
        found = _extend_qbag(prev, tuple(ids) if as_tuple else ids, values, attacks, supports)
        if expected is None:
            assert found is None
            return
        assert found == expected
        assert {x: v.hex() for x, v in found.tau.items()} == {
            x: v.hex() for x, v in expected.tau.items()
        }

    def test_an_extension_keeps_the_pair_tuples_of_prev(self):
        prev = dialogue_step2()
        g = dialogue_step3()
        ids = sorted(g.args)
        found = _extend_qbag(prev, ids, [g.tau[x] for x in ids], list(g.att), list(g.supp))
        assert found == g
        kept = {p: p for p in found.att | found.supp}
        assert all(kept[p] is p for p in prev.att | prev.supp)

    def test_the_argument_set_is_no_larger_than_build_qbags(self):
        # a set grown an id at a time gets twice the table of one built from a dict
        ids = [f"a{i}" for i in range(100)]
        found = _extend_qbag(_EMPTY, ids, [0.5] * 100, [], [])
        assert sys.getsizeof(found.args) <= sys.getsizeof(build_qbag(zip(ids, [0.5] * 100)).args)

    def test_a_rewired_step_checks_no_id_of_prev(self, monkeypatch):
        prev = dialogue_step3()
        ids = sorted(prev.args) + ["f"]
        checked = []
        original = qbag.graph._valid_ids
        monkeypatch.setattr(
            qbag.graph, "_valid_ids", lambda ids: checked.extend(ids) or original(ids)
        )
        found = _extend_qbag(prev, ids, [0.5] * 6, [("a", "b")], [("f", "a")])
        assert checked == ["f"]
        assert found == build_qbag([(x, 0.5) for x in ids], [("a", "b")], [("f", "a")])


class TestNeighbors:
    def test_attackers_of_a_in_expanded_graph(self):
        assert attackers(dialogue_step2(), "a") == {"d"}

    def test_no_attackers_in_seed_graph(self):
        assert attackers(dialogue_step1(), "a") == set()

    def test_attackers_of_d_in_final_graph(self):
        assert attackers(dialogue_step3(), "d") == {"e"}

    def test_supporters(self):
        assert supporters(dialogue_step1(), "a") == {"c"}
        assert supporters(dialogue_step1(), "c") == set()
        assert supporters(sweep_base(), "e") == {"f"}

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            attackers(dialogue_step1(), "z")
        with pytest.raises(UnknownArgument):
            supporters(dialogue_step1(), "z")


class TestIndex:
    @given(st.one_of(arbitrary_qbags(), exotic_qbags()))
    def test_index_equals_edge_scans(self, g):
        assert _index(g) == oracle_index(g)

    @given(arbitrary_qbags())
    def test_sorted_build_equals_the_insort_build(self, g):
        index = _Index({}, {}, {})
        _extend_index(index, g.args, g.att, g.supp)
        assert _index(g) == index


class TestReaches:
    def test_two_hop_path(self):
        assert reaches(dialogue_step3(), "e", "a")  # e -> d -> a

    def test_no_outgoing_edges(self):
        assert not reaches(dialogue_step1(), "a", "c")

    def test_self_reach_needs_cycle(self):
        assert not reaches(dialogue_step3(), "c", "c")

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            reaches(dialogue_step1(), "a", "z")

    def test_an_argument_whose_successors_are_every_argument(self):
        # a's successors are the whole graph, a itself included
        g = build_qbag([("a", 0.5), ("b", 0.5)], attacks=[("a", "a")], supports=[("a", "b")])
        assert reaches(g, "a", "a") and reaches(g, "a", "b")
        assert not reaches(g, "b", "a") and not reaches(g, "b", "b")

    @given(st.one_of(arbitrary_qbags(), exotic_qbags()))
    def test_matches_transitive_closure_oracle(self, g):
        names = sorted(g.args)
        index = {x: i for i, x in enumerate(names)}
        n = len(names)
        closure = [[False] * n for _ in range(n)]
        for s, t in g.att | g.supp:
            closure[index[s]][index[t]] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    closure[i][j] = closure[i][j] or (
                        closure[i][k] and closure[k][j]
                    )
        for x in names:
            for y in names:
                assert reaches(g, x, y) == closure[index[x]][index[y]]


class TestAcyclicity:
    def test_final_dialogue_graph_is_acyclic(self):
        assert is_acyclic(dialogue_step3())

    def test_two_cycle(self):
        g = build_qbag([("a", 0.5), ("b", 0.5)], attacks=[("a", "b")], supports=[("b", "a")])
        assert not is_acyclic(g)

    def test_empty(self):
        assert is_acyclic(build_qbag([]))

    @given(arbitrary_qbags())
    def test_matches_self_reachability(self, g):
        assert is_acyclic(g) == all(not reaches(g, x, x) for x in g.args)


class TestImmutable:
    @staticmethod
    def graphs():
        """One graph from each construction path."""
        swept = sweep_chain(sweep_base(), "f", [0.3, 0.6])
        parsed = parse_chain(serialize_chain(swept))  # step 2 shares step 1's structure
        return {
            "build_qbag": dialogue_step3(),
            "restrict": restrict(dialogue_step3(), {"a", "c"}),
            "sweep_chain": swept.steps[1],
            "parse_chain": parsed.steps[1],
            "constructor": QBAG(frozenset({"a"}), {"a": 0.5}, frozenset(), frozenset()),
        }

    @pytest.mark.parametrize(
        "path", ["build_qbag", "restrict", "sweep_chain", "parse_chain", "constructor"]
    )
    def test_tau_is_read_only(self, path):
        g = self.graphs()[path]
        x = min(g.args)
        with pytest.raises(TypeError):
            g.tau[x] = 7.0
        with pytest.raises(TypeError):
            del g.tau[x]

    def test_constructor_copies_the_mapping_it_is_given(self):
        tau = {"a": 0.5}
        g = QBAG(frozenset({"a"}), tau, frozenset(), frozenset())
        tau["a"] = 7.0
        assert g.tau == {"a": 0.5}

    def test_equal_graphs_hash_equal(self):
        assert hash(dialogue_step3()) == hash(dialogue_step3())
        assert len({dialogue_step1(), dialogue_step1(), dialogue_step2()}) == 2
        parsed = parse_chain(serialize_chain(sweep_chain(sweep_base(), "f", [0.1])))
        assert parsed.steps[0] == sweep_base() and hash(parsed.steps[0]) == hash(sweep_base())

    @given(acyclic_qbags())
    def test_hash_is_consistent_with_equality(self, g):
        rebuilt = build_qbag(g.tau.items(), attacks=g.att, supports=g.supp)
        assert rebuilt == g and hash(rebuilt) == hash(g)


class TestRestrict:
    def test_dropping_the_last_arrival_recovers_previous_step(self):
        g = restrict(dialogue_step3(), {"a", "b", "c", "d"})
        assert g == dialogue_step2()

    def test_identity(self):
        g = dialogue_step3()
        assert restrict(g, g.args) == g

    def test_empty_restriction(self):
        g = restrict(dialogue_step3(), set())
        assert g == build_qbag([])

    def test_unknown_argument(self):
        with pytest.raises(UnknownArgument):
            restrict(dialogue_step1(), {"z"})

    def test_the_result_does_not_depend_on_the_hash_seed(self):
        # the strengths keep g's key order, and the first unknown id given is named
        code = (
            "from qbag import build_qbag, restrict\n"
            "g = build_qbag([(x, 0.5) for x in 'hbcfaegd'])\n"
            "print(list(restrict(g, set('abcfh')).tau))\n"
            "restrict(g, ['a', 'z', 'y', 'x'])\n"
        )
        src = str(Path(qbag.graph.__file__).parents[1])
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run(python("-c", code), env=env, capture_output=True)
            assert run.stdout == b"['h', 'b', 'c', 'f', 'a']\n"
            assert run.stderr.endswith(b"UnknownArgument: argument 'z' not in graph\n")

    def test_a_bare_str_is_refused(self):
        # set("ab") is {"a", "b"}
        with pytest.raises(TypeError, match=r"^keep must be a collection of ids, not the str 'ab'$"):
            restrict(build_qbag([("a", 0.5), ("b", 0.5)]), "ab")

    @given(acyclic_qbags(), st.data())
    def test_restriction_is_sub_qbag(self, g, data):
        keep = data.draw(
            st.sets(st.sampled_from(sorted(g.args)), max_size=len(g.args))
            if g.args
            else st.just(set())
        )
        assert is_sub_qbag(restrict(g, keep), g)


class TestSubQbag:
    def test_dialogue_steps_nest(self):
        assert is_sub_qbag(dialogue_step1(), dialogue_step2())
        assert is_sub_qbag(dialogue_step2(), dialogue_step3())
        assert not is_sub_qbag(dialogue_step2(), dialogue_step1())

    def test_reflexive(self):
        g = dialogue_step2()
        assert is_sub_qbag(g, g)

    def test_strength_disagreement_breaks_containment(self):
        g = build_qbag([("a", 0.5)])
        h = build_qbag([("a", 0.6)])
        assert not is_sub_qbag(g, h)

    @given(arbitrary_qbags())
    def test_reflexive_on_random_graphs(self, g):
        assert is_sub_qbag(g, g)

    @given(acyclic_qbags(), st.data())
    def test_transitive_via_nested_restrictions(self, g, data):
        if not g.args:
            return
        outer = data.draw(st.sets(st.sampled_from(sorted(g.args)), max_size=len(g.args)))
        inner = data.draw(
            st.sets(st.sampled_from(sorted(outer)), max_size=len(outer))
            if outer
            else st.just(set())
        )
        small, mid = restrict(g, inner), restrict(g, outer)
        assert is_sub_qbag(small, mid)
        assert is_sub_qbag(mid, g)
        assert is_sub_qbag(small, g)


class TestTopologicalOrder:
    def test_seed_graph_order(self):
        assert topological_order(dialogue_step1()) == ["c", "b", "a"]

    def test_single_argument(self):
        assert topological_order(build_qbag([("x", 0.3)])) == ["x"]

    def test_two_cycle_raises(self):
        g = build_qbag(
            [("a", 0.5), ("b", 0.5)], attacks=[("a", "b")], supports=[("b", "a")]
        )
        with pytest.raises(CyclicGraph, match=r"^cycle through argument 'a'$"):
            topological_order(g)

    @given(arbitrary_qbags())
    def test_succeeds_iff_acyclic_and_respects_edges(self, g):
        if is_acyclic(g):
            order = topological_order(g)
            assert sorted(order) == sorted(g.args)
            position = {x: i for i, x in enumerate(order)}
            for s, t in g.att | g.supp:
                assert position[s] < position[t]
        else:
            with pytest.raises(CyclicGraph):
                topological_order(g)

    @given(acyclic_qbags())
    def test_deterministic(self, g):
        assert topological_order(g) == topological_order(g)

    @given(arbitrary_qbags().filter(is_acyclic), st.data())
    def test_a_walk_orders_the_seeds_and_all_they_reach(self, g, data):
        seeds = data.draw(st.sets(st.sampled_from(sorted(g.args))) if g.args else st.just(set()))
        successors = _index(g).successors
        order = _ordered(seeds, successors)
        reached = seeds | {y for x in seeds for y in g.args if reaches(g, x, y)}
        assert len(order) == len(reached) and set(order) == reached
        position = {x: i for i, x in enumerate(order)}
        for s, t in g.att | g.supp:
            if s in position:
                assert position[s] < position[t]
        assert _ordered(g.args, successors) == topological_order(g)


def _records():
    """One value of every record class, by class name."""
    matrix = evaluate_chain(dialogue())
    query = SLFQuery(topics=frozenset("abc"), threshold=0.2)
    records = [
        dialogue_step3(),
        dialogue(),
        matrix,
        DFQUAD,
        evaluate(dialogue_step3()),
        query,
        fairness_line(matrix, query),
        fairness_report(matrix, query),
    ]
    return {type(r).__name__: r for r in records}


RECORD_NAMES = [
    "QBAG", "Chain", "StrengthMatrix", "SemanticsDescriptor",
    "StrengthAssignment", "SLFQuery", "FairnessLine", "FairnessReport",
]


class TestRecordContract:
    """Every record keeps the contract of the frozen dataclass it replaced."""

    @staticmethod
    def as_dataclass(record):
        """The frozen dataclass with the record's name, fields and values."""
        fields = type(record).__match_args__
        cls = dataclasses.make_dataclass(type(record).__name__, fields, frozen=True)
        return cls(*(getattr(record, name) for name in fields))

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        record = _records()[name]
        field = type(record).__match_args__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            record.extra = 1

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_positional_and_keyword_construction_agree(self, name):
        record = _records()[name]
        fields = type(record).__match_args__
        values = [getattr(record, f) for f in fields]
        assert type(record)(*values) == type(record)(**dict(zip(fields, values))) == record

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_construction_refuses_a_wrong_set_of_fields(self, name):
        record = _records()[name]
        cls, fields = type(record), type(record).__match_args__
        values = [getattr(record, f) for f in fields]
        calls = {
            "a missing field": lambda: cls(*values[:-1]),
            "an unknown keyword": lambda: cls(*values, extra=1),
            "a field given both ways": lambda: cls(values[0], **dict(zip(fields, values))),
            "one positional too many": lambda: cls(*values, None),
        }
        for what, call in calls.items():
            with pytest.raises(TypeError, match=name):
                call()
                pytest.fail(f"{name} accepted {what}")

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_equality_is_by_type_and_fields(self, name):
        record, twin = _records()[name], _records()[name]
        assert record == twin and not record != twin
        assert record != self.as_dataclass(record)
        assert record != object()

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_hash_and_repr_match_the_dataclass(self, name):
        record = _records()[name]
        model = self.as_dataclass(record)
        if name == "QBAG":  # its own hash and repr: structure only, sorted
            assert hash(record) == hash((record.args, record.att, record.supp))
            assert repr(record).startswith("QBAG(args=['a', 'b', 'c', 'd', 'e'], att=")
            return
        assert repr(record) == repr(model)
        try:
            expected = hash(model)
        except TypeError:  # a read-only mapping field, hashed as the set of its items
            assert hash(record) == hash(_records()[name])
        else:
            assert hash(record) == expected == hash(_records()[name])

    @pytest.mark.parametrize("name, field", [
        ("QBAG", "tau"), ("StrengthAssignment", "values"),
        ("FairnessReport", "exceed_counts"), ("FairnessReport", "p"),
    ])
    def test_mapping_fields_are_read_only_copies(self, name, field):
        record = _records()[name]
        mapping = getattr(record, field)
        key = next(iter(mapping))
        with pytest.raises(TypeError):
            mapping[key] = 9
        given = dict(mapping)
        values = [given if f == field else getattr(record, f) for f in type(record).__match_args__]
        built = type(record)(*values)
        given[key] = 9  # the record holds a copy
        assert built == record and getattr(built, field)[key] != 9
        assert hash(built) == hash(record)

    def test_repr_names_every_field(self):
        query = SLFQuery(topics=frozenset({"a"}), threshold=0.5)
        assert repr(query) == "SLFQuery(topics=frozenset({'a'}), threshold=0.5)"

    @pytest.mark.parametrize("name", RECORD_NAMES)
    def test_copy_and_pickle_give_an_equal_value(self, name):
        record = _records()[name]
        assert vars(record).keys() == set(type(record).__match_args__)
        for duplicate in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(duplicate) is type(record)
            assert duplicate == record
        rebuilt = pickle.loads(pickle.dumps(record))
        if name == "QBAG":
            with pytest.raises(TypeError):  # still read-only
                rebuilt.tau["a"] = 1.0

    def test_checks_run_on_construction(self):
        with pytest.raises(EmptyTopicSet):
            SLFQuery(topics=frozenset(), threshold=0.5)
        with pytest.raises(StrengthOutOfRange):
            SLFQuery(topics=frozenset("a"), threshold=1.5)
        with pytest.raises(EmptyChain):
            StrengthMatrix(rows=())
        tau = {"a": 0.5}
        g = QBAG(args=frozenset(tau), tau=tau, att=frozenset(), supp=frozenset())
        assert type(g.tau) is not dict and g.tau == tau
