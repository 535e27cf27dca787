"""Document round-trips, parse errors, and CSV layouts."""

import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbag import (
    DanglingEndpoint,
    DocumentError,
    DuplicateArgument,
    EmptyChain,
    InvalidArgumentId,
    QbagError,
    RelationOverlap,
    SLFQuery,
    StrengthOutOfRange,
    build_chain,
    build_qbag,
    evaluate_chain,
    export_curve_csv,
    export_strengths_csv,
    fairness_report,
    parse_chain,
    parse_qbag,
    report_to_dict,
    serialize_chain,
    serialize_qbag,
    sweep_chain,
)

from qbag.serialize import _canonical_steps

from .cases import dialogue, dialogue_step1, dialogue_step3, sweep_base, sweep_dialogue
from .oracles import canonical_json, chain_document, parse_chain_oracle, qbag_document
from .strategies import (
    acyclic_qbags,
    arbitrary_qbags,
    chains,
    closing_chains,
    evolving_chains,
    exotic_qbags,
    json_values,
    mutated_documents,
    near_documents,
    shared_chains,
    strengths,
    weak_expansion_chains,
)

ERROR_CORPUS = json.loads(
    (Path(__file__).parent / "error_corpus.json").read_text(encoding="utf-8")
)

SEED_DOCUMENT = """
{
  "format_version": "1",
  "kind": "qbag",
  "arguments": [
    {"id": "a", "initial": 0.5},
    {"id": "b", "initial": 0.7},
    {"id": "c", "initial": 0.2}
  ],
  "attacks": [],
  "supports": [["c", "a"]]
}
"""


class TestParseQbag:
    def test_parses_seed_document(self):
        assert parse_qbag(SEED_DOCUMENT) == dialogue_step1()

    def test_out_of_range_strength(self):
        doc = SEED_DOCUMENT.replace("0.5", "1.5")
        with pytest.raises(StrengthOutOfRange, match=r"arguments\[0\].initial"):
            parse_qbag(doc)

    def test_truncated_document(self):
        with pytest.raises(DocumentError, match="line"):
            parse_qbag(SEED_DOCUMENT[: len(SEED_DOCUMENT) // 2])

    def test_unknown_kind(self):
        doc = SEED_DOCUMENT.replace('"qbag"', '"mystery"')
        with pytest.raises(DocumentError, match="unknown kind"):
            parse_qbag(doc)

    def test_kind_mismatch(self):
        with pytest.raises(DocumentError, match="expected kind 'chain'"):
            parse_chain(SEED_DOCUMENT)

    def test_missing_format_version(self):
        doc = json.dumps({"kind": "qbag", "arguments": [], "attacks": [], "supports": []})
        with pytest.raises(DocumentError, match="format_version"):
            parse_qbag(doc)

    def test_unsupported_format_version(self):
        data = json.loads(SEED_DOCUMENT)
        data["format_version"] = "99"
        with pytest.raises(DocumentError, match="format_version '99'"):
            parse_qbag(json.dumps(data))

    def test_unknown_top_level_key(self):
        data = json.loads(SEED_DOCUMENT)
        data["comment"] = "ignored until now"
        with pytest.raises(DocumentError, match="unknown top-level keys: \\['comment'\\]"):
            parse_qbag(json.dumps(data))

    def test_deep_nesting(self):
        with pytest.raises(DocumentError, match="nested too deeply"):
            parse_qbag("[" * 100_000)

    def test_duplicate_argument_keeps_specific_type(self):
        data = json.loads(SEED_DOCUMENT)
        data["arguments"].append({"id": "a", "initial": 0.5})
        with pytest.raises(DuplicateArgument):
            parse_qbag(json.dumps(data))

    def test_relation_overlap_keeps_specific_type(self):
        data = json.loads(SEED_DOCUMENT)
        data["attacks"] = [["c", "a"]]
        with pytest.raises(RelationOverlap):
            parse_qbag(json.dumps(data))

    def test_non_numeric_initial(self):
        data = json.loads(SEED_DOCUMENT)
        data["arguments"][0]["initial"] = "high"
        with pytest.raises(DocumentError, match=r"arguments\[0\].initial"):
            parse_qbag(json.dumps(data))

    def test_malformed_edge(self):
        data = json.loads(SEED_DOCUMENT)
        data["supports"] = [["c"]]
        with pytest.raises(DocumentError, match=r"supports\[0\]"):
            parse_qbag(json.dumps(data))

    def test_unknown_argument_keys(self):
        data = json.loads(SEED_DOCUMENT)
        data["arguments"][1]["inital"] = 0.9
        data["arguments"][1]["weight"] = 2
        with pytest.raises(
            DocumentError, match=r"^arguments\[1\]: unknown keys: \['inital', 'weight'\]$"
        ):
            parse_qbag(json.dumps(data))

    def test_dangling_report_is_least_pair(self):
        data = json.loads(SEED_DOCUMENT)
        data["attacks"] = [["z", "a"], ["a", "y"], ["x", "b"]]
        data["supports"] = [["c", "a"], ["a", "w"]]
        with pytest.raises(
            DanglingEndpoint,
            match=r"^document: attacks pair \('a', 'y'\) references undeclared argument 'y'$",
        ):
            parse_qbag(json.dumps(data))


@pytest.mark.parametrize("case", ERROR_CORPUS, ids=[case["name"] for case in ERROR_CORPUS])
def test_error_corpus(case):
    """Malformed documents keep the error type, message and check precedence."""
    parse = parse_qbag if case["parse"] == "qbag" else parse_chain
    with pytest.raises(QbagError) as info:
        parse(case["text"])
    assert (type(info.value).__name__, str(info.value)) == (case["error"], case["message"])


class TestParseChain:
    def test_inline_steps(self):
        doc = serialize_chain(dialogue())
        assert parse_chain(doc) == dialogue()

    def test_zero_steps(self):
        doc = json.dumps({"format_version": "1", "kind": "chain", "steps": []})
        with pytest.raises(EmptyChain):
            parse_chain(doc)

    def test_unknown_step_keys(self):
        # misspelt keys used to be ignored, silently dropping the edges
        data = json.loads(serialize_chain(dialogue()))
        data["steps"][1]["atacks"] = [["a", "a"]]
        with pytest.raises(DocumentError, match=r"^steps\[1\]: unknown keys: \['atacks'\]$"):
            parse_chain(json.dumps(data))

    def test_unknown_argument_keys_in_step(self):
        data = json.loads(serialize_chain(dialogue()))
        data["steps"][2]["arguments"][0]["inital"] = 0.9
        with pytest.raises(
            DocumentError, match=r"^steps\[2\]\.arguments\[0\]: unknown keys: \['inital'\]$"
        ):
            parse_chain(json.dumps(data))

    def test_repeated_structure_is_shared(self):
        c = parse_chain(serialize_chain(sweep_chain(sweep_base(), "f", [0.1, 0.5, 0.9])))
        first, *rest = c.steps
        for g in rest:
            assert g.args is first.args and g.att is first.att and g.supp is first.supp
        assert [g.tau["f"] for g in c.steps] == [0.1, 0.5, 0.9]

    def test_changed_structure_is_validated_again(self):
        data = json.loads(serialize_chain(sweep_chain(sweep_base(), "f", [0.1, 0.5])))
        data["steps"][1]["attacks"].append(["f", "z"])
        with pytest.raises(DanglingEndpoint, match=r"^steps\[1\]: attacks pair"):
            parse_chain(json.dumps(data))

    def test_step_errors_carry_step_path(self):
        data = json.loads(serialize_chain(dialogue()))
        data["steps"][1]["arguments"][0]["initial"] = 2.0
        with pytest.raises(StrengthOutOfRange, match=r"steps\[1\].arguments\[0\]"):
            parse_chain(json.dumps(data))


def _outcome(parse, text):
    try:
        return parse(text)
    except QbagError as exc:
        return type(exc), str(exc)


def _sharing(text):
    """Whether each step shares its frozensets with the step before.

    A step shares them when its ids and its raw attack and support lists
    are == to the previous step's.
    """
    steps = json.loads(text)["steps"]
    keys = [
        ([a["id"] for a in step["arguments"]], step["attacks"], step["supports"])
        for step in steps
    ]
    return [a == b for a, b in zip(keys, keys[1:])]


def _assert_parse_parity(text):
    """parse_chain agrees with the full per-step parse: value, sharing, or error."""
    expected = _outcome(parse_chain_oracle, text)
    found = _outcome(parse_chain, text)
    assert found == expected
    if isinstance(expected, tuple):  # both raised
        return
    assert serialize_chain(found) == serialize_chain(expected)  # floats stay floats
    shared = [
        (g.args is f.args, g.att is f.att, g.supp is f.supp)
        for f, g in zip(found.steps, found.steps[1:])
    ]
    assert shared == [(same,) * 3 for same in _sharing(text)]


def _corpus_texts(case):
    """The corpus text, and a qbag document's payload as a chain step.

    The payload is also put after an empty step, which every step
    contains, so its errors are met on the extension path.
    """
    yield case["text"]
    try:
        doc = json.loads(case["text"])
    except (ValueError, RecursionError):
        return
    if isinstance(doc, dict) and doc.get("kind") == "qbag" and doc.get("format_version") == "1":
        payload = {k: v for k, v in doc.items() if k not in ("format_version", "kind")}
        empty = {"arguments": [], "attacks": [], "supports": []}
        for steps in ([payload], [empty, payload]):
            yield json.dumps({"format_version": "1", "kind": "chain", "steps": steps})


class TestParseParity:
    """Steps that extend their predecessor are checked only where they grow."""

    @given(
        mutated_documents(
            st.one_of(
                weak_expansion_chains(), evolving_chains(), shared_chains(), closing_chains()
            ).map(serialize_chain)
        )
    )
    @settings(max_examples=300)
    def test_mutated_canonical_documents(self, text):
        _assert_parse_parity(text)

    @pytest.mark.parametrize("case", ERROR_CORPUS, ids=[case["name"] for case in ERROR_CORPUS])
    def test_error_corpus(self, case):
        for text in _corpus_texts(case):
            _assert_parse_parity(text)

    def test_string_pair_is_not_a_pair(self):
        # tuple("ab") == ("a", "b"): the shape of every pair is checked,
        # also in a step that extends the previous one
        data = json.loads(serialize_chain(dialogue()))
        data["steps"][2]["attacks"][0] = "da"
        with pytest.raises(
            DocumentError, match=r"^steps\[2\]\.attacks\[0\]: expected a \[source, target\] pair"
        ):
            parse_chain(json.dumps(data))

    @pytest.mark.parametrize(
        ("step", "edit", "error", "message"),
        [
            (1, lambda s: s["arguments"].append({"id": "a", "initial": 0.1}), DuplicateArgument,
             "steps[1]: argument 'a' declared twice"),
            (1, lambda s: s["arguments"].append({"id": "x y", "initial": 0.1}), InvalidArgumentId,
             "steps[1]: argument id 'x y' contains whitespace or a comma"),
            (1, lambda s: s["supports"].append(["d", "z"]), DanglingEndpoint,
             "steps[1]: supports pair ('d', 'z') references undeclared argument 'z'"),
            (1, lambda s: s["supports"].append(["d", "a"]), RelationOverlap,
             "steps[1]: pairs in both attacks and supports: [('d', 'a')]"),
            # d attacks a since step 1; the support is new
            (2, lambda s: s["supports"].append(["d", "a"]), RelationOverlap,
             "steps[2]: pairs in both attacks and supports: [('d', 'a')]"),
        ],
        ids=["old-id-again", "bad-new-id", "dangling-new-pair", "new-overlap", "old-overlap"],
    )
    def test_extension_errors_keep_their_wording(self, step, edit, error, message):
        data = json.loads(serialize_chain(dialogue()))
        edit(data["steps"][step])
        with pytest.raises(error) as info:
            parse_chain(json.dumps(data))
        assert str(info.value) == message

    def test_integer_strengths_become_floats_in_extension_steps(self):
        data = json.loads(serialize_chain(dialogue()))
        data["steps"][1]["arguments"][3]["initial"] = 1
        data["steps"][2]["arguments"][4]["initial"] = 0
        c = parse_chain(json.dumps(data))
        assert [type(v) for g in c for v in g.tau.values()] == [float] * 12
        assert c == parse_chain_oracle(json.dumps(data))

    def test_extension_reuses_the_previous_pair_tuples(self):
        c = parse_chain(serialize_chain(dialogue()))
        for g, h in zip(c.steps, c.steps[1:]):
            assert g.att is not h.att and g.att <= h.att
            kept = {p: p for p in h.att | h.supp}
            assert all(kept[p] is p for p in g.att | g.supp)


class _GeneralPath(Exception):
    """Raised by a patched json.loads: the whole document was decoded at once."""


def _assert_decoded_block_by_block(text):
    """parse_chain agrees with the full per-step parse without calling json.loads."""
    _assert_parse_parity(text)
    expected = parse_chain_oracle(text)
    with mock.patch.object(json, "loads", side_effect=_GeneralPath):
        assert parse_chain(text) == expected


def _replace_nth(text, old, new, n):
    """text with the n-th occurrence (from 0) of old replaced by new."""
    parts = text.split(old)
    return old.join(parts[: n + 1]) + new + old.join(parts[n + 1 :])


def _with_dangling_pair(step):
    data = json.loads(serialize_chain(dialogue()))
    data["steps"][step]["supports"].append(["c", "z"])
    return canonical_json(data)


DIALOGUE = serialize_chain(dialogue())
OFF_LAYOUT = {
    "trailing-blank-line": DIALOGUE + "\n",
    "trailing-bytes": DIALOGUE + "x",
    "crlf": DIALOGUE.replace("\n", "\r\n"),
    "bom": "\ufeff" + DIALOGUE,
    "version-number": DIALOGUE.replace('"format_version": "1"', '"format_version": 1'),
    "version-escaped": DIALOGUE.replace('"format_version": "1"', '"format_version": "\\u0031"'),
    "key-escaped": DIALOGUE.replace('"attacks"', '"\\u0061ttacks"', 1),
    "key-misspelled": DIALOGUE.replace('"supports"', '"supportz"', 1),
    "step-separator": DIALOGUE.replace("\n    },\n", "\n    };\n", 1),
    "zero-steps": canonical_json({"format_version": "1", "kind": "chain", "steps": []}),
    # JSON keeps the last of two equal keys: steps[1] gets no attacks
    "duplicate-attacks": _replace_nth(
        DIALOGUE, ',\n      "supports": ', ',\n      "attacks": [],\n      "supports": ', 1
    ),
    # the first error in the document is the syntax error at its end
    "dangling-in-truncated-0": _with_dangling_pair(0)[:-4],
    "dangling-in-truncated-1": _with_dangling_pair(1)[:-4],
}


class TestCanonicalDecoder:
    """A canonical chain document is decoded one step block at a time."""

    @given(st.one_of(chains(), shared_chains(), weak_expansion_chains(), evolving_chains()))
    @settings(max_examples=200)
    def test_canonical_documents_skip_json_loads(self, c):
        _assert_decoded_block_by_block(serialize_chain(c))

    def test_block_that_extends_the_previous_block(self):
        # steps[1]'s attacks and supports are steps[0]'s plus one more pair
        c = build_chain([
            build_qbag([("a", 0.5), ("b", 0.5), ("c", 0.5)], [("a", "b")], [("a", "c")]),
            build_qbag([("a", 0.5), ("b", 0.5), ("c", 0.5)], [("a", "b"), ("b", "c")],
                       [("a", "c"), ("c", "b")]),
        ])
        text = serialize_chain(c)
        _assert_decoded_block_by_block(text)
        assert parse_chain(text) == c

    def test_repeated_blocks_arrive_as_one_list(self):
        payloads = list(_canonical_steps(serialize_chain(sweep_dialogue())))
        for first, later in zip(payloads, payloads[1:]):
            assert later["attacks"] is first["attacks"]
            assert later["supports"] is first["supports"]
            assert later["arguments"] is not first["arguments"]

    @pytest.mark.parametrize("text", OFF_LAYOUT.values(), ids=OFF_LAYOUT.keys())
    def test_off_layout_documents_take_the_general_path(self, text):
        _assert_parse_parity(text)
        with mock.patch.object(json, "loads", side_effect=_GeneralPath):
            with pytest.raises(_GeneralPath):
                parse_chain(text)

    @pytest.mark.parametrize("step", [0, 1])
    def test_syntax_error_wins_over_an_earlier_step_error(self, step):
        with pytest.raises(DanglingEndpoint):
            parse_chain(_with_dangling_pair(step))
        with pytest.raises(DocumentError, match=r"^syntax error at line"):
            parse_chain(_with_dangling_pair(step)[:-4])


class TestRoundTrip:
    def test_final_graph(self):
        g = dialogue_step3()
        assert parse_qbag(serialize_qbag(g)) == g

    def test_serialization_is_canonical(self):
        g = dialogue_step3()
        assert serialize_qbag(g) == serialize_qbag(parse_qbag(serialize_qbag(g)))

    @given(arbitrary_qbags())
    @settings(max_examples=60)
    def test_qbag_identity(self, g):
        assert parse_qbag(serialize_qbag(g)) == g

    @given(chains())
    @settings(max_examples=40)
    def test_chain_identity(self, c):
        assert parse_chain(serialize_chain(c)) == c


class TestCanonicalLayout:
    """The emitter writes exactly what json.dumps(doc, indent=2) would."""

    @given(st.one_of(acyclic_qbags(), arbitrary_qbags(), exotic_qbags()))
    @settings(max_examples=80)
    def test_qbag_matches_oracle(self, g):
        assert serialize_qbag(g) == canonical_json(qbag_document(g))

    @given(st.one_of(chains(), shared_chains()))
    @settings(max_examples=60)
    def test_chain_matches_oracle(self, c):
        assert serialize_chain(c) == canonical_json(chain_document(c))

    @given(exotic_qbags().filter(lambda g: g.args), st.lists(strengths, min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_mixed_chain_matches_oracle(self, g, values):
        # shared steps, a changed step, then the shared structure again
        steps = list(sweep_chain(g, min(g.args), values)) + [build_qbag([]), g]
        c = build_chain(steps)
        assert serialize_chain(c) == canonical_json(chain_document(c))
        assert parse_chain(serialize_chain(c)) == c

    def test_empty_graph_and_relations(self):
        for g in (build_qbag([]), build_qbag([("a", 1.0)]), build_qbag([("a", 0)])):
            assert serialize_qbag(g) == canonical_json(qbag_document(g))
        c = build_chain([build_qbag([]), build_qbag([])])
        assert serialize_chain(c) == canonical_json(chain_document(c))

    def test_escaped_ids(self):
        g = build_qbag([('q"', 0.25), ("b\\s", 0.5), ("é", 1 / 3), ("\U0001f600", 0.1)],
                       attacks=[('q"', "é")], supports=[("b\\s", "\U0001f600")])
        text = serialize_qbag(g)
        assert text.isascii()
        assert text == canonical_json(qbag_document(g))
        assert parse_qbag(text) == g


class TestFuzz:
    """Whatever the input, parsing returns a value or raises QbagError."""

    @staticmethod
    def _parse_all(text):
        for parse in (parse_qbag, parse_chain):
            try:
                parse(text)
            except QbagError:
                pass

    @given(json_values.map(json.dumps))
    @settings(max_examples=150)
    def test_json_trees(self, text):
        self._parse_all(text)

    @given(near_documents())
    @settings(max_examples=300)
    def test_near_documents(self, text):
        self._parse_all(text)

    @given(st.binary(max_size=64))
    @settings(max_examples=150)
    def test_bytes(self, data):
        self._parse_all(data.decode("utf-8", errors="replace"))


class TestStrengthsCsv:
    def test_dialogue_layout(self):
        csv = export_strengths_csv(evaluate_chain(dialogue()))
        lines = csv.strip().split("\n")
        assert lines[0] == "step,argument,final_strength"
        assert len(lines) - 1 == 3 + 4 + 5
        assert lines[1] == "1,a,0.6"
        assert "2,b,0" in lines
        assert "3,d,0.2" in lines

    def test_single_edgeless_step_echoes_initial_strengths(self):
        chain = build_chain([parse_qbag(SEED_DOCUMENT.replace('[["c", "a"]]', "[]"))])
        csv = export_strengths_csv(evaluate_chain(chain))
        assert csv == (
            "step,argument,final_strength\n1,a,0.5\n1,b,0.7\n1,c,0.2\n"
        )

    def test_empty_step_contributes_no_rows(self):
        chain = parse_chain(
            json.dumps(
                {
                    "format_version": "1",
                    "kind": "chain",
                    "steps": [{"arguments": [], "attacks": [], "supports": []}],
                }
            )
        )
        assert export_strengths_csv(evaluate_chain(chain)) == "step,argument,final_strength\n"


class TestCurveCsv:
    def test_dialogue_breakpoints(self):
        m = evaluate_chain(dialogue())
        report = fairness_report(m, SLFQuery(topics=frozenset("abc"), threshold=0.2))
        assert export_curve_csv(report) == (
            "x,safety_curve_y,fairness_line_y\n"
            "0,0,0\n"
            "1,2,2.33333333333\n"
            "2,4,4.66666666667\n"
            "3,7,7\n"
        )

    def test_uniform_counts_make_columns_equal(self):
        m = evaluate_chain(dialogue())
        report = fairness_report(m, SLFQuery(topics=frozenset("abc"), threshold=0.0))
        for line in export_curve_csv(report).strip().split("\n")[1:]:
            _, curve_y, line_y = line.split(",")
            assert curve_y == line_y

    def test_single_topic_has_two_rows(self):
        m = evaluate_chain(dialogue())
        report = fairness_report(m, SLFQuery(topics=frozenset("c"), threshold=0.2))
        assert export_curve_csv(report).strip().split("\n")[1:] == ["0,0,0", "1,3,3"]


class TestReportDict:
    def test_stable_shape(self):
        m = evaluate_chain(dialogue())
        report = fairness_report(m, SLFQuery(topics=frozenset("abc"), threshold=0.2))
        payload = report_to_dict(report)
        assert list(payload) == [
            "exceed_counts",
            "ordering",
            "curve_points",
            "line_slope",
            "gini_area",
            "gini_score",
            "p",
            "base_b",
            "shannon_score",
        ]
        assert payload["line_slope"] == "7/3"
        assert payload["gini_area"] == "1"
        assert payload["gini_score"] == 0.46212
        assert payload["p"] == {"a": "2/7", "b": "2/7", "c": "3/7"}
        assert payload["base_b"] == 7
        assert payload["shannon_score"] == 0.55449

    def test_undefined_distribution(self):
        m = evaluate_chain(dialogue())
        report = fairness_report(m, SLFQuery(topics=frozenset("ab"), threshold=0.9))
        payload = report_to_dict(report)
        assert payload["p"] is None
        assert payload["base_b"] is None
        assert payload["shannon_score"] == 1.0

    @given(acyclic_qbags())
    @settings(max_examples=30)
    def test_report_dict_serializes_to_json(self, g):
        chain = build_chain([g])
        if not g.args:
            return
        m = evaluate_chain(chain)
        topic = sorted(g.args)[0]
        report = fairness_report(m, SLFQuery(topics=frozenset({topic}), threshold=0.5))
        json.dumps(report_to_dict(report))
