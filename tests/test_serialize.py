"""Document round-trips, parse errors, and CSV layouts."""

import json
import random
import re
import time
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
    StrengthAssignment,
    StrengthMatrix,
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

from qbag import _chain_reader, _chain_writer, export, serialize
from qbag._chain_reader import _STEP_BOUNDARY, _canonical_steps
from qbag.serialize import _CHAIN_CLOSE, _graphs

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
    retuned_expansion_chains,
    rewired_chains,
    shared_chains,
    shared_step,
    signed_strengths,
    spliced_chains,
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

    @given(
        st.one_of(
            chains(), shared_chains(), weak_expansion_chains(), evolving_chains(), rewired_chains()
        )
    )
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
        steps = list(_canonical_steps(serialize_chain(sweep_dialogue())))
        for (arguments, attacks, supports), later in zip(steps, steps[1:]):
            assert later[1] is attacks
            assert later[2] is supports
            assert later[0] is not arguments

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


def _edited(text, old, new, n):
    """_replace_nth, for an old that occurs more than n times."""
    assert text.count(old) > n, f"{old!r} occurs only {text.count(old)} times"
    return _replace_nth(text, old, new, n)


def _sweep_text(x, values=(0.1, 0.5, 0.9)):
    return serialize_chain(sweep_chain(sweep_base(), x, list(values)))


def _rewired_chain(seed, steps=6, size=8):
    """Steps over one id set, each with fresh strengths and fresh forward edges."""
    rng = random.Random(seed)
    ids = [f"n{i}" for i in range(size)]
    graphs = []
    for _ in range(steps):
        order = rng.sample(ids, size)
        pairs = [(order[i], order[j]) for i in range(size) for j in range(i + 1, size)]
        edges = rng.sample(pairs, 10)
        graphs.append(build_qbag([(x, rng.random()) for x in ids], edges[:5], edges[5:]))
    return build_chain(graphs)


# Two edgeless arguments and a sweep of the second: a step that loses one of
# them is still a valid graph, so a wrongly read piece shows in the value.
PAIR_SWEEP = serialize_chain(sweep_chain(build_qbag([("a", 0.5), ("b", 0.1)]), "b", [0.1, 0.5]))
# an extension whose new argument and new pairs sort before every old one,
# then one that adds arguments and pairs at both ends of every block
FRONT_EXTENSION = serialize_chain(build_chain([
    build_qbag([("b", 0.5), ("c", 0.5), ("d", 0.5)], [("b", "c")], [("c", "d")]),
    build_qbag([("a", 0.5), ("b", 0.5), ("c", 0.5), ("d", 0.5)], [("a", "b"), ("b", "c")],
               [("a", "c"), ("c", "d")]),
    build_qbag([(x, 0.5) for x in "0abcde"], [("0", "a"), ("a", "b"), ("b", "c"), ("b", "d")],
               [("0", "c"), ("a", "c"), ("c", "d"), ("d", "e")]),
]))
# (text, whether parse_chain reads it without json.loads)
PIECE_DOCUMENTS = {
    # each end guard alone: a sweep of the first argument keeps only the last
    # piece of each arguments block, a sweep of the last only the first
    "sweep-first": (_sweep_text("a"), True),
    "sweep-last": (_sweep_text("f"), True),
    "front-extension": (FRONT_EXTENSION, True),
    "escaped-ids": (serialize_chain(sweep_chain(
        build_qbag([("é", 0.5), ("\U0001f600", 0.25), ('q"', 0.5)], [("é", 'q"')]), "é",
        [0.1, 0.2, 0.3])), True),
    # the same id written with an escape: a new piece, the same value
    "re-escaped-id": (_edited(PAIR_SWEEP, '"id": "a"', '"id": "\\u0061"', 1), True),
    "compact-inside-a-piece": (_edited(
        PAIR_SWEEP, '"initial": 0.5\n        }', '"initial":0.5}', 1), True),
    "duplicated-pair": (_edited(
        _sweep_text("f"), '[\n          "e",\n          "b"\n        ]',
        '[\n          "e",\n          "b"\n        ],\n        [\n          "e",\n          "b"\n        ]',
        1), True),
    # a piece holding a second, compact entry: one piece, two items
    "second-compact-entry": (_edited(
        PAIR_SWEEP, '},\n        {\n          "id": "b"', '}, {"id": "b"', 1), False),
    "duplicated-piece": (_edited(
        PAIR_SWEEP, '{\n          "id": "b"',
        '{\n          "id": "a",\n          "initial": 0.5\n        },\n        {\n          "id": "b"',
        1), False),
    "empty-piece": (_edited(
        PAIR_SWEEP, '{\n          "id": "b"', '{},\n        {\n          "id": "b"', 1), False),
    "extra-key": (_edited(
        PAIR_SWEEP, '"initial": 0.5\n        }\n      ]', '"initial": 0.5, "x": 1\n        }\n      ]',
        0), False),
    "out-of-range": (_edited(
        PAIR_SWEEP, '"initial": 0.5\n        }\n      ]', '"initial": 2.0\n        }\n      ]',
        0), False),
}


class TestPieceDecoder:
    """A block decodes only the entries that the previous step's block lacked."""

    @pytest.mark.parametrize(
        ("text", "fast"), PIECE_DOCUMENTS.values(), ids=PIECE_DOCUMENTS.keys()
    )
    def test_parity(self, text, fast):
        if fast:
            _assert_decoded_block_by_block(text)
            return
        _assert_parse_parity(text)
        with mock.patch.object(json, "loads", side_effect=_GeneralPath):
            with pytest.raises(_GeneralPath):
                parse_chain(text)

    @pytest.mark.parametrize("seed", range(4))
    def test_rewired_chains(self, seed):
        _assert_decoded_block_by_block(serialize_chain(_rewired_chain(seed, steps=12)))


class TestChainTextWork:
    """Chain text costs what a step changes, on both sides."""

    @pytest.mark.parametrize("x", ["a", "c", "f"])
    def test_parse_decodes_one_entry_per_swept_step(self, x, monkeypatch):
        # a, c and f are the first, a middle and the last argument
        text = _sweep_text(x, [i / 199 for i in range(200)])
        decoded = []
        original = _chain_reader._decode

        def counting(s, idx=0):
            value, end = original(s, idx)
            decoded.append((value, end - idx))
            return value, end

        monkeypatch.setattr(_chain_reader, "_decode", counting)
        c = parse_chain(text)
        assert [g.tau[x] for g in c] == [i / 199 for i in range(200)]
        # the first step's three blocks, then one entry per later step
        first, later = decoded[:3], decoded[3:]
        assert [len(value) for value, _ in first] == [6, 3, 6]
        assert len(later) == 199
        longest = max(map(len, re.findall(r'\{\n {10}"id": [^}]*\}', text)))
        for value, size in later:
            assert len(value) == 1 and value[0]["id"] == x
            assert size <= longest + 2  # the entry inside the brackets of a list

    def test_serialize_renders_changed_strengths_only(self, monkeypatch):
        c = sweep_chain(sweep_base(), "f", [i / 199 for i in range(200)])
        calls = []
        original = _chain_writer._number

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(_chain_writer, "_number", counting)
        text = serialize_chain(c)
        assert text == canonical_json(chain_document(c))
        assert len(calls) == len(sweep_base().args) + 199

    @given(weak_expansion_chains(), st.data())
    @settings(max_examples=100)
    def test_serialize_renders_what_an_expansion_adds_or_changes(self, c, data):
        # retune some kept arguments of each step: each step still contains the last
        steps = [c[0]]
        for g in c.steps[1:]:
            kept = sorted(steps[-1].args)
            retuned = data.draw(st.sets(st.sampled_from(kept), max_size=len(kept))) if kept else set()
            tau = {x: data.draw(strengths) if x in retuned else v for x, v in g.tau.items()}
            steps.append(build_qbag(tau.items(), g.att, g.supp))
        c = build_chain(steps)
        numbers, strings = [], []
        original_number, original_string = _chain_writer._number, _chain_writer._string

        def count_number(value):
            numbers.append(value)
            return original_number(value)

        def count_string(text):
            strings.append(text)
            return original_string(text)

        with mock.patch.object(_chain_writer, "_number", count_number), \
                mock.patch.object(_chain_writer, "_string", count_string):
            text = serialize_chain(c)
        assert text == canonical_json(chain_document(c))
        # one per argument's first strength and per strength that is a new object
        rendered = sum(
            x not in last.args or g.tau[x] is not last.tau[x]
            for last, g in zip([build_qbag([]), *c.steps], c.steps)
            for x in g.args
        )
        assert len(numbers) == rendered
        # each id once, each distinct pair once (two strings)
        last = c[-1]
        assert len(strings) == len(last.args) + 2 * (len(last.att) + len(last.supp))


def _decoded_per_read(text):
    """parse_chain of text, and the entries decoded through _decode in each block read."""
    counts = []
    read, decode = _chain_reader._Blocks.read, _chain_reader._decode

    def counting_read(self, *args):
        counts.append(0)
        return read(self, *args)

    def counting_decode(s, idx=0):
        value, end = decode(s, idx)
        counts[-1] += len(value)
        return value, end

    with mock.patch.object(_chain_reader._Blocks, "read", counting_read), \
            mock.patch.object(_chain_reader, "_decode", counting_decode):
        return parse_chain(text), counts


def _expected_decodes(c):
    """The entries each block read of c's document decodes, by the rule above _Blocks.

    A block that repeats the last one decodes nothing, and an empty block
    no entry.  Another block is walked when it keeps the last block's first
    entry, or keeps its last entry after a block that kept its own
    predecessor's; a walk decodes the entries the block inserts or changes,
    or every entry when the last block was decoded whole, as a block that
    is not walked is.  c's blocks must keep to edits that the walk's
    look-ahead tells apart, and to its budget.
    """
    counts = []
    state = [None] * 3  # per key: the last block's entries, walked, kept its last entry
    for g in c.steps:
        blocks = [[(x, repr(g.tau[x])) for x in sorted(g.args)], sorted(g.att), sorted(g.supp)]
        for key, new in enumerate(blocks):
            old, walked, kept_tail = state[key] or ([], False, True)
            if state[key] is not None and new == old:
                counts.append(0)
                continue
            head = not old or bool(new) and new[0] == old[0]
            tail = not old or bool(new) and new[-1] == old[-1]
            walk = bool(new) and (head or kept_tail and tail)
            counts.append(len(set(new) - set(old)) if walk and walked else len(new))
            state[key] = new, walk, tail or not new
    return counts


def _steps(*specs):
    """A chain document of edgeless steps, each given as (id, strength) pairs."""
    return serialize_chain(build_chain([build_qbag(spec) for spec in specs]))


LONG = "x" * 150  # ids longer than any first probe of the walk's search
WALK_DOCUMENTS = {
    # (text, the entries each step after the first decodes in its arguments block)
    "edit-first-then-last": (_steps([(x, 0.5) for x in "abcdef"],
                                    [(x, 0.1 if x == "a" else 0.5) for x in "abcdef"],
                                    [(x, 0.1 if x in "af" else 0.5) for x in "abcdef"]), [1, 1]),
    "old-text-is-a-prefix": (_steps([("a", 0.5), ("b", 0.5), ("c", 0.5)],
                                    [("a", 0.5), ("b", 0.55), ("c", 0.5)],
                                    [("a", 0.5), ("b", 0.5), ("c", 0.5)]), [1, 1]),
    "delete-next-to-insert": (_steps([(x, 0.5) for x in "abcdef"],
                                     [(x, 0.5) for x in ["a", "c", "c1", "d", "e", "f"]],
                                     [(x, 0.5) for x in ["a", "b", "c", "d", "e", "f"]]), [1, 1]),
    "insert-at-both-ends-of-a-run": (_steps([(x, 0.5) for x in "bcd"],
                                            [(x, 0.5) for x in ["b", "b1", "b2", "c", "c1", "d"]]), [3]),
    "long-pieces": (_steps(*[[(LONG + x, 0.25 if x == y else 0.5) for x in "abcd"] for y in "-bc"]),
                    [1, 2]),
}


class TestWalk:
    """A walked block decodes the entries it inserts or changes, and keeps the rest."""

    @given(evolving_chains())
    @settings(max_examples=300)
    def test_every_edit_kind(self, c):
        # sweep, retune, grow anywhere, link, unlink, drop and rewire
        _assert_parse_parity(serialize_chain(c))

    @given(st.one_of(weak_expansion_chains(), retuned_expansion_chains()))
    @settings(max_examples=200)
    def test_extensions_and_retunes_skip_json_loads(self, c):
        _assert_decoded_block_by_block(serialize_chain(c))

    @given(st.one_of(weak_expansion_chains(), retuned_expansion_chains()))
    @settings(max_examples=200)
    def test_parse_decodes_what_each_step_adds_or_changes(self, c):
        # a walk that loses its place decodes the rest of a block: right, but slow
        parsed, counts = _decoded_per_read(serialize_chain(c))
        assert parsed == c
        assert counts == _expected_decodes(c)

    @pytest.mark.parametrize(("text", "arguments"), WALK_DOCUMENTS.values(), ids=WALK_DOCUMENTS.keys())
    def test_targeted_edits(self, text, arguments):
        _assert_decoded_block_by_block(text)
        parsed, counts = _decoded_per_read(text)
        assert counts[3::3] == arguments
        assert counts == _expected_decodes(parsed)

    def test_a_block_past_the_edit_budget_is_decoded_whole(self):
        # the second step retunes every argument but the first and the last,
        # one edit each; the third retunes one more argument
        ids = [f"a{i:02d}" for i in range(_chain_reader._EDIT_BUDGET + 3)]
        first = [(x, 0.5) for x in ids]
        second = [(x, 0.5 if x in (ids[0], ids[-1]) else 0.25) for x in ids]
        third = [(x, 0.75 if x == ids[1] else v) for x, v in second]
        text = _steps(first, second, third)
        _assert_decoded_block_by_block(text)
        expected = parse_chain_oracle(text)
        decode = _chain_reader._decode
        whole = []

        def recording(s, idx=0):
            whole.append(idx > 0)  # a block decoded in place, not pieces joined anew
            return decode(s, idx)

        with mock.patch.object(_chain_reader, "_decode", recording), \
                mock.patch.object(json, "loads", side_effect=_GeneralPath):
            assert parse_chain(text) == expected
        # arguments walked, empty attacks and supports; arguments past the budget;
        # arguments walked against no pieces
        assert whole == [False, True, True, True, False]
        assert _decoded_per_read(text)[1][3::3] == [len(ids), len(ids)]


class TestSplice:
    """serialize_chain re-renders a step's changed strengths only, and still
    writes exactly what json.dumps(doc, indent=2) would."""

    @given(spliced_chains())
    @settings(max_examples=200)
    def test_matches_oracle(self, c):
        assert serialize_chain(c) == canonical_json(chain_document(c))

    def test_int_strength_after_equal_float(self):
        g = build_qbag([("a", 1.0), ("b", 0.0)])
        c = build_chain([g, shared_step(g, {"a": 1, "b": -0.0}), shared_step(g, {"a": 1.0, "b": 0})])
        text = serialize_chain(c)
        assert text == canonical_json(chain_document(c))
        assert text.count('"initial": 1\n') == 1 and text.count('"initial": -0.0\n') == 1

    def test_empty_steps_share_nothing_with_empty_relations(self):
        # an empty argument set and an empty relation are equal frozensets
        g = build_qbag([])
        c = build_chain([g, shared_step(g, {}), build_qbag([("a", 0.5)]), g])
        assert serialize_chain(c) == canonical_json(chain_document(c))


def _chunked(text, cuts):
    """text cut at each of the positions."""
    cuts = sorted(set(cuts))
    return [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]


def _awkward_cuts(text):
    """Every position inside a step boundary, and inside the closing text."""
    starts = [m.start() for m in re.finditer(re.escape(_STEP_BOUNDARY), text)]
    starts.append(len(text) - len(_CHAIN_CLOSE))
    return [start + k for start in starts for k in range(1, len(_STEP_BOUNDARY))]


def _shape(c):
    """A chain, the bits of its strengths, and which steps share their structure."""
    shared = [(g.args is f.args, g.att is f.att, g.supp is f.supp) for f, g in zip(c, c.steps[1:])]
    return c, serialize_chain(c), shared


class TestChunkedDecoder:
    """The decoder takes its text in chunks of any size, a window of whole steps at a time."""

    @given(spliced_chains() | rewired_chains(), st.data())
    @settings(max_examples=200)
    def test_any_chunking_gives_the_value_of_parse_chain(self, c, data):
        text = serialize_chain(c)
        positions = st.integers(0, len(text)) | st.sampled_from(_awkward_cuts(text))
        cuts = data.draw(st.lists(positions, max_size=12))
        expected = _shape(parse_chain(text))
        assert _shape(build_chain(_graphs(_canonical_steps(_chunked(text, cuts))))) == expected
        assert _shape(build_chain(_graphs(_canonical_steps(list(text))))) == expected  # one character at a time

    @pytest.mark.parametrize(
        "text", [DIALOGUE, _sweep_text("f"), FRONT_EXTENSION], ids=["dialogue", "sweep", "extension"]
    )
    def test_every_cut_inside_a_boundary_or_the_close(self, text):
        expected = _shape(parse_chain(text))
        for cut in _awkward_cuts(text):
            assert _shape(build_chain(_graphs(_canonical_steps(_chunked(text, [cut]))))) == expected

    @given(
        mutated_documents(
            st.one_of(weak_expansion_chains(), evolving_chains(), shared_chains()).map(serialize_chain)
        ),
        st.data(),
    )
    @settings(max_examples=200)
    def test_a_chunked_decode_that_succeeds_agrees_with_parse_chain(self, text, data):
        cuts = data.draw(st.lists(st.integers(0, len(text)), max_size=8))
        try:
            found = build_chain(_graphs(_canonical_steps(_chunked(text, cuts))))
        except Exception:
            return  # parse_chain's general path decides
        assert _shape(found) == _shape(parse_chain(text))

    @pytest.mark.parametrize("text", OFF_LAYOUT.values(), ids=OFF_LAYOUT.keys())
    def test_off_layout_documents_fail_in_any_chunking(self, text):
        for chunks in ([text], list(text), _chunked(text, _awkward_cuts(text))):
            with pytest.raises(Exception):
                build_chain(_graphs(_canonical_steps(chunks)))

    def test_chunks_cost_what_one_text_costs(self):
        # one step of 4 MB in 1 KiB chunks: searching the whole window for a
        # boundary at every chunk, or joining it again, would be quadratic
        ids = [f"{i:0200d}" for i in range(16_000)]
        text = serialize_chain(build_chain([build_qbag([(x, 0.5) for x in ids])]))
        assert len(text) >= 4_000_000
        chunks = _chunked(text, range(1024, len(text), 1024))

        def best(chunks):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                build_chain(_graphs(_canonical_steps(chunks)))
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(chunks) <= 3 * best([text])


# valid documents of each kind of step: shared, extension, rewired over one id set
ONE_BUILDER = {
    "sweep": _sweep_text("c"),
    "extension": DIALOGUE,
    "rewired": serialize_chain(_rewired_chain(0)),
}


class TestOneBuilder:
    """A valid document is built by graph._extend_qbag alone; build_qbag only words errors."""

    @pytest.mark.parametrize("text", ONE_BUILDER.values(), ids=ONE_BUILDER.keys())
    def test_valid_chains_never_call_build_qbag(self, text):
        compact = json.dumps(json.loads(text))  # off the layout: the general path
        expected = _shape(parse_chain(text))
        assert expected[0] == parse_chain_oracle(text)
        with mock.patch.object(serialize, "build_qbag", side_effect=AssertionError):
            assert _shape(parse_chain(text)) == expected
            assert _shape(parse_chain(compact)) == expected

    def test_valid_qbag_never_calls_build_qbag(self):
        expected = parse_qbag(SEED_DOCUMENT)
        with mock.patch.object(serialize, "build_qbag", side_effect=AssertionError):
            assert parse_qbag(SEED_DOCUMENT) == expected
            assert parse_qbag(serialize_qbag(dialogue_step3())) == dialogue_step3()


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

    @given(st.one_of(
        chains(), shared_chains(), weak_expansion_chains(), evolving_chains(),
        rewired_chains(), spliced_chains(), closing_chains(),
    ))
    @settings(max_examples=200)
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


def _strengths_csv_oracle(m):
    """export_strengths_csv as it was before it kept rendered lines: every value rendered."""
    lines = ["step,argument,final_strength"]
    for i, row in enumerate(m.rows, start=1):
        for x, v in row.values.items():
            lines.append(f"{i},{x},{format(float(v), '.12g')}")
    return "\n".join(lines) + "\n"


@st.composite
def strength_matrices(draw):
    """Rows that keep, replace, reorder or re-key the last row's values,
    which include ints, both signed zeros and the same object again."""
    values = st.one_of(signed_strengths, st.sampled_from([0, 1]))
    rows = []
    row = {}
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["fresh", "keep", "edit", "reorder"]))
        if kind == "fresh" or not row:
            row = {x: draw(values) for x in draw(st.lists(st.sampled_from("abcdef"), unique=True))}
        elif kind == "edit":
            row = dict(row)
            for x in sorted(draw(st.sets(st.sampled_from(sorted(row))))):
                row[x] = draw(values)
        elif kind == "reorder":
            row = dict(reversed(row.items()))
        else:
            row = dict(row)
        rows.append(StrengthAssignment(row))
    return StrengthMatrix(tuple(rows))


class TestStrengthRows:
    """The table renders only the strengths that are not the last row's objects."""

    @given(strength_matrices())
    @settings(max_examples=300)
    def test_arbitrary_matrices(self, m):
        assert export_strengths_csv(m) == _strengths_csv_oracle(m)

    @given(spliced_chains())
    @settings(max_examples=100)
    def test_evaluated_chains(self, c):
        m = evaluate_chain(c)
        assert export_strengths_csv(m) == _strengths_csv_oracle(m)

    def test_ints_and_signed_zeros_after_equal_values(self):
        rows = [{"a": 1.0, "b": 0.0}, {"a": 1, "b": -0.0}, {"a": 1, "b": 0}]
        m = StrengthMatrix(tuple(map(StrengthAssignment, rows)))
        text = export_strengths_csv(m)
        assert text == _strengths_csv_oracle(m)
        assert text.splitlines()[3:5] == ["2,a,1", "2,b,-0"]

    def test_changed_strengths_render_once(self, monkeypatch):
        # c reaches a and b only: the other strengths stay the same objects
        m = evaluate_chain(sweep_chain(sweep_base(), "c", [i / 99 for i in range(100)]))
        calls = []
        original = export._dec12

        def counting(value):
            calls.append(value)
            return original(value)

        monkeypatch.setattr(export, "_dec12", counting)
        assert export_strengths_csv(m) == _strengths_csv_oracle(m)
        pairs = zip(m.rows[1:], m.rows)
        changed = [v is not u for a, b in pairs for v, u in zip(a.values.values(), b.values.values())]
        assert len(calls) == len(m.rows[0].values) + sum(changed)
        assert sum(changed) < len(changed)


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
