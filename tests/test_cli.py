"""End-to-end coverage of the command-line interface."""

import importlib.util
import json
import os
import subprocess
import sys
import threading
import tokenize
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import qbag.analysis
import qbag.chain
from qbag import (
    build_chain,
    build_qbag,
    common_arguments,
    evaluate_chain,
    export_strengths_csv,
    parse_chain,
    serialize_chain,
    serialize_qbag,
    sweep_chain,
)
from qbag import _chain_reader, cli
from qbag.cli import MAX_SWEEP_STEPS, main

from .cases import dialogue, dialogue_step3, sweep_base
from .oracles import canonical_json
from .runner import CliRunner
from .strategies import (
    chains,
    evolving_chains,
    mutated_documents,
    near_documents,
    shared_chains,
    thresholds,
    weak_expansion_chains,
)


def _load_reference():
    """bench/reference.py, the benchmark's qbag-free reference, imported by path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFERENCE = _load_reference()

# Exact stdout of analyze (every --checks x --format at thresholds 0, 0.2
# and 1) and curve on the dialogue chain with topics a,b,c, recorded
# before analyze built one result mapping: it pins key order, the place
# of the fluctuations block and the score formatting.
ANALYZE_GOLDEN = json.loads(
    (Path(__file__).parent / "analyze_golden.json").read_text(encoding="utf-8")
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def chain_path(tmp_path):
    path = tmp_path / "dialogue.json"
    path.write_text(serialize_chain(dialogue()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def qbag_path(tmp_path):
    path = tmp_path / "final.json"
    path.write_text(serialize_qbag(dialogue_step3()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def sweep_path(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(serialize_qbag(sweep_base()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def cyclic_chain_path(tmp_path):
    doc = {
        "format_version": "1",
        "kind": "chain",
        "steps": [
            {
                "arguments": [{"id": "a", "initial": 0.5}, {"id": "b", "initial": 0.5}],
                "attacks": [["a", "b"]],
                "supports": [["b", "a"]],
            }
        ],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def states_calls(monkeypatch):
    """The calls made of qbag.analysis._states, the one trajectory reader, by any module."""
    original, calls = qbag.analysis._states, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (qbag.analysis, cli):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestValidate:
    def test_classifies_dialogue(self, runner, chain_path):
        result = runner.invoke(main, ["validate", chain_path])
        assert result.exit_code == 0
        assert "expansion: yes" in result.output
        assert "normal: yes" in result.output
        assert "weak: no" in result.output
        assert "step 3: acyclic" in result.output

    def test_cyclic_step_fails_with_index(self, runner, cyclic_chain_path):
        result = runner.invoke(main, ["validate", cyclic_chain_path])
        assert result.exit_code == 2
        assert "CyclicGraph at step 1" in result.stderr

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "absent.json")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        ("content", "message"),
        [
            (b'{"format_version": "1", "kind": "chain", "note": "\xe9"}', "codec can't decode"),
            (b"[" * 100_000, "DocumentError: document nested too deeply"),
            (b'{"format_version": "1", "kind": "chain", "n": 1' + b"0" * 5000 + b"}", "DocumentError"),
            (
                b'{"format_version": "1", "kind": "chain", "steps": [{"arguments": '
                b'[{"id": "a", "initial": 1' + b"0" * 400 + b'}], "attacks": [], "supports": []}]}',
                "StrengthOutOfRange",
            ),
        ],
        ids=["non-utf8", "deep-nesting", "long-integer", "huge-integer"],
    )
    def test_hostile_input_exits_2_on_one_line(self, runner, tmp_path, content, message):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert message in result.stderr
        assert len(result.stderr.splitlines()) == 1


class TestEval:
    def test_final_graph_strengths(self, runner, qbag_path):
        result = runner.invoke(main, ["eval", qbag_path])
        assert result.exit_code == 0
        assert result.output == "a=0.5 b=0.56 c=0.2 d=0.2 e=0.8\n"

    def test_edgeless_graph_echoes_initials(self, runner, tmp_path):
        doc = {
            "format_version": "1",
            "kind": "qbag",
            "arguments": [{"id": "x", "initial": 0.3}, {"id": "y", "initial": 1.0}],
            "attacks": [],
            "supports": [],
        }
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["eval", str(path)])
        assert result.exit_code == 0
        assert result.output == "x=0.3 y=1\n"

    def test_cyclic_graph_fails(self, runner, tmp_path):
        doc = {
            "format_version": "1",
            "kind": "qbag",
            "arguments": [{"id": "a", "initial": 0.5}, {"id": "b", "initial": 0.5}],
            "attacks": [["a", "b"]],
            "supports": [["b", "a"]],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["eval", str(path)])
        assert result.exit_code == 2
        assert "CyclicGraph" in result.stderr

    def test_unknown_semantics(self, runner, qbag_path):
        result = runner.invoke(main, ["eval", qbag_path, "--semantics", "nope"])
        assert result.exit_code == 2


class TestAnalyze:
    def test_full_report(self, runner, chain_path):
        result = runner.invoke(
            main,
            ["analyze", chain_path, "--topics", "a,b,c", "--threshold", "0.2"],
        )
        assert result.exit_code == 0
        assert "strongly_safe: no" in result.output
        assert "weakly_safe: yes" in result.output
        assert "live: no" in result.output
        assert "ideally_fair: no" in result.output
        assert "lively_fair: yes" in result.output
        assert "cautiously_fair: yes" in result.output
        assert "gini_score: 0.46212" in result.output
        assert "shannon_score: 0.55449" in result.output

    def test_strong_safety_of_constant_topic(self, runner, chain_path):
        result = runner.invoke(
            main,
            ["analyze", chain_path, "--topics", "c", "--threshold", "0.1", "--checks", "safety"],
        )
        assert result.exit_code == 0
        assert "strongly_safe: yes" in result.output
        assert "gini_score" not in result.output

    def test_liveness_only(self, runner, chain_path):
        result = runner.invoke(
            main,
            ["analyze", chain_path, "--topics", "a,b", "--threshold", "0.2", "--checks", "liveness"],
        )
        assert result.exit_code == 0
        assert "fluctuations[a]: 2" in result.output
        assert "live: yes" in result.output
        assert "strongly_safe" not in result.output

    def test_unknown_topic_fails(self, runner, chain_path):
        result = runner.invoke(
            main, ["analyze", chain_path, "--topics", "z", "--threshold", "0.2"]
        )
        assert result.exit_code == 2
        assert "TopicNotInChain" in result.stderr

    def test_topic_missing_after_a_failing_one_fails(self, runner, chain_path):
        # a is below 0.9 at every step, which used to settle both safety
        # verdicts before the missing z was looked at
        result = runner.invoke(
            main,
            ["analyze", chain_path, "--topics", "a,z", "--threshold", "0.9", "--checks", "safety"],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "TopicNotInChain: argument 'z' missing from step 1\n"

    @pytest.mark.parametrize(
        "case", ANALYZE_GOLDEN, ids=[" ".join(case["args"]) for case in ANALYZE_GOLDEN]
    )
    def test_golden_output(self, runner, chain_path, case):
        command, *options = case["args"]
        result = runner.invoke(main, [command, chain_path, *options])
        assert result.exit_code == 0
        assert result.stdout == case["stdout"]

    @pytest.mark.parametrize("fmt", ["text", "structured", "csv"])
    @pytest.mark.parametrize("checks", ["safety", "liveness", "fairness", "all"])
    def test_builds_the_state_table_once(self, runner, chain_path, states_calls, checks, fmt):
        # every verdict and score is a reduction of the one table
        options = ["--topics", "a,b,c", "--threshold", "0.2", "--checks", checks, "--format", fmt]
        result = runner.invoke(main, ["analyze", chain_path, *options])
        assert result.exit_code == 0
        assert len(states_calls) == 1

    def test_threshold_out_of_range_fails(self, runner, chain_path):
        result = runner.invoke(
            main, ["analyze", chain_path, "--topics", "a", "--threshold", "1.5"]
        )
        assert result.exit_code == 2

    def test_structured_format(self, runner, chain_path):
        result = runner.invoke(
            main,
            [
                "analyze",
                chain_path,
                "--topics",
                "a,b,c",
                "--threshold",
                "0.2",
                "--format",
                "structured",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["strongly_safe"] is False
        assert payload["fluctuations"] == {"a": 2, "b": 2, "c": 0}
        assert payload["gini_score"] == 0.46212
        assert payload["fairness_report"]["p"] == {"a": "2/7", "b": "2/7", "c": "3/7"}
        assert payload["fairness_report"]["base_b"] == 7

    def test_csv_format(self, runner, chain_path):
        result = runner.invoke(
            main,
            [
                "analyze",
                chain_path,
                "--topics",
                "a,b,c",
                "--threshold",
                "0.2",
                "--format",
                "csv",
            ],
        )
        assert result.exit_code == 0
        assert "gini_score,0.46212" in result.output
        assert "strongly_safe,no" in result.output


class TestSweep:
    def test_three_step_chain_document(self, runner, sweep_path):
        result = runner.invoke(
            main,
            ["sweep", sweep_path, "--argument", "f", "--from", "0.1", "--to", "0.9", "--steps", "3"],
        )
        assert result.exit_code == 0
        chain = parse_chain(result.output)
        assert [g.tau["f"] for g in chain] == [0.1, 0.5, 0.9]

    def test_single_step_uses_start_value(self, runner, sweep_path):
        result = runner.invoke(
            main,
            ["sweep", sweep_path, "--argument", "f", "--from", "0.3", "--to", "0.9", "--steps", "1"],
        )
        chain = parse_chain(result.output)
        assert [g.tau["f"] for g in chain] == [0.3]

    def test_writes_chain_to_file(self, runner, sweep_path, tmp_path):
        out = tmp_path / "out.json"
        result = runner.invoke(
            main,
            [
                "sweep", sweep_path,
                "--argument", "f",
                "--from", "0.1", "--to", "0.9", "--steps", "3",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        chain = parse_chain(out.read_text(encoding="utf-8"))
        assert len(chain) == 3

    def test_streamed_document_equals_serialize_chain(self, runner, sweep_path, tmp_path):
        # each step is written as it is produced, to --out and to stdout
        out = tmp_path / "out.json"
        args = ["sweep", sweep_path, "--argument", "f", "--from", "0.1", "--to", "0.9", "--steps", "5"]
        expected = serialize_chain(sweep_chain(sweep_base(), "f", cli._grid(0.1, 0.9, 5)))
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 0
        assert result.stdout == f"wrote {out}\n"
        assert out.read_bytes() == expected.encode("utf-8")
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert result.stdout_bytes == expected.encode("utf-8")

    def test_streamed_csv_is_utf8_on_an_ascii_stream(self, tmp_path):
        g = build_qbag([("ä", 0.5), ("b", 0.25)], attacks=[("b", "ä")])
        path = tmp_path / "graph.json"
        path.write_text(serialize_qbag(g), encoding="utf-8")
        args = ["sweep", str(path), "--argument", "b", "--from", "0", "--to", "1", "--steps", "4"]
        run = _run_module([*args, "--csv"], {"PYTHONIOENCODING": "ascii"})
        expected = export_strengths_csv(evaluate_chain(sweep_chain(g, "b", cli._grid(0.0, 1.0, 4))))
        assert "ä" in expected
        assert (run.returncode, run.stdout, run.stderr) == (0, expected.encode("utf-8"), b"")

    def test_out_path_is_shown_on_one_line(self, runner, sweep_path, tmp_path):
        out = tmp_path / "nl\ndir" / "o.json"
        out.parent.mkdir()
        args = ["--argument", "f", "--from", "0.1", "--to", "0.9", "--steps", "3"]
        result = runner.invoke(main, ["sweep", sweep_path, *args, "--out", str(out)])
        assert result.exit_code == 0
        assert result.stdout == "wrote " + str(out).replace("\n", "\\n") + "\n"
        assert len(parse_chain(out.read_text(encoding="utf-8"))) == 3

    def test_unwritable_out_path_fails(self, runner, sweep_path, tmp_path):
        args = ["--argument", "f", "--from", "0.1", "--to", "0.9", "--steps", "3"]
        result = runner.invoke(main, ["sweep", sweep_path, *args, "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"cannot write {tmp_path}: ")

    def test_dense_csv_sweep_minimum(self, runner, sweep_path):
        result = runner.invoke(
            main,
            [
                "sweep", sweep_path,
                "--argument", "f",
                "--from", "0", "--to", "1", "--steps", "101",
                "--csv",
            ],
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "step,argument,final_strength"
        a_by_step = {}
        f_by_step = {}
        for line in lines[1:]:
            step, arg, value = line.split(",")
            if arg == "a":
                a_by_step[int(step)] = float(value)
            if arg == "f":
                f_by_step[int(step)] = float(value)
        minimum_step = min(a_by_step, key=a_by_step.get)
        assert a_by_step[minimum_step] == pytest.approx(0.15, abs=1e-9)
        assert f_by_step[minimum_step] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        ("start", "stop", "steps", "expected"),
        [
            ("0.3", "1.0", "4", [0.3, 0.5333333333333333, 0.7666666666666666, 1.0]),
            ("0", "1", "200", [i / 199 for i in range(200)]),
        ],
    )
    def test_grid_ends_exactly_on_endpoints(self, runner, sweep_path, start, stop, steps, expected):
        result = runner.invoke(
            main,
            ["sweep", sweep_path, "--argument", "f", "--from", start, "--to", stop, "--steps", steps],
        )
        assert result.exit_code == 0
        assert [g.tau["f"] for g in parse_chain(result.output)] == expected

    def test_bad_range_fails(self, runner, sweep_path):
        result = runner.invoke(
            main,
            ["sweep", sweep_path, "--argument", "f", "--from", "-1", "--to", "2", "--steps", "3"],
        )
        assert result.exit_code == 2

    def test_zero_steps_fails(self, runner, sweep_path):
        result = runner.invoke(
            main,
            ["sweep", sweep_path, "--argument", "f", "--from", "0", "--to", "1", "--steps", "0"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        ("steps", "message"),
        [
            (0, "steps must be >= 1, got 0"),
            (MAX_SWEEP_STEPS + 1, f"steps must be <= 1000000, got {MAX_SWEEP_STEPS + 1}"),
            (10**12, f"steps must be <= 1000000, got {10**12}"),
        ],
    )
    def test_steps_out_of_bounds_fail_before_the_grid(
        self, runner, sweep_path, monkeypatch, steps, message
    ):
        def unreachable(*args):
            raise RuntimeError("the sweep was built")

        monkeypatch.setattr(cli, "_grid", unreachable)
        monkeypatch.setattr(qbag.chain, "sweep_chain", unreachable)
        result = runner.invoke(
            main,
            ["sweep", sweep_path, "--argument", "f", "--from", "0", "--to", "1", "--steps", str(steps)],
        )
        assert result.exit_code == 2
        assert result.stderr == message + "\n"

    def test_unknown_argument_fails(self, runner, sweep_path):
        result = runner.invoke(
            main,
            ["sweep", sweep_path, "--argument", "zz", "--from", "0", "--to", "1", "--steps", "2"],
        )
        assert result.exit_code == 2
        assert "UnknownArgument" in result.stderr


def _fraction_grid(start, stop, steps):
    """The grid in exact rationals, each point rounded once by float()."""
    if steps == 1:
        return [start]
    lo, hi = Fraction(start), Fraction(stop)
    return [float(lo + i * (hi - lo) / (steps - 1)) for i in range(steps)]


def _bits(values):
    return [value.hex() for value in values]  # tells 0.0 from -0.0


_UNIT = st.floats(0.0, 1.0)  # subnormals included
_SUBNORMAL = 5e-324


class TestGrid:
    """_grid in integers is the rational grid, bit for bit."""

    @given(_UNIT, _UNIT, st.integers(1, 300))
    @example(0.3, 1.0, 1)
    @example(0.3, 1.0, 2)
    @example(0.0, 1.0, 200)
    @example(1.0, 0.0, 7)  # --from greater than --to
    @example(0.7, 0.1, 11)
    @example(_SUBNORMAL, 1.0, 9)
    @example(0.0, 2.2250738585072009e-308, 13)  # the largest subnormal
    @example(_SUBNORMAL, 3 * _SUBNORMAL, 5)
    @settings(max_examples=300)
    def test_matches_the_fraction_formula(self, start, stop, steps):
        assert _bits(cli._grid(start, stop, steps)) == _bits(_fraction_grid(start, stop, steps))

    def test_largest_grid_ends_on_its_last_point(self):
        start, stop, n = 0.1, 0.7, MAX_SWEEP_STEPS - 1
        grid = cli._grid(start, stop, MAX_SWEEP_STEPS)
        lo, hi = Fraction(start), Fraction(stop)
        for i in (0, 1, n // 3, n - 1, n):
            assert grid[i].hex() == float(lo + i * (hi - lo) / n).hex()
        assert (len(grid), grid[-1]) == (MAX_SWEEP_STEPS, stop)


def _chain_file(tmp_path, content):
    """content, a str or bytes, written to a file of tmp_path."""
    path = tmp_path / "chain.json"
    path.write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
    return path


def _whole_path_error(text):
    """The message the whole-document parse gives for text."""
    try:
        parse_chain(text)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}\n"
    raise AssertionError("the document parses")


# a canonical chain document of several 64 KiB reads
LONG_SWEEP = serialize_chain(sweep_chain(sweep_base(), "c", [i / 299 for i in range(300)]))


class TestChainReader:
    """validate, analyze and curve read a chain file a chunk at a time."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096, cli._READ_CHUNK])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_canonical_file_is_streamed(self, runner, tmp_path, monkeypatch, chunk, newline):
        # a CRLF file reads as LF, as a whole-file read in text mode does
        path = _chain_file(tmp_path, LONG_SWEEP.replace("\n", newline))
        expected = runner.invoke(main, ["validate", str(path)])
        assert expected.exit_code == 0
        monkeypatch.setattr(cli, "_READ_CHUNK", chunk)

        def whole(path):
            raise AssertionError("read whole")

        monkeypatch.setattr(cli, "_read_text", whole)
        result = runner.invoke(main, ["validate", str(path)])
        assert (result.exit_code, result.stdout_bytes) == (0, expected.stdout_bytes)
        assert cli._read_chain(str(path)) == parse_chain(LONG_SWEEP)

    def test_invalid_utf8_after_a_document_error_cannot_be_read(self, runner, tmp_path):
        # steps[1] has a dangling pair; the bad byte lies in the last 64 KiB read
        data = json.loads(LONG_SWEEP)
        data["steps"][1]["supports"].append(["c", "z"])
        text = canonical_json(data)
        assert len(text) > 2 * cli._READ_CHUNK
        path = _chain_file(tmp_path, text.encode("utf-8")[:-10] + b"\xff" + text.encode("utf-8")[-9:])
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert result.stderr == (
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position "
            f"{len(text) - 10}: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "text",
        [LONG_SWEEP[: len(LONG_SWEEP) // 2], LONG_SWEEP + "x", LONG_SWEEP.replace('"id": "f"', '"id": "c"', 1)],
        ids=["cut-mid-step", "trailing-bytes", "duplicate-id"],
    )
    def test_document_errors_are_those_of_the_whole_path(self, runner, tmp_path, text):
        path = _chain_file(tmp_path, text)
        result = runner.invoke(main, ["validate", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == _whole_path_error(text)

    @pytest.mark.parametrize("valid", [True, False], ids=["compact", "duplicate-id"])
    def test_an_off_layout_file_is_decoded_once(self, runner, tmp_path, monkeypatch, valid):
        # the chunked decode fails on both; the general path does not decode again
        if valid:
            text = json.dumps(json.loads(LONG_SWEEP))
            canonical = runner.invoke(main, ["validate", str(_chain_file(tmp_path, LONG_SWEEP))])
            expected = (0, canonical.stdout, "")
        else:
            text = LONG_SWEEP.replace('"id": "f"', '"id": "c"', 1)
            expected = (2, "", _whole_path_error(text))
        calls = []
        original = _chain_reader._canonical_steps

        def counting(chunks):
            calls.append(chunks)
            return original(chunks)

        # both readers fetch the decoder from its module when they run
        monkeypatch.setattr(_chain_reader, "_canonical_steps", counting)
        result = runner.invoke(main, ["validate", str(_chain_file(tmp_path, text))])
        assert (result.exit_code, result.stdout, result.stderr) == expected
        assert len(calls) == 1

    def test_trailing_bytes_message(self, runner, tmp_path):
        path = _chain_file(tmp_path, LONG_SWEEP + "x")
        result = runner.invoke(main, ["validate", str(path)])
        line = LONG_SWEEP.count("\n") + 1
        assert result.stderr == f"DocumentError: syntax error at line {line}, column 1: Extra data\n"

    def test_directory_cannot_be_read(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path)])
        assert result.exit_code == 2
        assert result.stderr == f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_once(self, runner, tmp_path):
        # compact JSON is off the layout; a pipe cannot be read a second time
        text = json.dumps(json.loads(serialize_chain(dialogue())))
        expected = runner.invoke(main, ["validate", str(_chain_file(tmp_path, text))])
        fifo = tmp_path / "pipe.json"
        os.mkfifo(fifo)

        def write():
            with open(fifo, "w", encoding="utf-8") as pipe:
                pipe.write(text)

        writer = threading.Thread(target=write)
        writer.start()
        result = runner.invoke(main, ["validate", str(fifo)])
        writer.join(timeout=10)
        assert (result.exit_code, result.stdout_bytes) == (0, expected.stdout_bytes)

    def test_reading_holds_less_than_the_file(self, tmp_path):
        ids = [f"a{i:03d}" for i in range(300)]
        g = build_qbag(
            [(x, 0.5) for x in ids],
            attacks=list(zip(ids, ids[1:])),
            supports=list(zip(ids, ids[2:])),
        )
        text = serialize_chain(sweep_chain(g, "a150", [i / 39 for i in range(40)]))
        path = _chain_file(tmp_path, text)
        assert len(text) >= 2_000_000
        tracemalloc.start()
        try:
            chain = cli._read_chain(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain == parse_chain(text)
        assert peak < len(text)


class TestCurve:
    def test_dialogue_breakpoints(self, runner, chain_path):
        result = runner.invoke(
            main, ["curve", chain_path, "--topics", "a,b,c", "--threshold", "0.2"]
        )
        assert result.exit_code == 0
        assert result.output == (
            "x,safety_curve_y,fairness_line_y\n"
            "0,0,0\n"
            "1,2,2.33333333333\n"
            "2,4,4.66666666667\n"
            "3,7,7\n"
        )

    def test_uniform_counts_align_columns(self, runner, chain_path):
        result = runner.invoke(
            main, ["curve", chain_path, "--topics", "a,b,c", "--threshold", "0"]
        )
        for line in result.output.strip().split("\n")[1:]:
            _, curve_y, line_y = line.split(",")
            assert curve_y == line_y

    def test_builds_the_state_table_once(self, runner, chain_path, states_calls):
        result = runner.invoke(main, ["curve", chain_path, "--topics", "a,b,c", "--threshold", "0.2"])
        assert result.exit_code == 0
        assert len(states_calls) == 1

    def test_unknown_topic_fails(self, runner, chain_path):
        result = runner.invoke(
            main, ["curve", chain_path, "--topics", "z", "--threshold", "0.2"]
        )
        assert result.exit_code == 2


class TestDeterminism:
    def test_repeated_invocations_are_byte_identical(self, runner, chain_path, sweep_path):
        invocations = [
            ["analyze", chain_path, "--topics", "a,b,c", "--threshold", "0.2"],
            ["analyze", chain_path, "--topics", "a,b,c", "--threshold", "0.2", "--format", "structured"],
            ["curve", chain_path, "--topics", "a,b,c", "--threshold", "0.2"],
            ["eval", sweep_path],
            ["sweep", sweep_path, "--argument", "f", "--from", "0", "--to", "1", "--steps", "11", "--csv"],
            ["validate", chain_path],
        ]
        for argv in invocations:
            first = runner.invoke(main, argv)
            second = runner.invoke(main, argv)
            assert first.exit_code == second.exit_code == 0
            assert first.stdout_bytes == second.stdout_bytes

    def test_exit_codes_are_zero_or_two(self, runner, chain_path):
        good = runner.invoke(main, ["validate", chain_path])
        bad = runner.invoke(main, ["analyze", chain_path, "--topics", "z", "--threshold", "0.2"])
        usage = runner.invoke(main, ["analyze", chain_path])
        assert good.exit_code == 0
        assert bad.exit_code == 2
        assert usage.exit_code == 2

    def test_dangling_message_does_not_follow_hash_seed(self, tmp_path):
        # several undeclared endpoints: the report used to pick one in
        # frozenset order, which str hashing decides
        doc = json.loads(serialize_qbag(dialogue_step3()))
        doc["attacks"] += [["z", "a"], ["x", "b"], ["y", "c"], ["a", "w"]]
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed}
            env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
            runs.append(
                subprocess.run(
                    [sys.executable, "-m", "qbag.cli", "eval", str(path)],
                    capture_output=True, env=env, check=False,
                )
            )
        assert [run.returncode for run in runs] == [2, 2]
        assert runs[0].stderr == runs[1].stderr == (
            b"DanglingEndpoint: document: attacks pair ('a', 'w') "
            b"references undeclared argument 'w'\n"
        )

    @given(data=st.binary(max_size=96) | near_documents().map(str.encode))
    @settings(
        max_examples=150,
        deadline=None,  # each example writes a file and runs the CLI
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_validate_exits_zero_or_two_on_any_bytes(self, runner, tmp_path, data):
        path = tmp_path / "fuzz.json"
        path.write_bytes(data)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code in (0, 2), result.exception


def _plain(g):
    """A graph as the reference reads it: (tau, attacks, supports)."""
    return dict(g.tau), sorted(g.att), sorted(g.supp)


class TestReference:
    """validate, analyze and curve agree with the benchmark's independent reference."""

    @pytest.mark.parametrize(
        "strategy",
        [chains(), shared_chains(), weak_expansion_chains(), evolving_chains()],
        ids=["chains", "shared", "weak", "evolving"],
    )
    @given(data=st.data())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_outputs_match_the_reference(self, runner, tmp_path, strategy, data):
        chain = data.draw(strategy)
        common = sorted(common_arguments(chain))
        assume(common)
        topics = sorted(data.draw(st.sets(st.sampled_from(common), min_size=1)))
        threshold = data.draw(thresholds)
        path = tmp_path / "chain.json"
        path.write_text(serialize_chain(chain), encoding="utf-8")
        graphs = [_plain(g) for g in chain]
        result = REFERENCE.analysis([REFERENCE.strengths(g) for g in graphs], topics, threshold)
        query = ["--topics", ",".join(topics), "--threshold", repr(threshold)]

        validate = runner.invoke(main, ["validate", str(path)])
        assert validate.exit_code == 0
        truth = REFERENCE.classify(graphs)
        assert REFERENCE.check_validate(validate.stdout_bytes, len(chain), truth) == []
        analyze = runner.invoke(main, ["analyze", str(path), *query, "--format", "structured"])
        assert analyze.exit_code == 0
        assert REFERENCE.check_analyze_structured(analyze.stdout_bytes, result) == []
        curve = runner.invoke(main, ["curve", str(path), *query])
        assert curve.exit_code == 0
        assert REFERENCE.check_bytes("curve", curve.stdout_bytes, REFERENCE.curve_csv(result)) == []


# flag values at and past the edges of what each option accepts
_NUMBERS = ["0.5", "1", "-0.0", "5e-324", "nan", "inf"]
_TOPICS = ["a", "a,b", "a,a", "zz", "a,zz", "", ","]
_STEPS = [0, 1, MAX_SWEEP_STEPS, MAX_SWEEP_STEPS + 1]
_CANONICAL = st.one_of(
    weak_expansion_chains().map(serialize_chain),
    weak_expansion_chains().map(serialize_chain),
    weak_expansion_chains().map(lambda c: serialize_qbag(c.steps[-1])),
)
_FUZZ_INPUTS = st.one_of(
    st.binary(max_size=96),
    near_documents().map(str.encode),
    mutated_documents(_CANONICAL).map(str.encode),
    mutated_documents(_CANONICAL).map(str.encode),
)


class TestEverySubcommandFuzz:
    """Every subcommand exits 0, or exits 2 with exactly one line on stderr."""

    @staticmethod
    def _check(result):
        assert result.exit_code in (0, 2), result.exception
        if result.exit_code == 2:
            assert len(result.stderr.splitlines()) == 1, result.stderr

    @given(data=_FUZZ_INPUTS, flags=st.data())
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_input_and_flags(self, runner, tmp_path, monkeypatch, data, flags):
        # a grid of the full length would allocate up to a million points
        monkeypatch.setattr(cli, "_grid", lambda start, stop, steps: [start, stop][:steps])
        path = tmp_path / "fuzz.json"
        path.write_bytes(data)
        doc = str(path)
        topics = flags.draw(st.sampled_from(_TOPICS))
        threshold = flags.draw(st.sampled_from(_NUMBERS))
        query = ["--topics", topics, "--threshold", threshold]
        self._check(runner.invoke(main, ["eval", doc]))
        for checks in ("safety", "liveness", "fairness", "all"):
            for fmt in ("text", "structured", "csv"):
                options = ["--checks", checks, "--format", fmt]
                self._check(runner.invoke(main, ["analyze", doc, *query, *options]))
        self._check(runner.invoke(main, ["curve", doc, *query]))
        sweep = [
            "sweep", doc,
            "--argument", flags.draw(st.sampled_from(["a", "e", "zz"])),
            "--from", flags.draw(st.sampled_from(_NUMBERS)),
            "--to", flags.draw(st.sampled_from(_NUMBERS)),
            "--steps", str(flags.draw(st.sampled_from(_STEPS))),
        ]
        for extra in ([], ["--csv"], ["--out", str(tmp_path / "out.json")]):
            self._check(runner.invoke(main, [*sweep, *extra]))


class TestValidateWork:
    def test_steps_sharing_a_structure_are_sorted_once(self, runner, tmp_path, monkeypatch):
        # the verdict of a step that shares its structure by identity is reused
        path = tmp_path / "sweep.json"
        path.write_text(
            serialize_chain(sweep_chain(sweep_base(), "f", [i / 9 for i in range(10)])),
            encoding="utf-8",
        )
        calls = []
        original = qbag.chain._ordered

        def counting(args, adj):
            calls.append(len(args))
            return original(args, adj)

        monkeypatch.setattr(qbag.chain, "_ordered", counting)
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 0
        assert result.stdout.count(": acyclic") == 10
        assert calls == [len(sweep_base().args)]


def _qbag_document(tmp_path, ids, name="graph.json"):
    """A qbag document of edgeless arguments at 0.5, written as UTF-8 JSON."""
    doc = {
        "format_version": "1",
        "kind": "qbag",
        "arguments": [{"id": x, "initial": 0.5} for x in ids],
        "attacks": [],
        "supports": [],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


_QUERY = ["--topics", "a", "--threshold", "0.2"]
_SWEEP = ["--argument", "f", "--from", "0", "--to", "1"]


class TestCommandLine:
    """Usage errors are one line; every form the parser accepts is pinned."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["bogus"],
            ["--bogus"],
            ["eval"],
            ["eval", "{chain}", "extra"],
            ["eval", "{chain}", "--bogus"],
            ["eval", "{chain}", "--semantics"],
            ["analyze", "{chain}", "--threshold", "0.2"],
            ["analyze", "{chain}", "--topics", "a", "--threshold"],
            ["analyze", "{chain}", "--topics", "a", "--threshold", "abc"],
            ["analyze", "{chain}", *_QUERY, "--checks", "most"],
            ["analyze", "{chain}", *_QUERY, "--format", "a\nb"],
            ["analyze", "{chain}", *_QUERY, "--help=yes"],
            ["sweep", "{sweep}", *_SWEEP, "--steps", "1.5"],
            ["sweep", "{sweep}", *_SWEEP, "--steps", "3", "--csv=yes"],
            ["sweep", "{sweep}", *_SWEEP],
            ["curve", "{chain}", "-0.5", *_QUERY],
        ],
        ids=repr,
    )
    def test_usage_error_is_one_line(self, runner, chain_path, sweep_path, argv):
        argv = [a.format(chain=chain_path, sweep=sweep_path) for a in argv]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.exception
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.startswith("Error: ")

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["--help"], *([name, flag] for name in cli._COMMANDS for flag in ("-h", "--help"))],
        ids=" ".join,
    )
    def test_help_exits_zero_and_names_every_choice(self, runner, argv):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0
        assert result.stderr == ""
        commands = cli._COMMANDS if len(argv) == 1 else {argv[0]: cli._COMMANDS[argv[0]]}
        for name, command in commands.items():
            assert name in result.stdout
            if len(argv) == 2:
                for option in command.options:
                    assert option.name in result.stdout

    def test_help_after_other_options_wins(self, runner, chain_path):
        result = runner.invoke(main, ["analyze", chain_path, "--threshold", "abc", "-h"])
        assert result.exit_code == 0
        assert "--threshold" in result.stdout

    def test_option_value_may_begin_with_a_dash(self, runner, tmp_path):
        path = tmp_path / "dash.json"
        g = build_qbag([("-a", 0.5), ("b", 0.9)], attacks=[("b", "-a")])
        path.write_text(serialize_chain(build_chain([g, g])), encoding="utf-8")
        result = runner.invoke(main, ["analyze", str(path), "--topics", "-a", "--threshold", "0.5"])
        assert result.exit_code == 0, result.stderr
        assert "fluctuations[-a]: 0" in result.stdout

    @pytest.mark.parametrize(
        ("given", "same_as"),
        [
            (["--threshold=0.5"], ["--threshold", "0.5"]),
            (["--threshold", "0.9", "--threshold", "0.5"], ["--threshold", "0.5"]),
            (["--threshold", "abc", "--threshold", "0.5"], ["--threshold", "0.5"]),
            (["--threshold", "0.5", "--", "{chain}"], ["--threshold", "0.5", "{chain}"]),
            (["--topics=a,b", "--threshold", "0.5"], ["--topics", "a,b", "--threshold", "0.5"]),
        ],
        ids=["equals", "repeated", "repeated-bad-first", "double-dash", "equals-topics"],
    )
    def test_accepted_forms_match_the_plain_form(self, runner, chain_path, given, same_as):
        def run(options):
            options = [o.format(chain=chain_path) for o in options]
            if chain_path not in options:
                options = [chain_path, *options]
            argv = ["analyze", "--topics", "a,b,c", *options]
            return runner.invoke(main, argv)

        result, expected = run(given), run(same_as)
        assert result.exit_code == expected.exit_code == 0
        assert result.stdout_bytes == expected.stdout_bytes

    def test_negative_zero_is_a_value_not_an_option(self, runner, sweep_path):
        result = runner.invoke(
            main, ["sweep", sweep_path, "--argument", "f", "--from", "-0.0", "--to", "1", "--steps", "1"]
        )
        assert result.exit_code == 0, result.stderr
        assert [g.tau["f"] for g in parse_chain(result.stdout)] == [-0.0]

    def test_double_dash_before_the_path(self, runner, qbag_path):
        plain = runner.invoke(main, ["eval", qbag_path])
        assert runner.invoke(main, ["eval", "--", qbag_path]).stdout_bytes == plain.stdout_bytes
        assert runner.invoke(main, ["--", "eval", qbag_path]).stdout_bytes == plain.stdout_bytes

    def test_lone_surrogate_id_exits_2_on_one_line(self, runner, tmp_path):
        result = runner.invoke(main, ["eval", _qbag_document(tmp_path, ["a", "\ud800"])])
        assert result.exit_code == 2, result.exception
        assert result.stderr == (
            "InvalidArgumentId: document: argument id '\\ud800' contains a lone surrogate\n"
        )

    def test_lone_surrogate_in_a_later_step_exits_2(self, runner, tmp_path):
        # the second step extends the first, so the id is met on the extension path
        step = {"arguments": [{"id": "a", "initial": 0.5}], "attacks": [], "supports": []}
        grown = {**step, "arguments": [*step["arguments"], {"id": "b\udfff", "initial": 0.5}]}
        path = tmp_path / "chain.json"
        doc = {"format_version": "1", "kind": "chain", "steps": [step, grown]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            "InvalidArgumentId: steps[1]: argument id 'b\\udfff' contains a lone surrogate"
        ]

    @pytest.mark.parametrize("char", ["\n", "\r"], ids=["lf", "cr"])
    def test_control_character_in_a_path_is_escaped(self, runner, tmp_path, sweep_path, char):
        # the path is the one part of the message written as it was given
        escaped = repr(char)[1:-1]
        missing = str(tmp_path / f"no{char}such.json")
        shown = missing.replace(char, escaped)
        for command in (["eval", missing], ["validate", missing]):
            result = runner.invoke(main, command)
            assert result.exit_code == 2
            assert result.stderr_bytes.decode() == (
                f"cannot read {shown}: [Errno 2] No such file or directory: {missing!r}\n"
            )
        out = str(tmp_path / f"x{char}y" / "out.json")
        result = runner.invoke(main, ["sweep", sweep_path, *_SWEEP, "--steps", "2", "--out", out])
        assert result.exit_code == 2
        assert result.stderr_bytes.decode() == (
            f"cannot write {out.replace(char, escaped)}: [Errno 2] No such file or directory: {out!r}\n"
        )

    def test_only_control_characters_of_a_path_are_escaped(self):
        assert cli._shown("dir/ä b\\'\"$.json") == "dir/ä b\\'\"$.json"
        assert cli._shown("a\tb\x1b\x7f\x85\u2028.json") == "a\\tb\\x1b\\x7f\\x85\\u2028.json"

    def test_lone_surrogates_of_a_path_are_escaped(self):
        assert cli._shown("a\udcfc\ud800.json") == "a\\udcfc\\ud800.json"

    def test_out_path_that_is_not_utf8_is_shown_escaped(self, sweep_path, tmp_path):
        # the byte 0xfc decodes to the lone surrogate U+DCFC, which a strict
        # UTF-8 stdout cannot write as it is
        try:
            out = tmp_path / os.fsdecode(b"\xfc.json")
            out.touch()
        except (UnicodeError, OSError):
            out = None
        if out is None or out.name != "\udcfc.json":
            pytest.skip("os.fsencode cannot name a file with the byte 0xfc here")
        args = ["sweep", sweep_path, *_SWEEP, "--steps", "2", "--out", str(out)]
        run = _run_module(args, {"PYTHONIOENCODING": "utf-8:strict"})
        shown = os.path.join(str(tmp_path), "\\udcfc.json")
        assert (run.returncode, run.stdout, run.stderr) == (0, f"wrote {shown}\n".encode(), b"")
        assert len(parse_chain(out.read_text(encoding="utf-8"))) == 2

    def test_ids_are_written_verbatim(self, runner, tmp_path):
        # escape sequences in an id are written as they are, terminal or not
        result = runner.invoke(main, ["eval", _qbag_document(tmp_path, ["a\x1b[0m", "b"])])
        assert result.exit_code == 0
        assert result.stdout == "a\x1b[0m=0.5 b=0.5\n"


# qbag.__all__: what ``from qbag import *`` gives
_PUBLIC_NAMES = """
    Chain CyclicGraph DFQUAD DanglingEndpoint DocumentError DuplicateArgument EmptyChain
    EmptyTopicSet FairnessLine FairnessReport InvalidArgumentId QBAG QbagError RelationOverlap
    SLFQuery SemanticsDescriptor StrengthAssignment StrengthMatrix StrengthOutOfRange
    TopicNotInChain UnknownArgument UnknownSemantics area_between_piecewise attackers
    build_chain build_qbag common_arguments dfquad_aggregation dfquad_influence evaluate
    evaluate_chain exceed_count exceed_distribution export_curve_csv export_strengths_csv
    fairness_line fairness_report fluctuation_count gini_fairness gini_unnormalized
    is_acyclic is_cautiously_fair is_expansion_chain is_ideally_fair is_live is_lively_fair
    is_normal_expansion_chain is_strongly_safe is_sub_qbag is_weak_expansion_chain
    is_weakly_safe parse_chain parse_qbag reaches report_to_dict restrict safety_curve
    semantics_by_name serialize_chain serialize_qbag shannon_base shannon_fairness
    supporters sweep_chain topological_order
"""


def _run_module(code_or_args, env_extra=None):
    """Run python with src on the path: ``-c code`` for a str, ``-m qbag.cli args`` for a list."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, **(env_extra or {})}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    command = ["-c", code_or_args] if isinstance(code_or_args, str) else ["-m", "qbag.cli", *code_or_args]
    return subprocess.run([sys.executable, *command], capture_output=True, env=env, check=False)


class TestStartup:
    def test_import_loads_neither_click_nor_dataclasses(self):
        # modules the interpreter loaded before the import do not count
        run = _run_module(
            "import sys; before = set(sys.modules); import qbag.cli; "
            "print(sorted({'click', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == b"[]\n"

    @pytest.mark.parametrize(
        ("argv", "loaded"),
        [
            (["eval", "{graph}"], []),
            (["sweep", "{graph}", *_SWEEP, "--steps", "3", "--out", "{out}"], ["chain", "_chain_writer"]),
            (["sweep", "{graph}", *_SWEEP, "--steps", "3", "--csv"], ["chain", "export"]),
            (["validate", "{chain}"], ["chain", "_chain_reader"]),
            (
                ["analyze", "{chain}", *_QUERY],
                ["chain", "_chain_reader", "analysis", "export", "fractions"],
            ),
            (["curve", "{chain}", *_QUERY], ["chain", "_chain_reader", "analysis", "export", "fractions"]),
        ],
        ids=["eval", "sweep-out", "sweep-csv", "validate", "analyze", "curve"],
    )
    def test_a_call_loads_only_what_it_runs(self, tmp_path, sweep_path, chain_path, argv, loaded):
        # qbag's modules and fractions after a successful call, in a fresh interpreter
        paths = {"graph": sweep_path, "chain": chain_path, "out": str(tmp_path / "out.json")}
        argv = [arg.format(**paths) for arg in argv]
        run = _run_module(
            "import sys\n"
            "from qbag.cli import main\n"
            "try:\n"
            f"    main({argv!r})\n"
            "except SystemExit as exc:\n"
            "    modules = {m for m in sys.modules if m.startswith('qbag') or m == 'fractions'}\n"
            "    print(exc.code, sorted(modules), file=sys.stderr)\n"
        )
        base = ["qbag", "qbag.cli", "qbag.errors", "qbag.graph", "qbag.semantics", "qbag.serialize"]
        expected = sorted(base + [m if m == "fractions" else f"qbag.{m}" for m in loaded])
        assert run.stderr.decode() == f"0 {expected}\n"

    def test_star_import_gives_the_public_names(self):
        run = _run_module(
            "import sys\n"
            "from qbag import *\n"
            "import qbag\n"
            "names = sorted(qbag.__all__)\n"
            "for name in names:\n"
            "    value = globals()[name]\n"
            "    assert getattr(sys.modules[value.__module__], name) is value is getattr(qbag, name), name\n"
            "print(' '.join(names))\n"
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.decode().split() == sorted(_PUBLIC_NAMES.split())

    def test_import_qbag_loads_no_module_until_one_is_used(self):
        run = _run_module(
            "import sys\n"
            "import qbag\n"
            "before = sorted(m for m in sys.modules if m.startswith('qbag'))\n"
            "public = [n for n in dir(qbag) if not n.startswith('_')]\n"
            "print(before, qbag.graph.__name__, 'qbag.chain' in sys.modules, public)\n"
        )
        assert run.returncode == 0, run.stderr
        modules = ["analysis", "chain", "errors", "export", "graph", "semantics", "serialize"]
        public = sorted(_PUBLIC_NAMES.split() + modules)
        assert run.stdout.decode() == f"['qbag'] qbag.graph False {public}\n"

    def test_an_unknown_name_raises_attribute_error(self):
        run = _run_module(
            "import qbag\n"
            "try:\n"
            "    qbag.nosuch\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert run.stdout == b"module 'qbag' has no attribute 'nosuch'\n"

    def test_export_loads_neither_analysis_nor_chain(self):
        # its annotations name the report, the matrix and Fraction, which it never builds
        run = _run_module(
            "import sys\n"
            "import qbag.export\n"
            "print(sorted({'qbag.analysis', 'qbag.chain', 'fractions'} & set(sys.modules)))\n"
        )
        assert run.stdout == b"[]\n", run.stderr

    def test_every_module_stays_below_the_token_step(self):
        # CPython 3.11's parser grows its token array by doubling: a module
        # of 4096 tokens or more compiles with a step higher peak
        counts = {}
        for path in sorted(Path(qbag.__file__).parent.glob("*.py")):
            with open(path, encoding="utf-8") as file:
                tokens = tokenize.generate_tokens(file.readline)
                skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                counts[path.name] = sum(token.type not in skipped for token in tokens)
        assert len(counts) >= 9
        assert {name: n for name, n in counts.items() if n >= 4096} == {}

    def test_ascii_streams_still_get_utf8(self, tmp_path):
        path = _qbag_document(tmp_path, ["ä", "b"])
        env = {"PYTHONIOENCODING": "ascii"}
        run = _run_module(["eval", path], env)
        assert (run.returncode, run.stdout, run.stderr) == (0, "b=0.5 ä=0.5\n".encode(), b"")
        run = _run_module(["eval", path, "--semantics", "ä"], env)
        assert run.returncode == 2
        assert run.stderr.decode("utf-8").startswith("UnknownSemantics: unknown semantics 'ä'")
